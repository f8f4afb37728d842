"""Synthetic 4D DWI phantoms with known ground truth.

Signals are generated voxel-wise from the biexponential perfusion-diffusion
decay model, inside an ellipsoidal "lung" mask on an otherwise empty grid.
A truth parameter field is a number (the same value in every voxel), a
``LinearGradient`` or a ``TwoRegion`` split.

Optional noise has sd = (mean masked b=0 intensity) / snr, and
``default_rng(seed)`` draws n1, then (Rician only) n2, each one frame at a time
in frame order: the same stream as one draw in the series' shape. Gaussian
noise is additive, s + n1; Rician noise is the magnitude of a complex Gaussian
perturbation, sqrt((s + n1)**2 + n2**2), as in magnitude MR images. It is
added in place, frame by frame: a phantom holds one float64 series plus one
frame's draw.
``boundary_flip`` toggles voxels along a mask's boundary, a stand-in for an
automatic segmentation's errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.ndimage import binary_dilation, binary_erosion, generate_binary_structure

from .grid import BinaryMask, DwiSeries, IvimMaps, VoxelSpacing, Volume3D

_STRUCT6 = generate_binary_structure(3, 1)  # 6-connected neighbourhood

DEFAULT_SPACING = (7.20, 2.07, 2.07)  # mm, slice-major
DEFAULT_BVALUES = (0.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0, 600.0)  # s/mm^2
NOISE_MODELS = ("none", "gaussian", "rician")


class _AlongAxis:
    """Checks the ``axis`` field of a spec that varies along one axis."""

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {self.axis!r}")


@dataclass(frozen=True)
class LinearGradient(_AlongAxis):
    lo: float
    hi: float
    axis: int = 0  # 0=z, 1=y, 2=x


@dataclass(frozen=True)
class TwoRegion(_AlongAxis):
    value_a: float  # lower half along axis
    value_b: float
    axis: int = 0


FieldSpec = Union[float, LinearGradient, TwoRegion]


def _evaluate_field(spec: FieldSpec, dims: tuple[int, int, int]) -> np.ndarray:
    if isinstance(spec, (int, float)):
        return np.full(dims, float(spec))
    n = dims[spec.axis]
    if isinstance(spec, LinearGradient):
        ramp = np.linspace(spec.lo, spec.hi, n) if n > 1 else np.array([spec.lo])
    elif isinstance(spec, TwoRegion):
        ramp = np.where(np.arange(n) < n / 2, spec.value_a, spec.value_b)
    else:
        raise ValueError(f"unknown field spec {spec!r}")
    shape = [1, 1, 1]
    shape[spec.axis] = n
    return np.broadcast_to(ramp.reshape(shape), dims).copy()


@dataclass(frozen=True)
class PhantomConfig:
    dims: tuple[int, int, int] = (8, 32, 32)
    spacing: tuple[float, float, float] = DEFAULT_SPACING
    bvalues: tuple[float, ...] = DEFAULT_BVALUES
    semi_axes_frac: tuple[float, float, float] = (0.4, 0.4, 0.4)
    s0: FieldSpec = 100.0
    f: FieldSpec = 0.3
    d_star: FieldSpec = 0.05
    d: FieldSpec = 0.002
    noise_model: str = "none"  # one of NOISE_MODELS
    snr: float = 0.0  # used only with noise
    seed: int = 0

    def __post_init__(self):
        for name in ("dims", "spacing", "semi_axes_frac"):
            if len(getattr(self, name)) != 3:
                raise ValueError(f"{name} must have 3 entries (z, y, x), "
                                 f"got {list(getattr(self, name))}")
        if not all(np.isfinite(v) and v > 0 for v in self.semi_axes_frac):
            raise ValueError(f"semi_axes_frac entries must be finite and positive, "
                             f"got {list(self.semi_axes_frac)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be one of {NOISE_MODELS}, "
                             f"got {self.noise_model!r}")
        if not np.isfinite(self.snr):
            raise ValueError(f"snr must be finite, got {self.snr}")
        if self.noise_model != "none" and not self.snr > 0:
            raise ValueError(f"snr must be positive with {self.noise_model} noise, "
                             f"got {self.snr}")


@dataclass(frozen=True)
class PhantomBundle:
    series: DwiSeries
    mask: BinaryMask
    truth: IvimMaps


def ellipsoid_mask(dims: tuple[int, int, int], spacing: VoxelSpacing,
                   semi_axes_frac: tuple[float, float, float]) -> BinaryMask:
    """Centered ellipsoid; semi-axes are fractions of each grid extent."""
    axes = [np.arange(n) - (n - 1) / 2.0 for n in dims]
    semi = [max(frac * n, 0.5) for frac, n in zip(semi_axes_frac, dims)]
    zz = (axes[0] / semi[0])[:, None, None] ** 2
    yy = (axes[1] / semi[1])[None, :, None] ** 2
    xx = (axes[2] / semi[2])[None, None, :] ** 2
    return BinaryMask(zz + yy + xx <= 1.0, spacing)


def make_phantom(cfg: PhantomConfig | None = None) -> PhantomBundle:
    """Forward-simulate a series from truth fields; deterministic per config."""
    cfg = cfg or PhantomConfig()
    spacing = VoxelSpacing(*cfg.spacing)
    mask = ellipsoid_mask(cfg.dims, spacing, cfg.semi_axes_frac)
    m = mask.data
    if not m.any():
        raise ValueError(f"semi_axes_frac {list(cfg.semi_axes_frac)} gives an empty mask "
                         f"on dims {list(cfg.dims)}")

    def masked(spec) -> Volume3D:
        out = np.full(cfg.dims, np.nan)
        out[m] = _evaluate_field(spec, cfg.dims)[m]
        return Volume3D(out, spacing)

    # the truth maps check 0 <= f <= 1, d > 0, d_star >= d and s0 > 0 in the mask
    truth = IvimMaps(s0=masked(cfg.s0), f=masked(cfg.f), d_star=masked(cfg.d_star),
                     adc=masked(cfg.d), residual=masked(0.0), mask=mask)
    s0, f, d_star, d = (getattr(truth, name).data[m] for name in ("s0", "f", "d_star", "adc"))

    signal = np.zeros((len(cfg.bvalues), *cfg.dims))
    for t, b in enumerate(cfg.bvalues):
        signal[t][m] = s0 * (f * np.exp(-b * d_star) + (1.0 - f) * np.exp(-b * d))
    # checks the b-values, the b=0 frame included, and shares ``signal``
    series = DwiSeries(signal, spacing, np.asarray(cfg.bvalues, dtype=np.float64))

    if cfg.noise_model != "none":
        sd = float(signal[series.bvalues == 0][:, m].mean()) / cfg.snr
        rng = np.random.default_rng(cfg.seed)
        for frame in signal:
            frame += rng.normal(0.0, sd, cfg.dims)
        if cfg.noise_model == "rician":
            for frame in signal:
                frame *= frame
                n2 = rng.normal(0.0, sd, cfg.dims)
                frame += np.square(n2, out=n2)
                np.sqrt(frame, out=frame)
    return PhantomBundle(series=series, mask=mask, truth=truth)


def boundary_band(mask: BinaryMask) -> np.ndarray:
    """Voxels whose 6-neighbourhood mixes mask and background (either side)."""
    m = mask.data
    inner = m & ~binary_erosion(m, _STRUCT6, border_value=0)
    outer = ~m & binary_dilation(m, _STRUCT6)
    return inner | outer


def boundary_flip(mask: BinaryMask, p: float, seed: int = 0) -> BinaryMask:
    """Toggle each boundary-band voxel independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    band = boundary_band(mask)
    rng = np.random.default_rng(seed)
    toggle = band & (rng.random(mask.dims) < p)
    return BinaryMask(mask.data ^ toggle, mask.spacing)


def perturb_mask(mask: BinaryMask, op: str, *, p: float = 0.0, seed: int = 0) -> BinaryMask:
    """``mask`` perturbed by ``op``: ``"boundary_flip"``, with ``p`` and ``seed``."""
    if op == "boundary_flip":
        return boundary_flip(mask, p, seed)
    raise ValueError(f"unknown perturbation {op!r}")
