"""Two-step voxel-wise IVIM fitting over a masked 4D series.

Step one fits a mono-exponential decay to the high-b tail (strictly above the
b threshold), giving the apparent diffusion coefficient. Step two fixes the
tissue diffusion coefficient to that value and fits amplitude, perfusion
fraction and pseudo-diffusion coefficient to the full decay curve, which
stabilizes the otherwise poorly conditioned biexponential problem. The
parameter box is fixed: S0 > 0, f in [0, 1], ADC in [``ADC_MIN``,
``ADC_MAX``] and D* in (ADC, ``D_STAR_MAX``], so a voxel whose perfusion
term the data cannot resolve stops at the D* bound rather than running off
to infinity.

A voxel fails only for its data: a non-finite sample, fewer than two distinct
positive samples above the b threshold, or no positive b=0 mean. Elsewhere
each step keeps the solver's last estimate, which lies in the box and costs
no more than the start. Failed voxels carry the NaN sentinel, are skipped by
the summaries and never abort a volume fit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import lm, stats
from .grid import BinaryMask, DwiSeries, IvimMaps, Volume3D

# histogram bins of the summary entropies; one value keeps every summary comparable
ENTROPY_BINS = 64

# mm^2/s: the ADC box (a fitted ADC within 1% of an end is a boundary hit) and
# the upper end of the D* box, whose lower end is the voxel's ADC
ADC_MIN = 1e-5
ADC_MAX = 1e-1
_BOUND_MARGIN = 1.01
D_STAR_MAX = 1.0

# the transforms that no voxel changes, built once
_S0 = lm.log_positive()
_ADC = lm.logistic(ADC_MIN, ADC_MAX)
_F = lm.logistic(0.0, 1.0)


@dataclass(frozen=True)
class IvimFitConfig:
    """The one fit setting; the fixed box is f in [0, 1] and ADC in [ADC_MIN, ADC_MAX]."""

    b_threshold: float = 100.0  # strict: only b > threshold enters the ADC fit

    def __post_init__(self):
        if not self.b_threshold >= 0:
            raise ValueError("b_threshold must be >= 0")


@dataclass(frozen=True)
class VoxelSignal:
    """One voxel's decay curve: ascending b-values and their intensities."""

    bvalues: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bvalues, dtype=np.float64).ravel()
        s = np.asarray(self.intensities, dtype=np.float64).ravel()
        if b.size != s.size:
            raise ValueError("bvalues and intensities must have equal length")
        if np.any(np.diff(b) < 0):
            raise ValueError("bvalues must be ascending")
        if np.any(s < 0) or not np.all(np.isfinite(s)):
            raise ValueError("intensities must be finite and non-negative")
        object.__setattr__(self, "bvalues", b)
        object.__setattr__(self, "intensities", s)


@dataclass(frozen=True)
class AdcFit:
    s0_high: float
    adc: float


@dataclass(frozen=True)
class IvimFit:
    s0: float
    f: float
    d_star: float
    residual: float


def _loglinear(b: np.ndarray, s: np.ndarray) -> tuple[float, float]:
    """OLS of ln(s) on b; returns (intercept_amplitude, decay_rate)."""
    ln_s = np.log(s)
    bm = b.mean()
    lm_ = ln_s.mean()
    sxx = float(((b - bm) ** 2).sum())
    slope = float(((b - bm) * (ln_s - lm_)).sum()) / sxx
    return math.exp(lm_ - slope * bm), -slope


def _clamp_open(v: float, lo: float, hi: float, margin: float = 1e-3) -> float:
    span = hi - lo
    return min(max(v, lo + margin * span), hi - margin * span)


def _high_b(b: np.ndarray, s: np.ndarray, cfg: IvimFitConfig):
    """(b, s, log-linear intercept, rate) over b > threshold with s > 0.

    None when fewer than two distinct b-values remain.
    """
    keep = (b > cfg.b_threshold) & (s > 0)
    bh, sh = b[keep], s[keep]
    if np.unique(bh).size < 2:
        return None
    return (bh, sh, *_loglinear(bh, sh))


def _fit_adc_arrays(bh: np.ndarray, sh: np.ndarray, s0_init: float, rate: float) -> AdcFit:
    adc_init = _clamp_open(rate, ADC_MIN, ADC_MAX)

    def residual(th):
        return th[0] * np.exp(-th[1] * bh) - sh

    def jacobian(th):
        e = np.exp(-th[1] * bh)
        return np.array((e, -th[0] * bh * e))

    problem = lm.FitProblem(
        residual=residual,
        jacobian=jacobian,
        theta0=np.array([max(s0_init, 1e-12), adc_init]),
        transforms=(_S0, _ADC),
    )
    result = lm.lm_fit(problem)
    return AdcFit(float(result.params[0]), float(result.params[1]))


def fit_adc(sig: VoxelSignal, cfg: IvimFitConfig | None = None) -> AdcFit | None:
    """Mono-exponential fit over the high-b subset; None below two usable high-b samples."""
    high = _high_b(sig.bvalues, sig.intensities, cfg or IvimFitConfig())
    return None if high is None else _fit_adc_arrays(*high)


def _fit_ivim_arrays(b: np.ndarray, s: np.ndarray, adc: float,
                     s0_high: float | None) -> IvimFit | None:
    """None without a positive b=0 mean; ``s0_high`` is the high-b intercept or None."""
    is_b0 = b == 0
    if not is_b0.any():
        return None
    s0_init = float(s[is_b0].mean())
    if s0_init <= 0:
        return None

    if s0_high is None:
        s0_high = s0_init
    # segmented-IVIM intercept estimate for the perfusion fraction start
    f_init = min(max(1.0 - s0_high / s0_init, 0.01), 0.99)
    d_star_init = _clamp_open(max(10.0 * adc, adc + 1e-3), adc, D_STAR_MAX)
    e_adc = np.exp(-adc * b)

    def residual(th):
        return th[0] * (th[1] * np.exp(-th[2] * b) + (1.0 - th[1]) * e_adc) - s

    def jacobian(th):
        s0, f, d_star = th
        e = np.exp(-d_star * b)
        return np.array((f * e + (1.0 - f) * e_adc, s0 * (e - e_adc), -s0 * f * b * e))

    problem = lm.FitProblem(
        residual=residual,
        jacobian=jacobian,
        theta0=np.array([s0_init, f_init, d_star_init]),
        transforms=(_S0, _F, lm.logistic(adc, D_STAR_MAX)),
    )
    result = lm.lm_fit(problem)
    s0, f, d_star = (float(v) for v in result.params)
    rms = math.sqrt(result.ssr / b.size) / s0
    return IvimFit(s0, f, d_star, rms)


def fit_ivim(sig: VoxelSignal, adc: float, cfg: IvimFitConfig | None = None) -> IvimFit | None:
    """Biexponential fit of (S0, f, D*) at a fixed adc; None without a positive b=0 mean."""
    if not 0 < adc < D_STAR_MAX:
        raise ValueError(f"adc must lie in (0, D_STAR_MAX = {D_STAR_MAX}), got {adc}")
    high = _high_b(sig.bvalues, sig.intensities, cfg or IvimFitConfig())
    return _fit_ivim_arrays(sig.bvalues, sig.intensities, adc,
                            None if high is None else high[2])


_FAILED = (math.nan,) * 5


def _fit_voxel(s: np.ndarray, b: np.ndarray, cfg: IvimFitConfig) -> tuple[float, ...]:
    """(s0, f, d_star, adc, residual) of one voxel; all NaN when it cannot be fitted."""
    high = _high_b(b, s, cfg) if np.isfinite(s).all() else None
    adc = None if high is None else _fit_adc_arrays(*high).adc
    ivim = None if adc is None else _fit_ivim_arrays(b, s, adc, high[2])
    if ivim is None:
        return _FAILED
    return ivim.s0, ivim.f, ivim.d_star, adc, ivim.residual


def _validate_series(series: DwiSeries, cfg: IvimFitConfig) -> None:
    b = series.bvalues
    if np.unique(b).size != b.size:
        raise ValueError(
            "series must be direction-averaged first (one frame per b-value); "
            "see grid.average_by_bvalue"
        )
    if b.size < 3:
        raise ValueError("voxel fits need at least 3 b-values")
    if np.unique(b[b > cfg.b_threshold]).size < 2:
        raise ValueError(
            f"need at least 2 distinct b-values above the threshold {cfg.b_threshold}"
        )


def fit_volume(series: DwiSeries, mask: BinaryMask, cfg: IvimFitConfig | None = None,
               workers: int = 1) -> IvimMaps:
    """Fit every masked voxel; NaN outside the mask and where a voxel's data fail it.

    The result is independent of voxel visit order and of ``workers`` (at
    least 1): voxel fits share no state, and ``map`` keeps index order.
    """
    cfg = cfg or IvimFitConfig()
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if not mask.same_grid(series):
        raise ValueError(
            f"mask grid {mask.dims}/{mask.spacing.as_tuple()} does not match "
            f"series grid {series.dims}/{series.spacing.as_tuple()}"
        )
    _validate_series(series, cfg)

    flat_idx = np.flatnonzero(mask.data.ravel())
    n_vox = int(np.prod(series.dims))
    signals = series.data.reshape(series.n_frames, n_vox)[:, flat_idx].T
    signals = np.ascontiguousarray(np.maximum(signals, 0.0))
    fit = partial(_fit_voxel, b=np.asarray(series.bvalues), cfg=cfg)
    if workers == 1 or flat_idx.size < 2 * workers:
        results = list(map(fit, signals))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fit, signals,
                                    chunksize=math.ceil(flat_idx.size / (4 * workers))))
    results = np.array(results, dtype=np.float64).reshape(flat_idx.size, 5)

    maps = []
    for col in range(5):
        full = np.full(n_vox, np.nan)
        full[flat_idx] = results[:, col]
        maps.append(Volume3D(full.reshape(series.dims), series.spacing))
    fitted = np.zeros(n_vox, dtype=bool)
    fitted[flat_idx] = np.isfinite(results[:, 3])
    fitted_mask = BinaryMask(fitted.reshape(series.dims), series.spacing)
    return IvimMaps(s0=maps[0], f=maps[1], d_star=maps[2], adc=maps[3],
                    residual=maps[4], mask=fitted_mask)


def boundary_hits(maps: IvimMaps) -> int:
    """Number of fitted voxels whose ADC lies within 1% of ``ADC_MIN`` or ``ADC_MAX``."""
    adc = maps.adc.data[maps.mask.data]
    return int(((adc <= ADC_MIN * _BOUND_MARGIN) | (adc >= ADC_MAX / _BOUND_MARGIN)).sum())


def summarize(maps: IvimMaps) -> dict | None:
    """The summary metrics of one subject's fitted maps.

    Volume, the mean of every map, the CV of s0, f, D* and ADC, and the
    ``ENTROPY_BINS``-bin histogram entropy of f, D* and ADC, all over the
    fitted voxels. None where a CV is undefined: with fewer than two fitted
    voxels, or when every fitted f is 0 (f's mean is then 0; S0, ADC and D*
    are positive by the fit's box).
    """
    m = maps.mask.data
    if maps.mask.voxel_count < 2 or not maps.f.data[m].any():
        return None
    values = {name: getattr(maps, name).data[m]
              for name in ("s0", "f", "d_star", "adc", "residual")}
    return {
        "volume_ml": maps.mask.volume_ml,
        **{f"{name}_mean": float(v.mean()) for name, v in values.items()},
        **{f"{name}_cv": stats.cv(values[name]) for name in ("s0", "f", "d_star", "adc")},
        **{f"{name}_entropy": stats.shannon_entropy(values[name], ENTROPY_BINS)
           for name in ("f", "d_star", "adc")},
    }
