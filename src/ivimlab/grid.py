"""Shared spatial data model: voxel spacing, 3D volumes, masks and 4D series.

Axis order is (z, y, x) everywhere, with spacing stated in the same order so
slice loops stay outermost. A 4D series puts the frame axis first, as one
(n_frames, nz, ny, nx) array; a volume, a mask and a series all take
``dims`` from the last three axes. Every container holds a read-only view of
its arrays and is safe to share across concurrent readers. A volume's data and
a series' b-values are float64; a series' data is float32 or float64, as
stored, and any other type becomes float64. A container copies nothing that is
already a C-contiguous array of its type: it shares memory with that array,
which stays writeable by its owner, so a change made through it shows in the
container. All arithmetic on a series is float64: ``average_by_bvalue`` widens
each frame as it sums it, exactly, and ``ivim.fit_volume`` averages every
series it fits with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VoxelSpacing:
    """Millimetres per voxel along (z, y, x)."""

    dz: float
    dy: float
    dx: float

    def __post_init__(self):
        for name in ("dz", "dy", "dx"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"spacing {name} must be a positive real, got {v!r}")

    @property
    def voxel_volume_mm3(self) -> float:
        return self.dz * self.dy * self.dx

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.dz, self.dy, self.dx)

    def close_to(self, other: "VoxelSpacing") -> bool:
        return bool(np.allclose(self.as_tuple(), other.as_tuple(), rtol=1e-5, atol=0.0))


def _freeze(arr: np.ndarray) -> np.ndarray:
    # a read-only view: the caller's own array stays writeable, and nothing is copied
    arr = np.ascontiguousarray(arr).view()
    arr.flags.writeable = False
    return arr


def _check_dims(shape: tuple[int, ...]) -> None:
    if len(shape) != 3 or any(int(n) <= 0 for n in shape):
        raise ValueError(f"dims must be three positive integers, got {shape}")


@dataclass(frozen=True)
class _OnGrid:
    """An array whose last three axes are a (z, y, x) grid of ``spacing``."""

    data: np.ndarray
    spacing: VoxelSpacing

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[-3:]  # type: ignore[return-value]

    def require_same_grid(self, other: "_OnGrid", name: str, other_name: str) -> None:
        """ValueError naming both grids, by ``name`` and ``other_name``, unless they are one:
        equal dims and spacings equal to a relative 1e-5."""
        if not (self.dims == other.dims and self.spacing.close_to(other.spacing)):
            # 6 significant digits: a spacing read from NIfTI is float32, so 7.2 reads 7.1999998...
            grid, other_grid = (f"{g.dims}/({', '.join(f'{v:.6g}' for v in g.spacing.as_tuple())})"
                                for g in (self, other))
            raise ValueError(f"{name} grid {grid} does not match {other_name} grid {other_grid}")


@dataclass(frozen=True)
class Volume3D(_OnGrid):
    """A scalar field on a regular (z, y, x) grid."""

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        _check_dims(arr.shape)
        object.__setattr__(self, "data", _freeze(arr))


@dataclass(frozen=True)
class BinaryMask(_OnGrid):
    """A boolean lattice sharing a grid with the volumes it selects from."""

    def __post_init__(self):
        arr = np.asarray(self.data)
        _check_dims(arr.shape)
        object.__setattr__(self, "data", _freeze(arr.astype(bool)))

    @property
    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.data))

    @property
    def volume_ml(self) -> float:
        """Mask volume in millilitres (voxel count times voxel volume / 1000)."""
        return self.voxel_count * self.spacing.voxel_volume_mm3 / 1000.0


@dataclass(frozen=True)
class DwiSeries(_OnGrid):
    """A 4D series: one (n_frames, nz, ny, nx) array, one b-value per frame.

    All frames share the one grid by construction; ``data[t]`` is frame t.
    The array is float32 or float64 as given, kept without a copy when it is
    C-contiguous; any other type is converted to float64. Frames with equal
    b-values belong to one shell, and a b=0 frame has a b-value of exactly 0;
    at least one is required.
    """

    bvalues: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        bvals = np.asarray(self.bvalues, dtype=np.float64).ravel()
        if arr.ndim != 4 or arr.shape[0] != bvals.size:
            raise ValueError(f"data of shape {arr.shape} is not (n_frames, nz, ny, nx) "
                             f"with one frame per b-value ({bvals.size})")
        _check_dims(arr.shape[1:])
        if np.any(~np.isfinite(bvals)) or np.any(bvals < 0):
            raise ValueError("b-values must be finite and non-negative")
        if not np.any(bvals == 0):
            raise ValueError("a series must contain at least one b=0 frame")
        object.__setattr__(self, "data", _freeze(arr))
        object.__setattr__(self, "bvalues", _freeze(bvals))

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def frames(self) -> tuple[Volume3D, ...]:
        """Each frame as a Volume3D: a view of float64 ``data``, a float64 copy of float32."""
        return tuple(Volume3D(fr, self.spacing) for fr in self.data)

    def stacked(self) -> np.ndarray:
        """All frames as one (n_frames, nz, ny, nx) array: ``data`` itself."""
        return self.data


@dataclass(frozen=True)
class IvimMaps:
    """Per-voxel IVIM parameters, fitted or true; NaN marks voxels outside ``mask``.

    Inside the mask every voxel holds 0 <= f <= 1, adc > 0, d_star >= adc,
    s0 > 0 and residual >= 0.
    """

    s0: Volume3D
    f: Volume3D
    d_star: Volume3D
    adc: Volume3D
    residual: Volume3D
    mask: BinaryMask  # voxels that carry values

    def __post_init__(self):
        for name in ("f", "d_star", "adc", "residual", "mask"):
            getattr(self, name).require_same_grid(self.s0, name, "s0")
        m = self.mask.data
        f = self.f.data[m]
        adc = self.adc.data[m]
        ds = self.d_star.data[m]
        s0 = self.s0.data[m]
        res = self.residual.data[m]
        ok = (
            np.all((f >= 0) & (f <= 1))
            and np.all(adc > 0)
            and np.all(ds >= adc)
            and np.all(s0 > 0)
            and np.all(res >= 0)
        )
        if not ok:
            raise ValueError("map values violate 0 <= f <= 1, adc > 0, d_star >= adc, "
                             "s0 > 0 or residual >= 0 inside the mask")


def average_by_bvalue(series: DwiSeries) -> DwiSeries:
    """Collapse frames sharing a b-value to their voxel-wise mean, in float64.

    Frames acquired along several diffusion directions (or repeated b=0
    baselines) are averaged into one trace-weighted frame per shell: a new
    float64 array with one frame per distinct b-value, sorted ascending. Each
    shell's first frame is copied into its slot, its other frames are added to
    the slot in frame order, and the slot is divided by the shell's frame
    count. A float32 frame is widened as it is copied or added, exactly, so no
    sum rounds in float32. That is the arithmetic of ``np.mean(axis=0)`` over
    the shell's frames widened to float64, so the result is bit-identical to
    it, and no frame is copied anywhere but into the output.
    """
    shells, counts = np.unique(series.bvalues, return_counts=True)
    means = np.empty((shells.size, *series.dims))
    for slot, b, count in zip(means, shells, counts):
        first, *rest = (series.data[t] for t in np.flatnonzero(series.bvalues == b))
        slot[...] = first
        for frame in rest:
            slot += frame
        slot /= count
    return DwiSeries(means, series.spacing, shells)
