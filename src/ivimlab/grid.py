"""Shared spatial data model: voxel spacing, 3D volumes, masks and 4D series.

Axis order is (z, y, x) everywhere, with spacing stated in the same order so
slice loops stay outermost. A 4D series puts the frame axis first, as one
(n_frames, nz, ny, nx) array. All containers freeze their arrays after
construction and are safe to share across concurrent readers.
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

    def close_to(self, other: "VoxelSpacing", rtol: float = 1e-5) -> bool:
        return bool(np.allclose(self.as_tuple(), other.as_tuple(), rtol=rtol, atol=0.0))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _check_dims(shape: tuple[int, ...]) -> None:
    if len(shape) != 3 or any(int(n) <= 0 for n in shape):
        raise ValueError(f"dims must be three positive integers, got {shape}")


@dataclass(frozen=True)
class Volume3D:
    """A scalar field on a regular (z, y, x) grid."""

    data: np.ndarray
    spacing: VoxelSpacing

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        _check_dims(arr.shape)
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def same_grid(self, other) -> bool:
        return self.dims == other.dims and self.spacing.close_to(other.spacing)


@dataclass(frozen=True)
class BinaryMask:
    """A boolean lattice sharing a grid with the volumes it selects from."""

    data: np.ndarray
    spacing: VoxelSpacing

    def __post_init__(self):
        arr = np.asarray(self.data)
        _check_dims(arr.shape)
        object.__setattr__(self, "data", _freeze(arr.astype(bool)))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def voxel_count(self) -> int:
        return int(self.data.sum())

    @property
    def volume_ml(self) -> float:
        """Mask volume in millilitres (voxel count times voxel volume / 1000)."""
        return self.voxel_count * self.spacing.voxel_volume_mm3 / 1000.0

    def same_grid(self, other) -> bool:
        return self.dims == other.dims and self.spacing.close_to(other.spacing)


@dataclass(frozen=True)
class DwiSeries:
    """A 4D series: one (n_frames, nz, ny, nx) array, one b-value per frame.

    All frames share the one grid by construction; ``data[t]`` is frame t.
    Frames with equal b-values belong to one shell, and a b=0 frame has a
    b-value of exactly 0; at least one is required.
    """

    data: np.ndarray
    spacing: VoxelSpacing
    bvalues: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
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
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[1:]  # type: ignore[return-value]

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def frames(self) -> tuple[Volume3D, ...]:
        """Each frame as a Volume3D view of ``data`` (no copy)."""
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
        vols = (self.s0, self.f, self.d_star, self.adc, self.residual)
        for v in vols[1:]:
            if not v.same_grid(vols[0]):
                raise ValueError("all parameter maps must share one grid")
        if not self.mask.same_grid(vols[0]):
            raise ValueError("mask grid differs from the parameter maps")
        m = self.mask.data
        if not m.any():
            return
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
    """Collapse frames sharing a b-value to their voxel-wise mean.

    Frames acquired along several diffusion directions (or repeated b=0
    baselines) are averaged along the frame axis of ``series.data`` into one
    trace-weighted frame per shell: a new array with one frame per distinct
    b-value, sorted ascending.
    """
    shells, inverse = np.unique(series.bvalues, return_inverse=True)
    means = np.empty((shells.size, *series.dims))
    for g in range(shells.size):
        series.data[inverse == g].mean(axis=0, out=means[g])
    return DwiSeries(means, series.spacing, shells)
