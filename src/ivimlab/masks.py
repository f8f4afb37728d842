"""Mask fusion (intersection / strict majority / union) and overlap metrics.

The Hausdorff distance comes from one exact Euclidean distance transform per
direction (scipy's ``ndimage.distance_transform_edt``, after Maurer et al.,
IEEE TPAMI 2003). The transform finds the farthest voxels; their distance is
then re-measured against the voxels of the other mask at that distance, so
the result is bit-identical to an all-pairs scan of voxel centers.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy import ndimage

from .grid import BinaryMask

# relative width of a distance tie: far above the transform's few-ulp
# rounding; a wider band only re-measures more voxels
_TIE_RTOL = 1e-9


class FusionStrategy(Enum):
    OLP = "olp"  # overlap: voxel-wise AND, the conservative core volume
    AVG = "avg"  # strict majority vote (> 50% of the inputs)
    LC = "lc"    # largest contour: voxel-wise OR, the inclusive envelope

    @classmethod
    def parse(cls, name: str) -> "FusionStrategy":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown fusion strategy {name!r}; expected one of olp, avg, lc"
            ) from None


def _require_same_grid(masks) -> None:
    first = masks[0]
    for m in masks[1:]:
        if not m.same_grid(first):
            raise ValueError("masks must share dims and spacing")


def fuse(masks: list[BinaryMask], strategy: FusionStrategy) -> BinaryMask:
    """Fuse per-timeframe segmentations into one representative mask.

    OLP keeps voxels present in every input, LC keeps voxels present in any,
    AVG keeps voxels present in strictly more than half (an even-count tie
    excludes the voxel).
    """
    if not masks:
        raise ValueError("fuse needs at least one mask")
    _require_same_grid(masks)
    stack = np.stack([m.data for m in masks], axis=0)
    if strategy is FusionStrategy.OLP:
        fused = stack.all(axis=0)
    elif strategy is FusionStrategy.LC:
        fused = stack.any(axis=0)
    else:
        fused = stack.sum(axis=0, dtype=np.int64) * 2 > len(masks)
    return BinaryMask(fused, masks[0].spacing)


def dice(a: BinaryMask, b: BinaryMask) -> float:
    """Dice similarity 2|A∩B| / (|A|+|B|); two empty masks agree perfectly (1.0)."""
    _require_same_grid([a, b])
    na, nb = a.voxel_count, b.voxel_count
    if na + nb == 0:
        return 1.0
    inter = int((a.data & b.data).sum())
    return 2.0 * inter / (na + nb)


def _offsets_at(radius: float, spacing: np.ndarray, shape) -> np.ndarray:
    """Lattice offsets (k, 3) inside a grid of ``shape`` whose length in mm ties radius."""
    reach = [min(n - 1, int(radius * (1.0 + _TIE_RTOL) / s)) for n, s in zip(shape, spacing)]
    axes = [np.arange(-r, r + 1) for r in reach]
    sq = [(ax * s) ** 2 for ax, s in zip(axes, spacing)]
    length_sq = sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :]
    ties = np.abs(length_sq - radius**2) <= 4.0 * _TIE_RTOL * radius**2
    return np.stack([ax[i] for ax, i in zip(axes, np.nonzero(ties))], axis=1)


def _directed_sq(a: np.ndarray, b: np.ndarray, spacing: np.ndarray) -> float:
    """max over A's voxels of the squared distance (mm^2) to the nearest voxel of B."""
    dist = ndimage.distance_transform_edt(~b, sampling=spacing)
    worst = float(dist[a].max())
    if worst == 0.0:
        return 0.0
    # Tied nearest voxels, such as (0,1,2) and (0,2,1) steps, round differently
    # in the transform, so A's farthest voxels are measured again, with the
    # arithmetic of a pairwise scan, against B's voxels at that distance only.
    far = np.argwhere(a & (dist >= worst * (1.0 - _TIE_RTOL)))
    near = far[:, None, :] + _offsets_at(worst, spacing, a.shape)[None, :, :]
    inside = ((near >= 0) & (near < a.shape)).all(axis=2)
    near[~inside] = 0
    hit = inside & b[near[..., 0], near[..., 1], near[..., 2]]
    sq = ((far[:, None, :] * spacing - near * spacing) ** 2).sum(axis=2)
    return float(np.where(hit, sq, np.inf).min(axis=1).max())


def hausdorff(a: BinaryMask, b: BinaryMask) -> float:
    """Symmetric max-Hausdorff distance between voxel centers, in millimetres."""
    _require_same_grid([a, b])
    if a.voxel_count == 0 or b.voxel_count == 0:
        raise ValueError("Hausdorff distance is undefined for an empty mask")
    spacing = np.array(a.spacing.as_tuple())
    return float(np.sqrt(max(_directed_sq(a.data, b.data, spacing),
                             _directed_sq(b.data, a.data, spacing))))
