"""Mask fusion (intersection / strict majority / union) and overlap metrics.

The directed Hausdorff distance from A to B needs, for each voxel of A\\B,
its nearest voxel of B. Two stages find them.

1. A lattice search out to one step of the coarsest axis (7.2 mm on the
   paper grid). Offsets are tested shell by shell, shortest first, a shell
   being a run of offsets whose lengths tie. A voxel is settled at the first
   shell that meets B, and that shell gives its nearest distance: every
   shorter offset was tested before and missed B. Only voxels in B's bounding
   box grown by the search's reach are tested; from anywhere else no offset
   meets B.
2. One exact Euclidean distance transform (scipy's
   ``ndimage.distance_transform_edt``, after Maurer et al., IEEE TPAMI 2003)
   for the voxels left, if any. It runs on the bounding box of (left) ∪ B,
   which holds B's nearest voxel to each of them, and returns nearest-voxel
   indices, not distances. Every voxel left lies farther from B than every
   settled voxel, so the maximum is theirs. The transform stays because
   growing the search until every voxel settles costs about the cube of the
   distance: a mask far from the other would take much longer than one
   transform. Where a mask differs from the other only near its boundary,
   as automatic and manual masks do, the transform does not run.

Squared distances are taken in absolute voxel coordinates. The farthest
voxels are then re-measured against the voxels of B at that distance, so the
result is bit-identical to an all-pairs scan of voxel centers.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy import ndimage

from .grid import BinaryMask

# relative width of a distance tie: far above the few-ulp rounding of a
# distance; a wider band only re-measures more voxels
_TIE_RTOL = 1e-9


class FusionStrategy(Enum):
    OLP = "olp"  # overlap: voxel-wise AND, the conservative core volume
    AVG = "avg"  # strict majority vote (> 50% of the inputs)
    LC = "lc"    # largest contour: voxel-wise OR, the inclusive envelope

    @classmethod
    def parse(cls, name: str) -> "FusionStrategy":
        try:
            return _STRATEGIES[name.strip().lower()]
        except KeyError:
            raise ValueError(
                f"unknown fusion strategy {name!r}; expected one of olp, avg, lc"
            ) from None


_STRATEGIES = {strategy.value: strategy for strategy in FusionStrategy}


def fuse(masks: list[BinaryMask], strategy: FusionStrategy) -> BinaryMask:
    """Fuse per-timeframe segmentations into one representative mask.

    OLP keeps voxels present in every input, LC keeps voxels present in any,
    AVG keeps voxels present in strictly more than half (an even-count tie
    excludes the voxel).
    """
    if not masks:
        raise ValueError("fuse needs at least one mask")
    for i, m in enumerate(masks[1:], start=2):
        m.require_same_grid(masks[0], f"mask {i}", "mask 1")
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
    a.require_same_grid(b, "mask a", "mask b")
    na, nb = a.voxel_count, b.voxel_count
    if na + nb == 0:
        return 1.0
    inter = int((a.data & b.data).sum())
    return 2.0 * inter / (na + nb)


def _lattice(inner: float, outer: float, spacing: np.ndarray,
             shape) -> tuple[np.ndarray, np.ndarray]:
    """Lattice offsets (k, 3) inside a grid of ``shape`` whose length in mm lies
    from ``inner`` to ``outer``, ties at both ends included, and their squared
    lengths (k,) in mm^2."""
    reach = [min(n - 1, int(outer * (1.0 + 2.0 * _TIE_RTOL) / s))
             for n, s in zip(shape, spacing)]
    axes = [np.arange(-r, r + 1) for r in reach]
    sq = [(ax * s) ** 2 for ax, s in zip(axes, spacing)]
    length_sq = sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :]
    keep = np.nonzero((length_sq >= inner**2 * (1.0 - 4.0 * _TIE_RTOL))
                      & (length_sq <= outer**2 * (1.0 + 4.0 * _TIE_RTOL)))
    return np.stack([ax[i] for ax, i in zip(axes, keep)], axis=1), length_sq[keep]


def _box(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) corners of the smallest box holding every voxel of a non-empty ``m``."""
    lo, hi = [], []
    for axis in range(3):
        hit = np.flatnonzero(m.any(axis=tuple(i for i in range(3) if i != axis)))
        lo.append(hit[0])
        hi.append(hit[-1] + 1)
    return np.array(lo), np.array(hi)


def _lattice_sq(rest: np.ndarray, b: np.ndarray,
                spacing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1: (points (n, 3), squared distances (n,)) of the voxels of ``rest``
    that have a voxel of B within one step of the coarsest axis."""
    offsets, length_sq = _lattice(0.0, float(spacing.max()), spacing, b.shape)
    reach = np.abs(offsets).max(axis=0)
    lo, hi = _box(b)
    # only voxels in B's box grown by the reach can meet B
    lo, hi = np.maximum(lo - reach, 0), np.minimum(hi + reach, b.shape)
    p = np.argwhere(rest[tuple(slice(l, h) for l, h in zip(lo, hi))]) + lo
    padded = np.pad(b, [(r, r) for r in reach])  # p + offset never leaves it
    steps = np.array(padded.strides)  # bool: one byte a voxel
    flat = padded.ravel()
    at = (p + reach) @ steps
    # shells of tied lengths, shortest first; the zero offset never meets B
    order = np.argsort(length_sq, kind="stable")[1:]
    lengths = np.sqrt(length_sq[order])
    shells = np.split(order, np.flatnonzero(np.diff(lengths) > _TIE_RTOL * lengths[1:]) + 1)
    sq = np.full(len(p), np.inf)
    left = np.arange(len(p))
    for shell in shells:
        if not left.size:
            break
        best = np.full(left.size, np.inf)
        for step, length in zip(offsets[shell] @ steps, length_sq[shell]):
            hit = flat[at + step]
            best[hit & (best > length)] = length
        settled = best < np.inf
        sq[left[settled]] = best[settled]
        left, at = left[~settled], at[~settled]
    settled = sq < np.inf
    return p[settled], sq[settled]


def _transform_sq(rest: np.ndarray, b: np.ndarray,
                  spacing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stage 2: (points (n, 3), squared distances (n,)) of every voxel of ``rest``,
    from one distance transform."""
    lo, hi = _box(rest | b)  # holds B's nearest voxel to each voxel of rest
    box = tuple(slice(l, h) for l, h in zip(lo, hi))
    nearest = ndimage.distance_transform_edt(~b[box], sampling=spacing,
                                             return_distances=False, return_indices=True)
    p = np.argwhere(rest[box])
    q = nearest[:, p[:, 0], p[:, 1], p[:, 2]].T
    sq = (((p + lo) * spacing - (q + lo) * spacing) ** 2).sum(axis=1)
    p += lo
    return p, sq


def _directed_sq(a: np.ndarray, b: np.ndarray, spacing: np.ndarray) -> float:
    """max over A's voxels of the squared distance (mm^2) to the nearest voxel of B."""
    rest = a & ~b  # A's voxels in B are at distance 0
    if not rest.any():
        return 0.0
    settled, settled_sq = _lattice_sq(rest, b, spacing)
    stages = [(settled, settled_sq)]
    rest[tuple(settled.T)] = False
    if rest.any():
        stages.append(_transform_sq(rest, b, spacing))
    worst_sq = max(float(sq.max()) for _, sq in stages if sq.size)
    # Among tied nearest voxels, such as (0,1,2) and (0,2,1) steps, either
    # stage may pick one that a pairwise scan rounds farther, so A's farthest
    # voxels, from both stages, are measured again with the arithmetic of a
    # pairwise scan, against B's voxels at that distance only.
    far = np.concatenate([p[sq >= worst_sq * (1.0 - 2.0 * _TIE_RTOL)] for p, sq in stages])
    radius = np.sqrt(worst_sq)
    near = far[:, None, :] + _lattice(radius, radius, spacing, a.shape)[0][None, :, :]
    inside = ((near >= 0) & (near < a.shape)).all(axis=2)
    near[~inside] = 0
    hit = inside & b[near[..., 0], near[..., 1], near[..., 2]]
    sq = ((far[:, None, :] * spacing - near * spacing) ** 2).sum(axis=2)
    return float(np.where(hit, sq, np.inf).min(axis=1).max())


def hausdorff(a: BinaryMask, b: BinaryMask) -> float:
    """Symmetric max-Hausdorff distance between voxel centers, in millimetres."""
    a.require_same_grid(b, "mask a", "mask b")
    if a.voxel_count == 0 or b.voxel_count == 0:
        raise ValueError("Hausdorff distance is undefined for an empty mask")
    spacing = np.array(a.spacing.as_tuple())
    return float(np.sqrt(max(_directed_sq(a.data, b.data, spacing),
                             _directed_sq(b.data, a.data, spacing))))
