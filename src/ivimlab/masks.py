"""Mask fusion (intersection / strict majority / union) and overlap metrics.

Fusion combines the masks one at a time into one output grid; AVG counts
votes in the smallest unsigned type that holds the number of masks. Dice
counts voxels with ``count_nonzero``.

The directed Hausdorff distance from A to B needs, for each voxel of A\\B,
its nearest voxel of B. Two stages find them. Both directions share what
they can: the lattice of offsets, each mask's bounding box, and one pass
each for A\\B and B\\A.

1. A lattice search out to one step of the coarsest axis (7.2 mm on the
   paper grid). Offsets are tested shell by shell, shortest first, a shell
   being a run of offsets whose lengths tie. A voxel is settled at the first
   shell that meets B, and that shell gives its nearest distance: every
   shorter offset was tested before and missed B. Only voxels in B's bounding
   box grown by the search's reach are tested; from anywhere else no offset
   meets B. The search works in a window around that box, wide enough that no
   offset leaves it: the tested voxels are flat indices into the window, an
   offset is one added step, and only the voxels whose points are needed
   (the farthest ones, or every settled one when stage 2 runs) are unraveled.
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
    excludes the voxel). AVG counts votes in the smallest unsigned type that
    holds the input count.
    """
    if not masks:
        raise ValueError("fuse needs at least one mask")
    for i, m in enumerate(masks[1:], start=2):
        m.require_same_grid(masks[0], f"mask {i}", "mask 1")
    if strategy is FusionStrategy.AVG:
        votes = np.zeros(masks[0].dims, np.min_scalar_type(len(masks)))
        for m in masks:
            votes += m.data
        fused = votes > len(masks) // 2  # 2 * votes > n, for whole numbers
    else:
        combine = np.logical_and if strategy is FusionStrategy.OLP else np.logical_or
        fused = masks[0].data.copy()
        for m in masks[1:]:
            combine(fused, m.data, out=fused)
    return BinaryMask(fused, masks[0].spacing)


def dice(a: BinaryMask, b: BinaryMask) -> float:
    """Dice similarity 2|A∩B| / (|A|+|B|); two empty masks agree perfectly (1.0)."""
    a.require_same_grid(b, "mask a", "mask b")
    na, nb = a.voxel_count, b.voxel_count
    if na + nb == 0:
        return 1.0
    inter = int(np.count_nonzero(a.data & b.data))
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
    yx = m.any(axis=0)  # reductions over outer or whole contiguous axes are the fast ones
    hits = [np.flatnonzero(m.reshape(len(m), -1).any(axis=1)),
            np.flatnonzero(yx.any(axis=1)), np.flatnonzero(yx.any(axis=0))]
    return np.array([h[0] for h in hits]), np.array([h[-1] + 1 for h in hits])


def _slices(lo, hi) -> tuple[slice, ...]:
    """The box from corner ``lo`` up to, not including, ``hi`` as an index."""
    return tuple(slice(l, h) for l, h in zip(lo, hi))


def _search(spacing: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Stage 1's lattice, the same for both directions: (offsets (k, 3), squared
    lengths (k,), shells of tied lengths as index arrays, shortest first)."""
    offsets, length_sq = _lattice(0.0, float(spacing.max()), spacing, shape)
    # the zero offset never meets B
    order = np.argsort(length_sq, kind="stable")[1:]
    lengths = np.sqrt(length_sq[order])
    shells = np.split(order, np.flatnonzero(np.diff(lengths) > _TIE_RTOL * lengths[1:]) + 1)
    return offsets, length_sq, shells


def _lattice_sq(rest: np.ndarray, b: np.ndarray, b_box,
                search) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Stage 1: (flat indices (n,), squared distances (n,), window) of the voxels
    of ``rest`` that have a voxel of B within one step of the coarsest axis.

    The indices are into ``window``, a (origin, shape) box of the grid that
    may reach past its edges; ``_points`` turns them into grid points.
    """
    offsets, length_sq, shells = search
    reach = np.abs(offsets).max(axis=0)
    lo, hi = b_box
    # B's box grown by twice the reach, so a candidate plus an offset never leaves it
    origin, shape = lo - 2 * reach, hi - lo + 4 * reach
    near_b = np.zeros(shape, dtype=bool)
    near_b[_slices(lo - origin, hi - origin)] = b[_slices(lo, hi)]
    # only voxels in B's box grown by the reach can meet B
    glo, ghi = np.maximum(lo - reach, 0), np.minimum(hi + reach, b.shape)
    candidates = np.zeros(shape, dtype=bool)
    candidates[_slices(glo - origin, ghi - origin)] = rest[_slices(glo, ghi)]
    at = np.flatnonzero(candidates)
    flat = near_b.ravel()
    steps = np.array(near_b.strides)  # bool: one byte a voxel
    sq = np.full(at.size, np.inf)
    left, left_at = np.arange(at.size), at
    for shell in shells:
        if not left.size:
            break
        best = np.full(left.size, np.inf)
        for step, length in zip(offsets[shell] @ steps, length_sq[shell]):
            np.minimum(best, length, out=best, where=flat[left_at + step])
        settled = best < np.inf
        sq[left[settled]] = best[settled]
        left, left_at = left[~settled], left_at[~settled]
    settled = sq < np.inf
    return at[settled], sq[settled], (origin, shape)


def _points(at: np.ndarray, window) -> np.ndarray:
    """Grid points (n, 3) of flat indices ``at`` into ``window``."""
    origin, shape = window
    return np.stack(np.unravel_index(at, shape), axis=1) + origin


def _transform_sq(rest: np.ndarray, b: np.ndarray, b_box,
                  spacing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stage 2: (points (n, 3), squared distances (n,)) of every voxel of ``rest``,
    from one distance transform."""
    # the box of rest and B holds B's nearest voxel to each voxel of rest
    (lo, hi), (b_lo, b_hi) = _box(rest), b_box
    lo, hi = np.minimum(lo, b_lo), np.maximum(hi, b_hi)
    box = _slices(lo, hi)
    nearest = ndimage.distance_transform_edt(~b[box], sampling=spacing,
                                             return_distances=False, return_indices=True)
    p = np.argwhere(rest[box])
    q = nearest[:, p[:, 0], p[:, 1], p[:, 2]].T
    sq = (((p + lo) * spacing - (q + lo) * spacing) ** 2).sum(axis=1)
    p += lo
    return p, sq


def _directed_sq(rest: np.ndarray, b: np.ndarray, b_box, search,
                 spacing: np.ndarray) -> float:
    """max over the voxels of ``rest`` (A\\B) of the squared distance (mm^2) to
    the nearest voxel of B; A's voxels in B are at distance 0."""
    n_rest = np.count_nonzero(rest)
    if not n_rest:
        return 0.0
    at, lattice_sq, window = _lattice_sq(rest, b, b_box, search)
    p, transform_sq = np.empty((0, 3), dtype=np.intp), np.empty(0)
    if at.size < n_rest:  # some voxels are farther than the lattice reaches
        rest[tuple(_points(at, window).T)] = False
        p, transform_sq = _transform_sq(rest, b, b_box, spacing)
    worst_sq = max(lattice_sq.max(initial=0.0), transform_sq.max(initial=0.0))
    # Among tied nearest voxels, such as (0,1,2) and (0,2,1) steps, either
    # stage may pick one that a pairwise scan rounds farther, so A's farthest
    # voxels, from both stages, are measured again with the arithmetic of a
    # pairwise scan, against B's voxels at that distance only.
    cut = worst_sq * (1.0 - 2.0 * _TIE_RTOL)
    far = np.concatenate([_points(at[lattice_sq >= cut], window), p[transform_sq >= cut]])
    radius = np.sqrt(worst_sq)
    near = far[:, None, :] + _lattice(radius, radius, spacing, b.shape)[0][None, :, :]
    inside = ((near >= 0) & (near < b.shape)).all(axis=2)
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
    a, b = a.data, b.data
    search = _search(spacing, a.shape)
    a_box, b_box = _box(a), _box(b)
    # a > b is A\B for booleans, in one pass
    return float(np.sqrt(max(_directed_sq(a > b, b, b_box, search, spacing),
                             _directed_sq(b > a, a, a_box, search, spacing))))
