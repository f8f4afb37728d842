import re

import numpy as np
import pytest
from scipy import ndimage
from scipy.ndimage import binary_dilation, generate_binary_structure

from ivimlab import masks, phantom
from ivimlab.grid import BinaryMask, VoxelSpacing
from ivimlab.masks import FusionStrategy, dice, fuse, hausdorff

from oracles import brute_dice, brute_hausdorff

UNIT = VoxelSpacing(1.0, 1.0, 1.0)
ANISO = VoxelSpacing(7.2, 2.07, 2.07)
ISO = VoxelSpacing(1.1, 1.1, 1.1)


def mk(data, spacing=UNIT):
    return BinaryMask(np.asarray(data, dtype=bool), spacing)


def single_voxel(dims, at, spacing=UNIT):
    data = np.zeros(dims, dtype=bool)
    data[at] = True
    return mk(data, spacing)


class TestFuse:
    def test_parse_case_insensitive(self):
        assert FusionStrategy.parse("OLP") is FusionStrategy.OLP
        assert FusionStrategy.parse(" Avg ") is FusionStrategy.AVG
        with pytest.raises(ValueError):
            FusionStrategy.parse("mean")

    def test_identical_masks_fixed_point(self):
        rng = np.random.default_rng(0)
        m = mk(rng.random((4, 4, 4)) < 0.5)
        for strategy in FusionStrategy:
            assert np.array_equal(fuse([m, m, m], strategy).data, m.data)

    def test_two_of_three_voxel(self):
        a = single_voxel((1, 1, 1), (0, 0, 0))
        b = single_voxel((1, 1, 1), (0, 0, 0))
        c = mk(np.zeros((1, 1, 1)))
        assert not fuse([a, b, c], FusionStrategy.OLP).data[0, 0, 0]
        assert fuse([a, b, c], FusionStrategy.AVG).data[0, 0, 0]  # 2/3 > 0.5
        assert fuse([a, b, c], FusionStrategy.LC).data[0, 0, 0]

    def test_even_count_tie_excluded(self):
        on = single_voxel((1, 1, 1), (0, 0, 0))
        off = mk(np.zeros((1, 1, 1)))
        fused = fuse([on, on, off, off], FusionStrategy.AVG)
        assert not fused.data[0, 0, 0]  # 2/4 is not > 0.5

    def test_ordering_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ms = [mk(rng.random((6, 6, 6)) < 0.5) for _ in range(3)]
            olp = fuse(ms, FusionStrategy.OLP).data
            avg = fuse(ms, FusionStrategy.AVG).data
            lc = fuse(ms, FusionStrategy.LC).data
            assert np.all(olp <= avg) and np.all(avg <= lc)
            # two masks: each voxel counts in OLP and LC as often as in A and B, and
            # a strict majority of two is both
            a, b = ms[:2]
            olp, avg, lc = (fuse([a, b], strategy).data for strategy in FusionStrategy)
            assert olp.sum() + lc.sum() == a.voxel_count + b.voxel_count
            assert np.array_equal(avg, olp)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        ms = [mk(rng.random((4, 4, 4)) < 0.4) for _ in range(4)]
        for strategy in FusionStrategy:
            ref = fuse(ms, strategy).data
            assert np.array_equal(fuse(ms[::-1], strategy).data, ref)

    @pytest.mark.parametrize("n", [1, 2, 254, 255, 256, 300])
    def test_avg_equals_the_direct_vote_count(self, n):
        # each voxel gets a chosen number of votes: none, all, and every count at and
        # next to half, so a vote count that wraps or a threshold off by one shows
        votes = np.array(sorted({0, n, max(n // 2 - 1, 0), n // 2, min(n // 2 + 1, n),
                                 (n + 1) // 2, n - 1}))
        rng = np.random.default_rng(n)
        chosen = np.stack([rng.permutation(n) < v for v in votes], axis=1)  # (n, voxels)
        ms = [mk(row.reshape(1, 1, -1)) for row in chosen]
        direct = np.sum([m.data for m in ms], axis=0, dtype=np.int64) * 2 > n
        assert np.array_equal(direct.ravel(), votes * 2 > n)
        assert np.array_equal(fuse(ms, FusionStrategy.AVG).data, direct)

    def test_errors(self):
        with pytest.raises(ValueError):
            fuse([], FusionStrategy.OLP)
        a = mk(np.zeros((2, 2, 2)))
        b = mk(np.zeros((2, 2, 3)))
        message = "mask 2 grid (2, 2, 3)/(1, 1, 1) does not match mask 1 grid (2, 2, 2)/(1, 1, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fuse([a, b], FusionStrategy.OLP)


class TestDice:
    def test_identity(self):
        m = single_voxel((3, 3, 3), (1, 1, 1))
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = single_voxel((3, 3, 3), (0, 0, 0))
        b = single_voxel((3, 3, 3), (2, 2, 2))
        assert dice(a, b) == 0.0

    def test_counting_example(self):
        a = np.zeros((2, 2, 2), dtype=bool)
        b = np.zeros((2, 2, 2), dtype=bool)
        a.ravel()[[0, 1, 2]] = True
        b.ravel()[[1, 2, 3]] = True
        d = dice(mk(a), mk(b))
        assert d == pytest.approx(2 * 2 / 6)
        assert type(d) is float  # not a numpy scalar, which prints differently

    def test_both_empty_is_one(self):
        e = mk(np.zeros((2, 2, 2)))
        assert dice(e, e) == 1.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = mk(rng.random((5, 5, 5)) < 0.4)
            b = mk(rng.random((5, 5, 5)) < 0.4)
            d = dice(a, b)
            assert 0.0 <= d <= 1.0
            assert d == dice(b, a)


class TestHausdorff:
    def test_identical_masks_zero(self):
        m = single_voxel((3, 3, 3), (1, 2, 0), ANISO)
        assert hausdorff(m, m) == 0.0

    def test_three_voxels_apart_along_x(self):
        a = single_voxel((1, 1, 5), (0, 0, 0), ANISO)
        b = single_voxel((1, 1, 5), (0, 0, 3), ANISO)
        assert hausdorff(a, b) == pytest.approx(3 * 2.07, abs=1e-12)

    def test_dilation_by_one_at_unit_spacing(self):
        inner = np.zeros((7, 7, 7), dtype=bool)
        inner[2:5, 2:5, 2:5] = True
        a = mk(inner)
        b = mk(binary_dilation(inner, generate_binary_structure(3, 1)))
        assert hausdorff(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_empty_mask_rejected(self):
        a = single_voxel((2, 2, 2), (0, 0, 0))
        e = mk(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="undefined for an empty mask"):
            hausdorff(a, e)
        with pytest.raises(ValueError, match="undefined for an empty mask"):
            hausdorff(e, a)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
            a = rng.random(dims) < 0.3
            b = rng.random(dims) < 0.3
            if not a.any() or not b.any():
                continue
            got = hausdorff(mk(a, ANISO), mk(b, ANISO))
            want = brute_hausdorff(a, b, ANISO.as_tuple())
            assert got == want  # bit-exact, both go min-of-squared then sqrt

    def test_matches_brute_force_on_lattice_ties(self):
        # isotropic spacing ties offsets such as (0,3,4) and (0,5,0), which a
        # 1.1 mm step rounds differently; sparse masks put the farthest voxels
        # many steps from their nearest neighbours
        iso = VoxelSpacing(1.1, 1.1, 1.1)
        rng = np.random.default_rng(7)
        for trial in range(40):
            dims = tuple(int(d) for d in rng.integers(2, 11, size=3))
            density = 0.3 if trial % 2 else 0.03
            a = rng.random(dims) < density
            b = rng.random(dims) < density
            if not a.any() or not b.any():
                continue
            got = hausdorff(mk(a, iso), mk(b, iso))
            assert got == brute_hausdorff(a, b, iso.as_tuple())

    @pytest.mark.parametrize("spacing", [ISO, ANISO], ids=["1.1 iso", "paper"])
    @pytest.mark.parametrize("layout", ["a in b", "b in a", "opposite corners", "overlapping"])
    def test_off_origin_sub_boxes_match_brute_force_exactly(self, spacing, layout):
        # masks confined to sub-boxes of a larger grid, away from its origin, so
        # the distance transform runs on a box offset from the grid's corner
        rng = np.random.default_rng(["a in b", "b in a", "opposite corners",
                                     "overlapping"].index(layout))

        def in_box(dims, lo, hi, density):
            m = np.zeros(dims, dtype=bool)
            box = tuple(slice(l, h) for l, h in zip(lo, hi))
            m[box] = rng.random(m[box].shape) < density
            return m

        for trial in range(25):
            dims = tuple(int(d) for d in rng.integers(6, 14, size=3))
            density = 0.05 if trial % 2 else 0.4
            lo = [int(rng.integers(1, d // 2)) for d in dims]
            hi = [int(rng.integers(l + 1, d)) for l, d in zip(lo, dims)]
            if layout == "opposite corners":
                a = in_box(dims, [0, 0, 0], [d // 3 for d in dims], density)
                b = in_box(dims, [d - d // 3 for d in dims], dims, density)
            else:
                a = in_box(dims, lo, hi, density)
                b = in_box(dims, lo, hi, density)
                if layout == "a in b":
                    b |= a
                elif layout == "b in a":
                    a |= b
                else:
                    shift = [int(rng.integers(-2, 3)) for _ in dims]
                    b = in_box(dims, [max(0, l + t) for l, t in zip(lo, shift)],
                               [min(d, h + t) for h, t, d in zip(hi, shift, dims)], density)
            if not a.any() or not b.any():
                continue
            got = hausdorff(mk(a, spacing), mk(b, spacing))
            assert got == brute_hausdorff(a, b, spacing.as_tuple()), trial

    @pytest.mark.parametrize("far_voxel", [False, True], ids=["stage 1 only", "both stages"])
    def test_transform_runs_only_past_one_slice_step(self, monkeypatch, far_voxel):
        # every voxel a boundary flip adds or removes lies within one slice step
        # (7.2 mm) of the other mask, so the lattice search settles it; a voxel
        # of A 12.6 mm from B takes one transform, for A -> B only
        ref = phantom.ellipsoid_mask((4, 16, 16), ANISO, (0.4, 0.4, 0.4))
        auto = phantom.boundary_flip(ref, 0.3, seed=1).data.copy()
        auto[0, 0, 0] |= far_voxel
        transform, calls = ndimage.distance_transform_edt, []

        def counted(*args, **kwargs):
            calls.append(args[0])
            if len(calls) > far_voxel:
                raise AssertionError("distance transform called")
            return transform(*args, **kwargs)

        monkeypatch.setattr(masks.ndimage, "distance_transform_edt", counted)
        assert hausdorff(mk(auto, ANISO), ref) == brute_hausdorff(auto, ref.data,
                                                                 ANISO.as_tuple())
        assert len(calls) == far_voxel
        if far_voxel:  # run on B = ref, over the box of B and the far voxel
            assert np.array_equal(calls[0], ~ref.data[:, :14, :14])

    def test_symmetry_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = rng.random((4, 4, 4)) < 0.4
            b = rng.random((4, 4, 4)) < 0.4
            if not a.any() or not b.any():
                continue
            ma, mb = mk(a), mk(b)
            assert hausdorff(ma, mb) == hausdorff(mb, ma)
            if np.array_equal(a, b):
                assert hausdorff(ma, mb) == 0.0
            else:
                assert hausdorff(ma, mb) > 0.0

    def test_dice_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            a = rng.random((6, 6, 6)) < 0.35
            b = rng.random((6, 6, 6)) < 0.35
            assert dice(mk(a), mk(b)) == brute_dice(a, b)
