import numpy as np
import pytest
from scipy.ndimage import binary_dilation, generate_binary_structure

from ivimlab.grid import BinaryMask, VoxelSpacing
from ivimlab.masks import FusionStrategy, dice, fuse, hausdorff

from oracles import brute_dice, brute_hausdorff

UNIT = VoxelSpacing(1.0, 1.0, 1.0)
ANISO = VoxelSpacing(7.2, 2.07, 2.07)


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

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        ms = [mk(rng.random((4, 4, 4)) < 0.4) for _ in range(4)]
        for strategy in FusionStrategy:
            ref = fuse(ms, strategy).data
            assert np.array_equal(fuse(ms[::-1], strategy).data, ref)

    def test_errors(self):
        with pytest.raises(ValueError):
            fuse([], FusionStrategy.OLP)
        a = mk(np.zeros((2, 2, 2)))
        b = mk(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="masks must share dims and spacing"):
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
        assert dice(mk(a), mk(b)) == pytest.approx(2 * 2 / 6)

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
