import numpy as np
import pytest

from ivimlab.grid import (BinaryMask, DwiSeries, IvimMaps, VoxelSpacing, Volume3D,
                          average_by_bvalue)

SP = VoxelSpacing(7.20, 2.07, 2.07)
UNIT = VoxelSpacing(1.0, 1.0, 1.0)


def make_series(bvals, values, spacing=UNIT, dims=(2, 2, 2)):
    data = np.stack([np.full(dims, v, dtype=float) for v in values])
    return DwiSeries(data, spacing, np.asarray(bvals, dtype=float))


class TestVoxelSpacing:
    def test_voxel_volume(self):
        assert SP.voxel_volume_mm3 == pytest.approx(7.20 * 2.07 * 2.07)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, float("nan"))])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            VoxelSpacing(*bad)


class TestVolume3D:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="dims must be three positive integers"):
            Volume3D(np.zeros((0, 2, 2)), UNIT)
        with pytest.raises(ValueError, match="dims must be three positive integers"):
            Volume3D(np.zeros((2, 2)), UNIT)

    def test_data_frozen(self):
        vol = Volume3D(np.zeros((2, 2, 2)), UNIT)
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0


class TestIvimMaps:
    VALID = {"s0": 100.0, "f": 0.3, "d_star": 0.05, "adc": 0.002, "residual": 0.01}

    def maps(self, **inside):
        """2x2x2 maps, masked but for voxel (1, 1, 1); ``inside`` sets the masked values."""
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[1, 1, 1] = False
        vols = {}
        for name, valid in self.VALID.items():
            data = np.full((2, 2, 2), np.nan)
            data[mask] = inside.get(name, valid)
            vols[name] = Volume3D(data, UNIT)
        return IvimMaps(**vols, mask=BinaryMask(mask, UNIT))

    def test_valid_maps_and_the_bounds_themselves_pass(self):
        self.maps()
        self.maps(f=0.0, d_star=0.002, residual=0.0)
        self.maps(f=1.0)

    @pytest.mark.parametrize("name, value", [
        ("f", -0.01), ("f", 1.01), ("f", float("nan")), ("adc", 0.0), ("adc", -1e-3),
        ("d_star", 0.0019), ("s0", 0.0), ("s0", -5.0), ("residual", -1e-9),
    ])
    def test_rejects_each_invariant_broken_alone(self, name, value):
        with pytest.raises(ValueError, match="violate"):
            self.maps(**{name: value})

    def test_values_outside_the_mask_are_free(self):
        maps = self.maps()
        data = maps.f.data.copy()
        data[1, 1, 1] = 7.0
        IvimMaps(s0=maps.s0, f=Volume3D(data, UNIT), d_star=maps.d_star, adc=maps.adc,
                 residual=maps.residual, mask=maps.mask)


class TestMaskVolume:
    def test_empty_mask_zero_ml(self):
        mask = BinaryMask(np.zeros((4, 4, 4), dtype=bool), SP)
        assert mask.volume_ml == 0.0

    def test_thousand_voxels_paper_spacing(self):
        data = np.zeros((10, 10, 10), dtype=bool)
        data[:] = True
        mask = BinaryMask(data, SP)
        assert mask.volume_ml == pytest.approx(30.85128, abs=1e-9)

    def test_unit_voxel(self):
        data = np.zeros((1, 1, 1), dtype=bool)
        data[0, 0, 0] = True
        assert BinaryMask(data, UNIT).volume_ml == pytest.approx(0.001)

    def test_additive_over_disjoint_masks(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.random((5, 6, 7)) < 0.3
            b = (rng.random((5, 6, 7)) < 0.3) & ~a
            va = BinaryMask(a, SP).volume_ml
            vb = BinaryMask(b, SP).volume_ml
            vu = BinaryMask(a | b, SP).volume_ml
            assert vu == pytest.approx(va + vb, rel=1e-12)


class TestDwiSeries:
    def test_requires_b0(self):
        with pytest.raises(ValueError, match="b=0"):
            make_series([100, 200], [1.0, 1.0])
        with pytest.raises(ValueError, match="b=0"):  # b=0 means exactly 0
            make_series([1e-12, 200], [1.0, 1.0])

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError, match="one frame per b-value"):
            make_series([0, 100, 200], [1.0, 1.0])

    def test_requires_4d_array(self):
        # one array cannot hold frames on different grids; its shape is checked
        for shape, message in [((2, 2, 2), "one frame per b-value"),
                               ((2, 2, 2, 2, 1), "one frame per b-value"),
                               ((2, 0, 2, 2), "dims must be three positive integers")]:
            with pytest.raises(ValueError, match=message):
                DwiSeries(np.zeros(shape), UNIT, np.array([0.0, 100.0]))

    def test_frames_are_views_of_data(self):
        s = make_series([0, 100], [1.0, 2.0])
        assert s.stacked() is s.data
        assert [np.shares_memory(fr.data, s.data) for fr in s.frames] == [True, True]
        assert s.frames[1].data.tolist() == s.data[1].tolist()
        with pytest.raises(ValueError):
            s.data[0, 0, 0, 0] = 5.0


class TestAverageByBvalue:
    def test_identical_frames_collapse(self):
        s = make_series([0, 0], [5.0, 5.0])
        out = average_by_bvalue(s)
        assert out.n_frames == 1
        assert np.all(out.frames[0].data == 5.0)

    def test_arithmetic_mean(self):
        s = make_series([0, 200, 200], [1.0, 10.0, 20.0])
        out = average_by_bvalue(s)
        assert list(out.bvalues) == [0.0, 200.0]
        assert np.all(out.frames[1].data == 15.0)

    def test_identity_when_already_averaged(self):
        s = make_series([600, 0, 100], [3.0, 1.0, 2.0])
        out = average_by_bvalue(s)
        assert list(out.bvalues) == [0.0, 100.0, 600.0]
        assert np.all(out.frames[0].data == 1.0)
        assert np.all(out.frames[2].data == 3.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        s = DwiSeries(rng.random((6, 3, 3, 3)), UNIT, np.array([0, 0, 100, 100, 100, 400.0]))
        once = average_by_bvalue(s)
        twice = average_by_bvalue(once)
        assert list(once.bvalues) == list(twice.bvalues)
        assert np.array_equal(once.data, twice.data)

    def test_shells_are_equal_b_values(self):
        b = np.nextafter(100.0, 200.0)  # one ulp above 100
        s = make_series([0, 100, b, 0], [1.0, 2.0, 4.0, 3.0])
        out = average_by_bvalue(s)
        assert list(out.bvalues) == [0.0, 100.0, b]
        assert [fr.data[0, 0, 0] for fr in out.frames] == [2.0, 2.0, 4.0]

    def test_preserves_grid_and_bvalue_set(self):
        rng = np.random.default_rng(4)
        s = DwiSeries(rng.random((4, 2, 3, 4)), SP, np.array([100, 0, 100, 600.0]))
        out = average_by_bvalue(s)
        assert out.dims == s.dims
        assert out.spacing == s.spacing
        assert set(out.bvalues) == set(s.bvalues)
