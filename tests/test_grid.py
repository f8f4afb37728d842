import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestFrozenViews:
    """A container's data are read-only; the caller's own arrays stay writeable."""

    @pytest.mark.parametrize("kind", ["volume", "mask", "series"])
    def test_caller_array_stays_writeable(self, kind):
        data = np.zeros((2, 2, 2, 2) if kind == "series" else (2, 2, 2),
                        dtype=bool if kind == "mask" else float)
        bvals = np.array([0.0, 400.0])
        made = {"volume": lambda: Volume3D(data, UNIT),
                "mask": lambda: BinaryMask(data, UNIT),
                "series": lambda: DwiSeries(data, UNIT, bvals)}[kind]()
        held = [made.data] + ([made.bvalues] if kind == "series" else [])
        for arr in held:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1
        for arr in (data, bvals):
            assert arr.flags.writeable
        data.flat[0] = 1
        bvals[1] = 600.0


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

    def test_voxel_count_is_a_python_int(self):
        # counts reach JSON output, which takes no numpy integer
        data = np.random.default_rng(3).random((5, 6, 7)) < 0.3
        count = BinaryMask(data, SP).voxel_count
        assert type(count) is int and count == int(data.sum())


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

    def test_float_data_is_kept_as_given_and_other_types_become_float64(self):
        bvals = np.array([0.0, 100.0])
        for dtype in (np.float32, np.float64):
            data = np.arange(16, dtype=dtype).reshape(2, 2, 2, 2)
            s = DwiSeries(data, UNIT, bvals)
            assert s.data.dtype == dtype and np.shares_memory(s.data, data)
        for dtype in (np.int16, np.uint8, np.float16, bool):
            data = np.ones((2, 2, 2, 2), dtype=dtype)
            s = DwiSeries(data, UNIT, bvals)
            assert s.data.dtype == np.float64 and np.array_equal(s.data, data)

    def test_float32_frames_are_float64_copies(self):
        s = DwiSeries(np.full((2, 2, 2, 2), 0.1, dtype=np.float32), UNIT, np.array([0.0, 100.0]))
        for fr, want in zip(s.frames, s.data):
            assert fr.data.dtype == np.float64 and not np.shares_memory(fr.data, s.data)
            assert fr.data.tobytes() == want.astype(np.float64).tobytes()


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

    @settings(max_examples=60, deadline=None)
    @given(bvals=st.lists(st.sampled_from([0.0, 10.0, 100.0, 600.0, 1000.0]), max_size=11)
           .flatmap(lambda b: st.permutations(b + [0.0])),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_per_shell_numpy_mean(self, bvals, seed):
        # interleaved, unsorted shells over values of very different magnitudes,
        # where any other summation order rounds differently
        rng = np.random.default_rng(seed)
        n = len(bvals)
        data = rng.normal(size=(n, 2, 3, 4)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1, 1, 1))
        s = DwiSeries(data, SP, np.array(bvals))
        out = average_by_bvalue(s)
        assert list(out.bvalues) == sorted(set(bvals))
        for frame, b in zip(out.data, out.bvalues):
            assert frame.tobytes() == data[np.array(bvals) == b].mean(axis=0).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(1, 4), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_float32_series_averages_as_its_frames_widened(self, counts, seed):
        # 1-4 frames in each of up to five shells, interleaved; each shell's sums must be
        # float64 sums of the widened frames, never float32 sums widened after
        rng = np.random.default_rng(seed)
        bvals = rng.permutation(np.repeat([0.0, 10.0, 100.0, 600.0, 1000.0][:len(counts)],
                                          counts))
        n = bvals.size
        data = (rng.normal(size=(n, 2, 3, 4)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1, 1, 1))
                ).astype(np.float32)
        out = average_by_bvalue(DwiSeries(data, SP, bvals))
        assert out.data.dtype == np.float64
        wide = data.astype(np.float64)
        for frame, b in zip(out.data, out.bvalues):
            assert frame.tobytes() == wide[bvals == b].mean(axis=0).tobytes()

    def test_float32_shell_sum_does_not_round_in_float32(self):
        # 1 + 2**-24 is a float32 tie that rounds to 1; in float64 it is exact
        data = np.stack([np.full((2, 2, 2), v, dtype=np.float32) for v in (1.0, 2.0**-24)])
        out = average_by_bvalue(DwiSeries(data, UNIT, np.array([0.0, 0.0])))
        assert np.all(out.data == 0.5 + 2.0**-25)

    def test_peak_memory_is_the_output_plus_one_frame(self):
        # the segmentation-paper shells: two b=0 frames, three directions on each other
        bvals = [0.0, 0.0] + [b for b in (10, 20, 50, 100, 200, 400, 600) for _ in range(3)]
        rng = np.random.default_rng(5)
        s = DwiSeries(rng.random((len(bvals), 4, 16, 16)), SP, np.array(bvals, dtype=float))
        tracemalloc.start()
        try:
            out = average_by_bvalue(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.n_frames == 8
        assert peak <= out.data.nbytes + s.data[0].nbytes, peak / s.data[0].nbytes
