import numpy as np
import pytest

from ivimlab import ivim, phantom
from ivimlab.grid import BinaryMask, DwiSeries


def with_bad_sample(series: DwiSeries, frame: int, at, value: float) -> DwiSeries:
    data = series.data.copy()
    data[(frame, *at)] = value
    return DwiSeries(data, series.spacing, series.bvalues)


class TestNonFiniteSamples:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("bvalue", [0.0, 400.0])
    def test_bad_voxel_fails_alone(self, value, bvalue):
        bundle = phantom.make_phantom(phantom.PhantomConfig(dims=(3, 8, 8)))
        frame = int(np.flatnonzero(bundle.series.bvalues == bvalue)[0])
        bad = tuple(np.argwhere(bundle.mask.data)[0])
        series = with_bad_sample(bundle.series, frame, bad, value)

        clean = ivim.fit_volume(bundle.series, bundle.mask)
        maps = ivim.fit_volume(series, bundle.mask)

        assert not maps.mask.data[bad]
        for vol in (maps.s0, maps.f, maps.d_star, maps.adc, maps.residual):
            assert np.isnan(vol.data[bad])
        others = clean.mask.data.copy()
        others[bad] = False
        assert np.array_equal(maps.mask.data, others)
        for name in ("s0", "f", "d_star", "adc", "residual"):
            got = getattr(maps, name).data[others]
            want = getattr(clean, name).data[others]
            assert np.array_equal(got, want)


class TestVisitOrderInvariance:
    @pytest.mark.parametrize("axes", [(2,), (0, 1, 2)], ids=["x", "xyz"])
    def test_flipped_input_gives_flipped_maps(self, axes):
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 10, 10), noise_model="rician", snr=30.0, seed=5))
        series_axes = tuple(a + 1 for a in axes)  # frame axis first
        flipped = ivim.fit_volume(
            DwiSeries(np.flip(bundle.series.data, series_axes), bundle.series.spacing,
                      bundle.series.bvalues),
            BinaryMask(np.flip(bundle.mask.data, axes), bundle.mask.spacing))
        plain = ivim.fit_volume(bundle.series, bundle.mask)
        assert np.array_equal(np.flip(plain.mask.data, axes), flipped.mask.data)
        for name in ("s0", "f", "d_star", "adc", "residual"):
            a = np.flip(getattr(plain, name).data, axes)
            b = getattr(flipped, name).data
            assert a.tobytes() == b.tobytes(), name


class TestWorkerInvariance:
    def test_two_workers_match_one_bit_for_bit(self):
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 10, 10), noise_model="rician", snr=30.0, seed=5))
        one = ivim.fit_volume(bundle.series, bundle.mask, workers=1)
        two = ivim.fit_volume(bundle.series, bundle.mask, workers=2)
        assert np.array_equal(one.mask.data, two.mask.data)
        for name in ("s0", "f", "d_star", "adc", "residual"):
            a, b = getattr(one, name).data, getattr(two, name).data
            assert a.tobytes() == b.tobytes(), name
