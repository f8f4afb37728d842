import numpy as np
import pytest

from ivimlab import ivim, phantom

DIMS = (4, 12, 12)


def config(**kwargs):
    return phantom.PhantomConfig(dims=DIMS, **kwargs)


class TestNoiselessRecovery:
    def test_fit_recovers_truth_on_every_masked_voxel(self):
        bundle = phantom.make_phantom(config(
            s0=phantom.LinearGradient(80.0, 120.0, axis=2),
            f=phantom.TwoRegion(0.2, 0.35, axis=1),
            d_star=0.05, d=phantom.LinearGradient(0.0015, 0.0025, axis=0)))
        maps = ivim.fit_volume(bundle.series, bundle.mask)
        m = bundle.mask.data
        assert m.sum() > 50
        assert np.array_equal(maps.mask.data, m)
        for name in ("s0", "f", "d_star", "adc"):
            got, want = getattr(maps, name).data[m], getattr(bundle.truth, name).data[m]
            rel = np.abs(got - want) / np.abs(want)
            assert rel.max() < 1e-4, (name, float(rel.max()))


class TestSeeding:
    @pytest.mark.parametrize("model", ["gaussian", "rician"])
    def test_deterministic_per_seed_and_seed_dependent(self, model):
        a = phantom.make_phantom(config(noise_model=model, snr=20.0, seed=1))
        b = phantom.make_phantom(config(noise_model=model, snr=20.0, seed=1))
        c = phantom.make_phantom(config(noise_model=model, snr=20.0, seed=2))
        assert a.series.data.tobytes() == b.series.data.tobytes()
        assert not np.array_equal(a.series.data, c.series.data)


class TestLayout:
    def test_rician_is_non_negative_and_frame_major(self):
        cfg = config(noise_model="rician", snr=5.0, seed=3)
        series = phantom.make_phantom(cfg).series
        assert series.data.shape == (len(cfg.bvalues), *DIMS)
        assert series.data.min() >= 0.0
        assert np.array_equal(series.bvalues, cfg.bvalues)

    def test_noiseless_signal_is_zero_outside_the_mask(self):
        bundle = phantom.make_phantom(config())
        assert not bundle.series.data[:, ~bundle.mask.data].any()
        m = bundle.mask.data
        assert np.allclose(bundle.series.data[0][m], bundle.truth.s0.data[m],
                           rtol=1e-15, atol=0.0)


class TestAddNoise:
    @pytest.mark.parametrize("snr", [0.0, -5.0, float("nan")])
    def test_rejects_snr_that_is_not_positive(self, snr):
        bundle = phantom.make_phantom(config())
        with pytest.raises(ValueError, match="snr"):
            phantom.add_noise(bundle.series, bundle.mask, "gaussian", snr)
