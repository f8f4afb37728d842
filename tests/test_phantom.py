import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from ivimlab import ivim, phantom
from ivimlab.grid import BinaryMask, VoxelSpacing

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


class TestNoiseOracle:
    @pytest.mark.parametrize("model, snr, seed", [
        ("gaussian", 20.0, 3), ("rician", 30.0, 1), ("rician", 2.0, 5),
    ])
    def test_series_is_the_clean_series_with_the_seeded_draws(self, model, snr, seed):
        # two b=0 frames and a varying s0, so the sd is a mean over both frames
        cfg = config(bvalues=(0.0, 10.0, 0.0, 200.0, 600.0),
                     s0=phantom.LinearGradient(60.0, 140.0, axis=2),
                     noise_model=model, snr=snr, seed=seed)
        bundle = phantom.make_phantom(cfg)
        clean = phantom.make_phantom(dataclasses.replace(cfg, noise_model="none")).series
        sd = float(clean.data[clean.bvalues == 0][:, bundle.mask.data].mean()) / snr
        rng = np.random.default_rng(seed)
        n1 = rng.normal(0.0, sd, clean.data.shape)
        n2 = rng.normal(0.0, sd, clean.data.shape)
        if model == "gaussian":
            want = clean.data + n1
        else:
            want = np.sqrt((clean.data + n1) ** 2 + n2**2)
        assert bundle.series.data.tobytes() == want.tobytes()


class TestOneCopy:
    def test_rician_peak_memory_is_the_series_plus_one_draw(self):
        # the segmentation-paper b-values: two b=0 frames, three directions per shell; the
        # noise is drawn one frame at a time, so no draw in the series' shape is held
        bvalues = (0.0, 0.0) + tuple(b for b in phantom.DEFAULT_BVALUES[1:] for _ in range(3))
        cfg = phantom.PhantomConfig(dims=(8, 64, 64), bvalues=bvalues,
                                    noise_model="rician", snr=30.0)
        tracemalloc.start()
        try:
            bundle = phantom.make_phantom(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bundle.series.bvalues) == 23
        assert peak <= 1.6 * bundle.series.data.nbytes, peak / bundle.series.data.nbytes


class TestConfigChecks:
    # a --config file can no longer carry these values (strict JSON), so the class checks them
    @pytest.mark.parametrize("kwargs, key", [
        ({"semi_axes_frac": (float("nan"), 0.4, 0.4)}, "semi_axes_frac"),
        ({"noise_model": "rician", "snr": float("inf")}, "snr"),
        ({"snr": float("inf")}, "snr"),
        ({"snr": float("nan")}, "snr"),
    ])
    def test_non_finite_values_rejected(self, kwargs, key):
        with pytest.raises(ValueError, match=key):
            config(**kwargs)

    @pytest.mark.parametrize("snr", [0.0, -5.0, float("nan")])
    def test_rejects_snr_that_is_not_positive(self, snr):
        with pytest.raises(ValueError, match="snr"):
            config(noise_model="gaussian", snr=snr)


class TestBoundaryBand:
    @pytest.mark.parametrize("dims", [(5, 6, 7), (1, 6, 7), (5, 1, 7), (5, 6, 1), (1, 1, 4),
                                      (1, 1, 1)])
    def test_equals_scipy_erosion_and_dilation(self, dims):
        # the 6-neighbour band, with the grid border as background (border_value=0);
        # dense masks touch every face of the grid
        six = ndimage.generate_binary_structure(3, 1)
        rng = np.random.default_rng(len(dims) * 100 + sum(dims))
        for density in (0.05, 0.3, 0.7, 0.95, 1.0):
            for _ in range(10):
                m = rng.random(dims) < density
                inner = m & ~ndimage.binary_erosion(m, six, border_value=0)
                outer = ~m & ndimage.binary_dilation(m, six, border_value=0)
                band = phantom.boundary_band(BinaryMask(m, VoxelSpacing(1.0, 1.0, 1.0)))
                assert np.array_equal(band, inner | outer), (density, m)
