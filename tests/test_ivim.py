import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivimlab import ivim, lm, phantom
from ivimlab.grid import BinaryMask, DwiSeries
from ivimlab.phantom import DEFAULT_BVALUES

CFG = ivim.IvimFitConfig()


def captured_problems(monkeypatch, fit) -> list[lm.FitProblem]:
    """Every FitProblem that ``fit()`` hands to the solver, which reports no fit."""
    problems = []

    def capture(problem, opts=None):
        problems.append(problem)
        return lm.FitResult(problem.theta0, float("nan"), 0, False, "captured")

    monkeypatch.setattr(lm, "lm_fit", capture)
    fit()
    return problems


def assert_jacobian_matches_central_differences(problem: lm.FitProblem, theta):
    theta = np.asarray(theta, dtype=float)
    J = problem.jacobian(theta)
    assert J.shape == (theta.size, problem.residual(theta).size)
    for i, row in enumerate(J):
        h = 6e-6 * theta[i]  # about the cube root of the float64 epsilon, relative
        up, um = theta.copy(), theta.copy()
        up[i] += h
        um[i] -= h
        central = (problem.residual(up) - problem.residual(um)) / (2 * h)
        np.testing.assert_allclose(row, central, rtol=1e-5,
                                   atol=1e-5 * np.abs(row).max() + 1e-12)


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


# Rician voxels whose D* runs away warn in the residual (see ROADMAP items 1 and 6)
@pytest.mark.filterwarnings("default::RuntimeWarning")
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


@pytest.mark.filterwarnings("default::RuntimeWarning")
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


class TestModelJacobians:
    """Both fit steps' analytic Jacobians against central differences of their residuals."""

    @settings(max_examples=60, deadline=None)
    @given(s0=st.floats(1.0, 1e4), f=st.floats(*CFG.f_range).filter(lambda v: 0.001 < v < 0.999),
           adc=st.floats(*CFG.adc_range), d_star_frac=st.floats(0.01, 0.99))
    def test_match_central_differences(self, s0, f, adc, d_star_frac):
        d_star = adc + d_star_frac * (1.0 - adc)  # between the ADC and 1
        b = np.asarray(DEFAULT_BVALUES, dtype=float)
        sig = ivim.VoxelSignal(b, s0 * (f * np.exp(-d_star * b) + (1 - f) * np.exp(-adc * b)))
        with pytest.MonkeyPatch.context() as mp:
            adc_problem, = captured_problems(mp, lambda: ivim.fit_adc(sig, CFG))
            ivim_problem, = captured_problems(mp, lambda: ivim.fit_ivim(sig, adc, CFG))
        assert_jacobian_matches_central_differences(adc_problem, (s0, adc))
        assert_jacobian_matches_central_differences(ivim_problem, (s0, f, d_star))
