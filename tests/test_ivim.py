import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivimlab import ivim, lm, phantom, report
from ivimlab.grid import BinaryMask, DwiSeries, IvimMaps, VoxelSpacing, Volume3D
from ivimlab.phantom import DEFAULT_BVALUES

CFG = ivim.IvimFitConfig()


def captured_problems(monkeypatch, fit) -> list[lm.FitProblem]:
    """Every FitProblem that ``fit()`` hands to the solver, which reports no fit."""
    problems = []

    def capture(problem):
        problems.append(problem)
        return lm.FitResult(problem.theta0, float("nan"), 0, False, "captured")

    monkeypatch.setattr(lm, "lm_fit", capture)
    fit()
    return problems


def assert_jacobian_matches_central_differences(problem: lm.FitProblem, theta):
    """Each Jacobian row against the central difference over an imaginary step.

    With a step of i*h, r(theta + i h e_k) and r(theta - i h e_k) are complex
    conjugates, so their difference holds no cancelled real part: a real
    step loses digits when the residual is large next to the part that
    varies with one parameter.
    """
    theta = np.asarray(theta, dtype=float)
    J = problem.jacobian(theta)
    assert J.shape == (theta.size, problem.residual(theta).size)
    for i, row in enumerate(J):
        h = 1e-20j * theta[i]
        up, um = theta.astype(complex), theta.astype(complex)
        up[i] += h
        um[i] -= h
        central = ((problem.residual(up) - problem.residual(um)) / (2 * h)).real
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


class TestOutcomeRule:
    """A voxel fails only for its data, never for where the solver stopped."""

    def test_unconverged_solver_estimates_are_kept(self, monkeypatch):
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 10, 10), noise_model="rician", snr=30.0, seed=5))
        plain = ivim.fit_volume(bundle.series, bundle.mask)
        solve = lm.lm_fit

        def out_of_budget(problem):
            return dataclasses.replace(solve(problem), converged=False, reason="max_iter reached")

        monkeypatch.setattr(lm, "lm_fit", out_of_budget)
        stopped = ivim.fit_volume(bundle.series, bundle.mask)
        assert np.array_equal(stopped.mask.data, plain.mask.data)
        for name in ("s0", "f", "d_star", "adc", "residual"):
            assert getattr(stopped, name).data.tobytes() == getattr(plain, name).data.tobytes()

    def test_fitted_mask_is_the_mask_minus_the_data_failures(self):
        # this draw holds one voxel whose IVIM step stops at the solver's max_iter
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 8, 8), noise_model="rician", snr=30.0, seed=23))
        b = bundle.series.bvalues
        data = bundle.series.data.copy()
        nan_at, zero_tail_at, zero_b0_at = (tuple(v) for v in np.argwhere(bundle.mask.data)[:3])
        data[(2, *nan_at)] = np.nan
        data[(b > CFG.b_threshold, *zero_tail_at)] = 0.0
        data[(b == 0, *zero_b0_at)] = 0.0
        series = DwiSeries(data, bundle.series.spacing, b)

        maps = ivim.fit_volume(series, bundle.mask, CFG)

        # the three failure reasons, read straight off each voxel's samples
        s = data[:, bundle.mask.data]
        high = b > CFG.b_threshold
        failed = (~np.isfinite(s).all(axis=0)
                  | np.array([np.unique(b[high & (col > 0)]).size < 2 for col in s.T])
                  | ~(s[b == 0].mean(axis=0) > 0))
        expected = bundle.mask.data.copy()
        expected[bundle.mask.data] = ~failed
        assert {nan_at, zero_tail_at, zero_b0_at} == {tuple(v) for v in
                                                    np.argwhere(bundle.mask.data & ~expected)}
        assert np.array_equal(maps.mask.data, expected)
        m = maps.mask.data
        for name in ("s0", "f", "d_star", "adc", "residual"):
            vol = getattr(maps, name).data
            assert np.isfinite(vol[m]).all() and np.isnan(vol[~m]).all(), name
        adc, d_star, f = maps.adc.data[m], maps.d_star.data[m], maps.f.data[m]
        assert ((ivim.ADC_MIN <= adc) & (adc <= ivim.ADC_MAX)).all()
        assert ((adc < d_star) & (d_star <= ivim.D_STAR_MAX)).all()
        assert ((0 <= f) & (f <= 1)).all() and (maps.s0.data[m] > 0).all()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_mask_fits_nothing(self, workers):
        bundle = phantom.make_phantom(phantom.PhantomConfig(dims=(3, 8, 8)))
        empty = BinaryMask(np.zeros(bundle.mask.dims, dtype=bool), bundle.mask.spacing)
        maps = ivim.fit_volume(bundle.series, empty, workers=workers)
        assert maps.mask.voxel_count == 0
        for name in ("s0", "f", "d_star", "adc", "residual"):
            assert np.isnan(getattr(maps, name).data).all(), name

    def test_workers_below_one_rejected(self):
        bundle = phantom.make_phantom(phantom.PhantomConfig(dims=(3, 8, 8)))
        with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
            ivim.fit_volume(bundle.series, bundle.mask, workers=0)


class TestDStarBound:
    def test_noisy_voxel_stays_below_the_bound(self):
        # this Rician draw sent D* to 2.7e75 through a transform with no upper bound
        b = np.asarray(DEFAULT_BVALUES, dtype=float)
        truth = 100.0 * (0.15 * np.exp(-0.08 * b) + 0.85 * np.exp(-0.002 * b))
        rng = np.random.default_rng(3)
        sd = 100.0 / 30.0
        real, imag = truth + rng.normal(0, sd, b.size), rng.normal(0, sd, b.size)
        sig = ivim.VoxelSignal(b, np.sqrt(real**2 + imag**2))
        adc = ivim.fit_adc(sig, CFG).adc
        fit = ivim.fit_ivim(sig, adc, CFG)
        assert fit is not None
        assert adc < fit.d_star <= ivim.D_STAR_MAX

    @pytest.mark.parametrize("adc", [0.0, ivim.D_STAR_MAX, np.nan])
    def test_adc_outside_the_d_star_range_rejected(self, adc):
        b = np.asarray(DEFAULT_BVALUES, dtype=float)
        sig = ivim.VoxelSignal(b, 100.0 * np.exp(-0.002 * b))
        with pytest.raises(ValueError, match="adc must lie in"):
            ivim.fit_ivim(sig, adc, CFG)


class TestFixedBox:
    def test_the_b_threshold_is_the_one_setting(self):
        assert [f.name for f in dataclasses.fields(ivim.IvimFitConfig)] == ["b_threshold"]
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError, match="b_threshold"):
                ivim.IvimFitConfig(bad)

    @pytest.mark.parametrize("adc, hit", [
        (ivim.ADC_MIN, True), (ivim.ADC_MIN * 1.005, True), (ivim.ADC_MIN * 1.01, True),
        (np.nextafter(ivim.ADC_MIN * 1.01, 1.0), False), (2e-3, False),
        (np.nextafter(ivim.ADC_MAX / 1.01, 0.0), False), (ivim.ADC_MAX / 1.01, True),
        (ivim.ADC_MAX / 1.005, True), (ivim.ADC_MAX, True),
    ])
    def test_boundary_hits_are_within_1_percent_of_an_adc_end(self, adc, hit):
        # the second voxel is unfitted: NaN, outside the mask, never a hit
        spacing = VoxelSpacing(1.0, 1.0, 1.0)

        def vol(v):
            return Volume3D(np.array([[[v, np.nan]]]), spacing)

        maps = IvimMaps(s0=vol(100.0), f=vol(0.1), d_star=vol(ivim.D_STAR_MAX), adc=vol(adc),
                        residual=vol(0.0), mask=BinaryMask(np.array([[[True, False]]]), spacing))
        assert ivim.boundary_hits(maps) == int(hit)


class TestModelJacobians:
    """Both fit steps' analytic Jacobians against central differences of their residuals."""

    @settings(max_examples=60, deadline=None)
    @given(s0=st.floats(1.0, 1e4), f=st.floats(0.0, 1.0).filter(lambda v: 0.001 < v < 0.999),
           adc=st.floats(ivim.ADC_MIN, ivim.ADC_MAX), d_star_frac=st.floats(0.01, 0.99))
    def test_match_central_differences(self, s0, f, adc, d_star_frac):
        d_star = adc + d_star_frac * (1.0 - adc)  # between the ADC and 1
        b = np.asarray(DEFAULT_BVALUES, dtype=float)
        sig = ivim.VoxelSignal(b, s0 * (f * np.exp(-d_star * b) + (1 - f) * np.exp(-adc * b)))
        with pytest.MonkeyPatch.context() as mp:
            adc_problem, = captured_problems(mp, lambda: ivim.fit_adc(sig, CFG))
            ivim_problem, = captured_problems(mp, lambda: ivim.fit_ivim(sig, adc, CFG))
        assert_jacobian_matches_central_differences(adc_problem, (s0, adc))
        assert_jacobian_matches_central_differences(ivim_problem, (s0, f, d_star))


class TestSummarize:
    def test_metrics_match_direct_computation_over_fitted_voxels(self):
        rng = np.random.default_rng(2)
        spacing = VoxelSpacing(2.0, 1.5, 1.5)
        fitted = rng.random((3, 6, 6)) < 0.6
        adc = rng.uniform(1e-3, 3e-3, fitted.shape)
        vols = {"s0": rng.uniform(50, 150, fitted.shape), "f": rng.uniform(0, 1, fitted.shape),
                "d_star": adc + rng.uniform(0.01, 0.1, fitted.shape), "adc": adc,
                "residual": rng.uniform(0, 0.1, fitted.shape)}
        for v in vols.values():
            v[~fitted] = np.nan
        maps = IvimMaps(**{k: Volume3D(v, spacing) for k, v in vols.items()},
                        mask=BinaryMask(fitted, spacing))

        got = ivim.summarize(maps)

        assert list(got) == list(report.ALL_METRICS)
        assert got["volume_ml"] == fitted.sum() * 2.0 * 1.5 * 1.5 / 1000.0
        for name, v in vols.items():
            x = v[fitted]
            assert got[f"{name}_mean"] == pytest.approx(x.mean(), rel=1e-12)
            if name != "residual":
                assert got[f"{name}_cv"] == pytest.approx(x.std() / x.mean(), rel=1e-12)
            if name in ("f", "d_star", "adc"):
                p = np.histogram(x, bins=ivim.ENTROPY_BINS)[0] / x.size
                p = p[p > 0]
                assert got[f"{name}_entropy"] == pytest.approx(-(p * np.log2(p)).sum())

    def test_none_when_nothing_was_fitted(self):
        # a CV needs two values, so one fitted voxel is too few as well
        bundle = phantom.make_phantom(phantom.PhantomConfig(dims=(3, 8, 8)))
        truth = bundle.truth
        for n_fitted in (0, 1):
            fitted = np.zeros(bundle.mask.dims, dtype=bool)
            fitted[tuple(np.argwhere(bundle.mask.data)[:n_fitted].T)] = True
            maps = IvimMaps(s0=truth.s0, f=truth.f, d_star=truth.d_star, adc=truth.adc,
                            residual=truth.residual,
                            mask=BinaryMask(fitted, bundle.mask.spacing))
            assert ivim.summarize(maps) is None, n_fitted

    def test_none_when_every_fitted_f_is_zero(self):
        # f's CV is undefined at a zero mean; S0, D* and ADC are positive by the fit's box
        truth = phantom.make_phantom(phantom.PhantomConfig(dims=(3, 8, 8), f=0.0)).truth
        assert truth.mask.voxel_count >= 2 and ivim.summarize(truth) is None
