import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from ivimlab import ivim, lm, phantom, report
from ivimlab.grid import (BinaryMask, DwiSeries, IvimMaps, VoxelSpacing, Volume3D,
                          average_by_bvalue)
from ivimlab.phantom import DEFAULT_BVALUES

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
    # 1e160 is finite, but its square is not: a float64 series can hold it
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e160])
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


class TestBlockInvariance:
    def test_maps_do_not_depend_on_the_search_block(self, monkeypatch):
        # a voxel's bits do not depend on the block of voxels a search evaluates with it
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 10, 10), noise_model="rician", snr=30.0, seed=5))
        per_voxel = (ivim._COARSE + 1) * np.unique(bundle.series.bvalues).size
        default = ivim.fit_volume(bundle.series, bundle.mask)
        for voxels in (1, 7):
            monkeypatch.setattr(ivim, "_BLOCK", voxels * per_voxel)
            maps = ivim.fit_volume(bundle.series, bundle.mask)
            assert np.array_equal(maps.mask.data, default.mask.data)
            for name in ("s0", "f", "d_star", "adc", "residual"):
                a, b = getattr(maps, name).data, getattr(default, name).data
                assert a.tobytes() == b.tobytes(), (voxels, name)


class TestPolishProblems:
    def test_volume_fit_hands_the_solver_each_voxels_problem(self, monkeypatch):
        # the block's rows of starts and bounds are the bytes a voxel fitted alone builds
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 10, 10), noise_model="rician", snr=30.0, seed=5))
        solve, in_volume = lm.lm_fit, []

        def recorded(problem):
            in_volume.append(problem)
            return solve(problem)

        monkeypatch.setattr(lm, "lm_fit", recorded)
        maps = ivim.fit_volume(bundle.series, bundle.mask)
        adc_problems = [p for p in in_volume if p.theta0.size == 2]
        ivim_problems = [p for p in in_volume if p.theta0.size == 3]
        voxels = np.argwhere(bundle.mask.data)
        assert len(adc_problems) == len(ivim_problems) == len(voxels) == maps.mask.voxel_count
        for at, adc_problem, ivim_problem in zip(voxels, adc_problems, ivim_problems):
            at = tuple(at)
            sig = ivim.VoxelSignal(bundle.series.bvalues,
                                   np.maximum(bundle.series.data[(slice(None), *at)], 0.0))
            alone, = captured_problems(monkeypatch, lambda: ivim.fit_adc(sig))
            alone_ivim, = captured_problems(monkeypatch,
                                            lambda: ivim.fit_ivim(sig, maps.adc.data[at]))
            for got, want in ((adc_problem, alone), (ivim_problem, alone_ivim)):
                for field in ("theta0", "lower", "upper"):
                    a, w = getattr(got, field), getattr(want, field)
                    assert a.dtype == w.dtype and a.tobytes() == w.tobytes(), (at, field)
                # the residual at the start checks the samples and exp(-ADC b) of the polish
                theta = want.theta0
                assert got.residual(theta).tobytes() == want.residual(theta).tobytes(), at


class TestSignalMatrix:
    def test_failing_rows_are_nan_and_the_rest_are_the_volume_fit(self):
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 10, 10), noise_model="rician", snr=30.0, seed=5))
        data, b = bundle.series.data.copy(), bundle.series.bvalues
        voxels = [tuple(at) for at in np.argwhere(bundle.mask.data)]
        data[(b == 0, *voxels[0])] = 0.0  # no positive b=0 sample
        data[(b > ivim.B_THRESHOLD, *voxels[40])] = 0.0  # no positive sample above the threshold
        data[(0, *voxels[41])] = np.nan
        data[(-1, *voxels[-1])] = 1e160  # its square overflows
        series = DwiSeries(data, bundle.series.spacing, b)

        averaged = average_by_bvalue(series)
        signals = np.maximum(averaged.data[:, bundle.mask.data].T, 0.0)
        usable = ivim._usable(averaged.bvalues, signals)
        assert np.flatnonzero(~usable).tolist() == [0, 40, 41, len(voxels) - 1]
        out = ivim._fit_signals(averaged.bvalues, signals)
        assert out.shape == (len(voxels), 5)
        assert np.isnan(out[~usable]).all() and np.isfinite(out[usable]).all()

        maps = ivim.fit_volume(series, bundle.mask)
        assert np.array_equal(maps.mask.data[bundle.mask.data], usable)
        for column, name in enumerate(("s0", "f", "d_star", "adc", "residual")):
            want = getattr(maps, name).data[bundle.mask.data]
            assert out[:, column].tobytes() == want.tobytes(), name


class TestSeriesAveraging:
    def test_repeated_b_values_fit_as_their_average(self):
        # twelve frames: two b=0 baselines, two at b=400 and three directions at b=600
        bvalues = (0.0, 0.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0, 600.0, 600.0, 600.0, 400.0)
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 8, 8), bvalues=bvalues, noise_model="rician", snr=30.0, seed=2))
        raw = ivim.fit_volume(bundle.series, bundle.mask)
        averaged = ivim.fit_volume(average_by_bvalue(bundle.series), bundle.mask)
        assert raw.mask.voxel_count > 0
        assert np.array_equal(raw.mask.data, averaged.mask.data)
        for name in ("s0", "f", "d_star", "adc", "residual"):
            assert getattr(raw, name).data.tobytes() == getattr(averaged, name).data.tobytes()

    def test_one_b_value_above_the_threshold_rejected(self):
        # two frames above the threshold, but at one b-value
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 8, 8), bvalues=(0.0, 50.0, 100.0, 600.0, 600.0)))
        with pytest.raises(ValueError, match="above the threshold 100.0"):
            ivim.fit_volume(bundle.series, bundle.mask)


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
        data[(b > ivim.B_THRESHOLD, *zero_tail_at)] = 0.0
        data[(b == 0, *zero_b0_at)] = 0.0
        series = DwiSeries(data, bundle.series.spacing, b)

        maps = ivim.fit_volume(series, bundle.mask)

        # the three failure reasons, read straight off each voxel's samples
        s = data[:, bundle.mask.data]
        high = b > ivim.B_THRESHOLD
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

    def test_empty_mask_fits_nothing(self):
        bundle = phantom.make_phantom(phantom.PhantomConfig(dims=(3, 8, 8)))
        empty = BinaryMask(np.zeros(bundle.mask.dims, dtype=bool), bundle.mask.spacing)
        maps = ivim.fit_volume(bundle.series, empty)
        assert maps.mask.voxel_count == 0
        for name in ("s0", "f", "d_star", "adc", "residual"):
            assert np.isnan(getattr(maps, name).data).all(), name


class TestDStarBound:
    def test_noisy_voxel_stays_below_the_bound(self):
        # this Rician draw sent D* to 2.7e75 through a transform with no upper bound
        b = np.asarray(DEFAULT_BVALUES, dtype=float)
        truth = 100.0 * (0.15 * np.exp(-0.08 * b) + 0.85 * np.exp(-0.002 * b))
        rng = np.random.default_rng(3)
        sd = 100.0 / 30.0
        real, imag = truth + rng.normal(0, sd, b.size), rng.normal(0, sd, b.size)
        sig = ivim.VoxelSignal(b, np.sqrt(real**2 + imag**2))
        adc = ivim.fit_adc(sig).adc
        fit = ivim.fit_ivim(sig, adc)
        assert fit is not None
        assert adc < fit.d_star <= ivim.D_STAR_MAX

    @pytest.mark.parametrize("adc", [0.0, ivim.D_STAR_MAX, np.nan])
    def test_adc_outside_the_d_star_range_rejected(self, adc):
        b = np.asarray(DEFAULT_BVALUES, dtype=float)
        sig = ivim.VoxelSignal(b, 100.0 * np.exp(-0.002 * b))
        with pytest.raises(ValueError, match="adc must lie in"):
            ivim.fit_ivim(sig, adc)


def ivim_cost(b, s, adc, fit) -> float:
    r = fit.s0 * (fit.f * np.exp(-fit.d_star * b) + (1 - fit.f) * np.exp(-adc * b)) - s
    return float(r @ r)


def profiled_cost(b, s, adc, d_star) -> float:
    """The least cost over a, c >= 0 of a*exp(-D* b) + c*exp(-ADC b), by scipy's NNLS."""
    return nnls(np.column_stack((np.exp(-d_star * b), np.exp(-adc * b))), s)[1] ** 2


def usable_by_loop(b, s, threshold) -> bool:
    """The data rule for one voxel at b threshold ``threshold``, sample by sample."""
    s = [float(sv) for sv in s]  # a Python float's square overflows to inf, quietly
    high = {bv for bv, sv in zip(b, s) if bv > threshold and sv > 0}
    finite = all(math.isfinite(sv) for sv in s) and math.isfinite(sum(sv * sv for sv in s))
    return finite and len(high) >= 2 and any(sv > 0 for bv, sv in zip(b, s) if bv == 0)


class TestProfiledSearch:
    """The IVIM step's searched start, polished by LM, against an independent profile."""

    @settings(max_examples=80, deadline=None)
    @given(s0=st.floats(1.0, 1e4), f=st.floats(0.0, 1.0), adc=st.floats(ivim.ADC_MIN, 0.05),
           d_star_ratio=st.floats(1.0, 500.0), snr=st.sampled_from([10.0, 30.0, 100.0, np.inf]),
           seed=st.integers(0, 2**16))
    def test_cost_is_at_most_the_profile_everywhere(self, s0, f, adc, d_star_ratio, snr, seed):
        b = np.asarray(DEFAULT_BVALUES, dtype=float)
        d_star = min(adc * d_star_ratio, ivim.D_STAR_MAX)
        truth = s0 * (f * np.exp(-d_star * b) + (1 - f) * np.exp(-adc * b))
        sd = 0.0 if np.isinf(snr) else s0 / snr
        rng = np.random.default_rng(seed)
        s = np.hypot(truth + rng.normal(0, sd, b.size), rng.normal(0, sd, b.size))
        fit = ivim.fit_ivim(ivim.VoxelSignal(b, s), adc)
        assert fit is not None
        assert 0 <= fit.f <= 1 and adc < fit.d_star <= ivim.D_STAR_MAX and fit.s0 > 0

        cost, ss = ivim_cost(b, s, adc, fit), float(s @ s)
        assert fit.residual == pytest.approx(np.sqrt(cost / b.size) / fit.s0, rel=1e-9, abs=1e-300)
        # both ends of the D* range (at D* = ADC the two terms are one) and a grid between
        ends_and_grid = adc * (ivim.D_STAR_MAX / adc) ** np.linspace(0.0, 1.0, 97)
        for point in ends_and_grid:
            assert cost <= profiled_cost(b, s, adc, point) + 1e-12 * ss, point
        # LM starts at the searched point and takes only steps that lower the cost
        start = ivim.IvimFit(*ivim._search(b, s[None], np.array([adc]))[:, 0], residual=0.0)
        assert cost <= ivim_cost(b, s, adc, start) + 4 * np.finfo(float).eps * ss

    def test_mono_exponential_voxel_fits_f_zero_quietly(self):
        # the D* grid meets ADC here, where the two decay terms coincide
        b = np.asarray(DEFAULT_BVALUES, dtype=float)
        sig = ivim.VoxelSignal(b, 100.0 * np.exp(-0.002 * b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adc = ivim.fit_adc(sig).adc
            fit = ivim.fit_ivim(sig, adc)
        assert fit.f == 0.0 and adc < fit.d_star <= ivim.D_STAR_MAX
        assert fit.s0 == pytest.approx(100.0, rel=1e-9)

    def test_zero_f_phantom_fits_f_zero_exactly(self):
        # the NNLS face f = 0 wins a tie with the interior, so no rounding residue is left
        bundle = phantom.make_phantom(phantom.PhantomConfig(dims=(3, 8, 8), f=0.0))
        maps = ivim.fit_volume(bundle.series, bundle.mask)
        assert maps.mask.voxel_count == bundle.mask.voxel_count
        assert not maps.f.data[maps.mask.data].any()
        assert ivim.summarize(maps) is None

    def test_zero_f_rician_phantom_keeps_f_zero_where_the_search_put_it(self, monkeypatch):
        # LM starts on the NNLS face f = 0 and must not leave it by a rounding residue
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 8, 8), f=0.0, noise_model="rician", snr=30.0, seed=1))
        searched, search = [], ivim._search

        def recorded(*args):
            searched.append(search(*args))
            return searched[-1]

        monkeypatch.setattr(ivim, "_search", recorded)
        # blocks of 7 voxels, so the mask spans several searches
        per_voxel = (ivim._COARSE + 1) * np.unique(bundle.series.bvalues).size
        monkeypatch.setattr(ivim, "_BLOCK", 7 * per_voxel)
        maps = ivim.fit_volume(bundle.series, bundle.mask)
        assert maps.mask.voxel_count == bundle.mask.voxel_count
        assert len(searched) == -(-bundle.mask.voxel_count // 7)
        on_face = np.hstack(searched)[1] == 0.0
        f = maps.f.data[maps.mask.data]
        assert on_face.sum() >= f.size // 4
        assert np.array_equal(f == 0.0, on_face)


def adc_step_cost(b, s, fit) -> float:
    """The mono-exponential cost of ``fit`` over the positive samples above the b threshold."""
    keep = (b > ivim.B_THRESHOLD) & (s > 0)
    r = fit.s0_high * np.exp(-fit.adc * b[keep]) - s[keep]
    return float(r @ r)


def profiled_adc_cost(b, s, adc) -> float:
    """The least cost over S0 of S0*exp(-ADC b) on the positive samples above the threshold."""
    keep = (b > ivim.B_THRESHOLD) & (s > 0)
    e, sk = np.exp(-adc * b[keep]), s[keep]
    r = (e @ sk) / (e @ e) * e - sk
    return float(r @ r)


class TestProfiledAdcSearch:
    """The ADC step's searched start, polished by LM, against an independent profile."""

    @settings(max_examples=80, deadline=None)
    @given(s0=st.floats(1.0, 1e4),
           log_adc=st.floats(math.log(ivim.ADC_MIN), math.log(ivim.ADC_MAX)),
           snr=st.sampled_from([10.0, 30.0, 100.0, np.inf]), seed=st.integers(0, 2**16))
    def test_cost_is_at_most_the_profile_everywhere(self, s0, log_adc, snr, seed):
        b = np.asarray(DEFAULT_BVALUES, dtype=float)
        truth = s0 * np.exp(-math.exp(log_adc) * b)
        sd = 0.0 if np.isinf(snr) else s0 / snr
        rng = np.random.default_rng(seed)
        s = np.hypot(truth + rng.normal(0, sd, b.size), rng.normal(0, sd, b.size))
        fit = ivim.fit_adc(ivim.VoxelSignal(b, s))
        assert fit is not None
        assert ivim.ADC_MIN <= fit.adc <= ivim.ADC_MAX and fit.s0_high > 0

        high = s[(b > ivim.B_THRESHOLD) & (s > 0)]
        cost, ss = adc_step_cost(b, s, fit), float(high @ high)
        # both ends of the ADC box and a grid between
        for adc in ivim.ADC_MIN * (ivim.ADC_MAX / ivim.ADC_MIN) ** np.linspace(0.0, 1.0, 97):
            assert cost <= profiled_adc_cost(b, s, adc) + 1e-12 * ss, adc
        # LM starts at the searched point and takes only steps that lower the cost
        start = ivim.AdcFit(*ivim._search_adc(b, s[None])[:, 0])
        assert cost <= adc_step_cost(b, s, start) + 4 * np.finfo(float).eps * ss

    def test_rising_tail_fits_at_the_lower_end_quietly(self):
        # LM's first trial step from the parent's log-linear start overflowed its cost here
        bundle = phantom.make_phantom(phantom.PhantomConfig(dims=(3, 8, 8)))
        b = bundle.series.bvalues
        data = bundle.series.data.copy()
        at = tuple(np.argwhere(bundle.mask.data)[0])
        for bvalue, value in ((200.0, 1.0), (400.0, 80.0), (600.0, 0.0)):
            data[(b == bvalue, *at)] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            maps = ivim.fit_volume(DwiSeries(data, bundle.series.spacing, b), bundle.mask)
        assert maps.mask.data[at]
        assert ivim.ADC_MIN <= maps.adc.data[at] <= ivim.ADC_MIN * 1.01

    def test_decay_that_underflows_at_the_box_top_fits_quietly(self):
        # at ADC_MAX every squared decay underflows to 0 at these b-values
        sig = ivim.VoxelSignal([0.0, 4000.0, 5000.0], [100.0, 1.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = ivim.fit_adc(sig)
        assert fit.adc == pytest.approx(math.log(2.0) / 1000.0, rel=1e-6)

    def test_polish_starts_at_the_optimum(self, monkeypatch):
        # from the Newton-refined point LM's first step is below xtol, so it returns its
        # start; from the grid's point it took about 2 iterations a voxel, and 4.2 from a
        # log-linear start
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 10, 10), noise_model="rician", snr=30.0, seed=5))
        solve, polished = lm.lm_fit, []

        def recorded(problem):
            result = solve(problem)
            if problem.theta0.size == 2:  # the ADC step's (S0, ADC)
                polished.append((problem.theta0, result))
            return result

        monkeypatch.setattr(lm, "lm_fit", recorded)
        maps = ivim.fit_volume(bundle.series, bundle.mask)
        assert len(polished) == maps.mask.voxel_count > 0
        for start, result in polished:
            assert result.converged and result.iterations == 1, result.reason
            assert np.array_equal(result.params, start)

    def test_searched_point_costs_no_more_than_the_polish(self):
        # the grid's point alone cost up to 4.7e-12 of the sum of squares above LM's
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 10, 10), noise_model="rician", snr=30.0, seed=5))
        b = bundle.series.bvalues
        signals = np.maximum(bundle.series.data[:, bundle.mask.data].T, 0.0)
        signals = signals[ivim._usable(b, signals)]
        assert len(signals) > 0
        keep = (b > ivim.B_THRESHOLD) & (signals > 0)
        for s, k, start in zip(signals, keep, ivim._search_adc(b, signals).T):
            s0, adc = start
            high = s[(b > ivim.B_THRESHOLD) & (s > 0)]
            polished = ivim._polish_adc(s, k, start, b)
            searched = adc_step_cost(b, s, ivim.AdcFit(s0, adc))
            assert searched <= adc_step_cost(b, s, polished) + 1e-15 * (high @ high)

    @pytest.mark.parametrize("adc", [2e-5, 5e-5])
    def test_polish_starts_at_the_optimum_near_adc_min(self, monkeypatch, adc):
        # an LM start moved in by 0.1% of the box (to about 1.1e-4) took 7 and 5 iterations here
        b = np.asarray(DEFAULT_BVALUES, dtype=float)
        s = 100.0 * np.exp(-adc * b) + np.random.default_rng(1).normal(0.0, 0.5, b.size)
        solve, iterations = lm.lm_fit, []

        def counted(problem):
            result = solve(problem)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(lm, "lm_fit", counted)
        fit = ivim.fit_adc(ivim.VoxelSignal(b, s))
        assert fit.adc == pytest.approx(adc, rel=0.2)
        assert len(iterations) == 1 and iterations[0] <= 2


class TestAdcCramerRao:
    def test_adc_spread_is_within_10_percent_of_its_bound(self):
        # the ADC step fits A*exp(-ADC b) to the b > 100 points, where the perfusion term
        # has decayed below 1e-4 of S0, so A = S0 (1 - f)
        s0, f, adc, snr = 100.0, 0.3, 0.002, 30.0
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            s0=s0, f=f, d_star=0.05, d=adc, noise_model="gaussian", snr=snr, seed=1))
        maps = ivim.fit_volume(bundle.series, bundle.mask)
        fitted = maps.adc.data[maps.mask.data]
        assert fitted.size == bundle.mask.voxel_count

        b = bundle.series.bvalues
        bh = b[b > ivim.B_THRESHOLD]
        e = np.exp(-adc * bh)
        jacobian = np.column_stack((e, -s0 * (1 - f) * bh * e))  # d/dA, d/dADC
        sigma = s0 / snr
        bound = sigma * math.sqrt(np.linalg.inv(jacobian.T @ jacobian)[1, 1]) / adc
        robust_sd = 1.4826 * np.median(np.abs(fitted - adc)) / adc
        assert robust_sd == pytest.approx(bound, rel=0.1)


class TestBatchInvariance:
    """A voxel fitted alone gives the bits it gets inside a volume, in either visit order."""

    @pytest.fixture(scope="class")
    def fitted(self):
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 10, 10), noise_model="rician", snr=30.0, seed=5))
        forward = ivim.fit_volume(bundle.series, bundle.mask)
        axes = (0, 1, 2)
        backward = ivim.fit_volume(
            DwiSeries(np.flip(bundle.series.data, (1, 2, 3)), bundle.series.spacing,
                      bundle.series.bvalues),
            BinaryMask(np.flip(bundle.mask.data, axes), bundle.mask.spacing))
        backward = {name: np.flip(getattr(backward, name).data, axes)
                    for name in ("s0", "f", "d_star", "adc", "residual")}
        voxels = [(tuple(at), ivim.VoxelSignal(bundle.series.bvalues,
                                               np.maximum(bundle.series.data[(slice(None), *at)], 0)))
                  for at in np.argwhere(bundle.mask.data)]
        assert forward.mask.voxel_count == len(voxels)
        return forward, backward, voxels

    def test_adc_map_is_fit_adc_per_voxel(self, fitted):
        forward, backward, voxels = fitted
        for at, sig in voxels:
            adc = ivim.fit_adc(sig).adc
            assert adc == forward.adc.data[at] == backward["adc"][at], at

    def test_ivim_maps_are_fit_ivim_per_voxel(self, fitted):
        forward, backward, voxels = fitted
        for at, sig in voxels:
            fit = ivim.fit_ivim(sig, forward.adc.data[at])
            for name in ("s0", "f", "d_star", "residual"):
                assert getattr(fit, name) == getattr(forward, name).data[at] \
                    == backward[name][at], (at, name)


class TestDataRule:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), threshold=st.sampled_from([0.0, 100.0, 300.0]))
    def test_matrix_rule_matches_the_voxel_loop(self, data, threshold):
        # repeated b-values, zero and non-finite samples, and samples whose squares overflow;
        # the rule reads B_THRESHOLD when called, so one that admits b=50 and one that
        # excludes b=200 are checked too
        b = np.sort(data.draw(st.lists(st.sampled_from([0.0, 50.0, 200.0, 400.0, 800.0]),
                                       min_size=3, max_size=9)))
        values = st.sampled_from([0.0, 1.0, 80.0, 1e100, 1e160, np.inf, np.nan])
        signals = np.array(data.draw(st.lists(st.lists(values, min_size=b.size, max_size=b.size),
                                              min_size=1, max_size=6)))
        expected = [usable_by_loop(b, s, threshold) for s in signals]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ivim, "B_THRESHOLD", threshold)
            assert ivim._usable(b, signals).tolist() == expected

    def test_per_voxel_api_fails_the_voxels_the_rule_fails(self):
        b = np.array([0.0, 0.0, 200.0, 200.0, 400.0])
        for s in ([1.0, 0.0, 80.0, 80.0, 0.0],  # one distinct b-value above the threshold
                  [0.0, 0.0, 80.0, 80.0, 40.0],  # no positive b=0 sample
                  [1e160, 1.0, 80.0, 80.0, 40.0]):  # squares that overflow
            sig = ivim.VoxelSignal(b, s)
            assert ivim.fit_adc(sig) is None and ivim.fit_ivim(sig, 2e-3) is None, s


class TestFixedBox:
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
            adc_problem, = captured_problems(mp, lambda: ivim.fit_adc(sig))
            ivim_problem, = captured_problems(mp, lambda: ivim.fit_ivim(sig, adc))
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
