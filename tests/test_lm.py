import warnings

import numpy as np
import pytest

from ivimlab import lm


def line_problem(x, y, theta0=(0.0, 0.0)):
    return lm.FitProblem(
        residual=lambda th: th[0] * x + th[1] - y,
        jacobian=lambda th: np.array((x, np.ones_like(x))),
        theta0=np.asarray(theta0, dtype=float),
        transforms=(lm.identity(), lm.identity()),
    )


def decay_problem(b, s, theta0, transforms):
    """th[0] * exp(-th[1] * b) - s with its exact Jacobian."""
    def jacobian(th):
        e = np.exp(-th[1] * b)
        return np.array((e, -th[0] * b * e))

    return lm.FitProblem(
        residual=lambda th: th[0] * np.exp(-th[1] * b) - s,
        jacobian=jacobian,
        theta0=np.asarray(theta0, dtype=float),
        transforms=transforms,
    )


class TestTransforms:
    def test_round_trip(self):
        transforms = (lm.identity(), lm.log_positive(), lm.logistic(0.0, 1.0),
                      lm.logistic(0.002, 1.0))
        theta = np.array([-3.5, 0.7, 0.25, 0.05])
        u = lm._to_internal(theta, transforms)
        back, _ = lm._to_external(u, transforms)
        assert np.allclose(back, theta, rtol=1e-12)

    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            lm._to_internal(np.array([-1.0]), (lm.log_positive(),))
        with pytest.raises(ValueError):
            lm._to_internal(np.array([1.5]), (lm.logistic(0.0, 1.0),))
        with pytest.raises(ValueError):
            lm._to_internal(np.array([0.001]), (lm.logistic(0.002, 1.0),))

    def test_logistic_stays_inside_bounds(self):
        t = (lm.logistic(0.0, 1.0),)
        for u in (-800.0, -5.0, 0.0, 5.0, 800.0):
            v, d = lm._to_external(np.array([u]), t)
            assert 0.0 <= v[0] <= 1.0
            assert 0.0 <= d[0] <= 0.25  # s * (1 - s) peaks at u = 0

    def test_overflow_reads_as_infinite(self):
        theta, dtheta = lm._to_external(np.array([800.0]), (lm.log_positive(),))
        assert theta[0] == np.inf and dtheta[0] == np.inf


class TestLmFit:
    def test_exact_line(self):
        x = np.arange(5.0)
        y = 2.0 * x + 1.0
        result = lm.lm_fit(line_problem(x, y))
        assert result.converged
        assert result.params == pytest.approx([2.0, 1.0], abs=1e-10)

    def test_mono_exponential_recovery(self):
        b = np.array([0, 100, 200, 300, 400, 500, 600.0])
        s = 100.0 * np.exp(-0.002 * b)
        problem = decay_problem(b, s, (50.0, 0.01), (lm.log_positive(), lm.log_positive()))
        result = lm.lm_fit(problem)
        assert result.converged
        assert result.params[0] == pytest.approx(100.0, rel=1e-8)
        assert result.params[1] == pytest.approx(0.002, rel=1e-8)

    def test_start_at_optimum_zero_residual(self):
        x = np.arange(5.0)
        y = 2.0 * x + 1.0
        result = lm.lm_fit(line_problem(x, y, theta0=(2.0, 1.0)))
        assert result.converged
        assert result.iterations <= 2
        assert result.ssr == 0.0

    def test_start_at_optimum_noisy(self):
        rng = np.random.default_rng(0)
        x = np.arange(10.0)
        y = 2.0 * x + 1.0 + rng.normal(0, 0.1, 10)
        opt = np.polyfit(x, y, 1)
        result = lm.lm_fit(line_problem(x, y, theta0=tuple(opt)))
        assert result.converged
        assert result.iterations <= 2
        ssr0 = float((((opt[0] * x + opt[1]) - y) ** 2).sum())
        assert result.ssr <= ssr0 + 1e-12

    def test_matches_closed_form_ols(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            x = rng.uniform(-5, 5, 12)
            y = rng.uniform(-2, 2) * x + rng.uniform(-3, 3) + rng.normal(0, 0.5, 12)
            slope, intercept = np.polyfit(x, y, 1)
            result = lm.lm_fit(line_problem(x, y))
            assert result.converged
            assert result.params[0] == pytest.approx(slope, rel=1e-8, abs=1e-10)
            assert result.params[1] == pytest.approx(intercept, rel=1e-8, abs=1e-10)

    def test_cost_never_exceeds_start(self):
        rng = np.random.default_rng(5)
        b = np.array([0, 50, 100, 200, 400, 600.0])
        for _ in range(20):
            s = rng.uniform(10, 200) * np.exp(-rng.uniform(1e-4, 5e-3) * b)
            s = s + rng.normal(0, 1.0, b.size)
            s = np.maximum(s, 1.0)
            theta0 = np.array([rng.uniform(1, 300), rng.uniform(1e-5, 0.05)])
            problem = decay_problem(b, s, theta0, (lm.log_positive(), lm.log_positive()))
            r0 = problem.residual(theta0)
            result = lm.lm_fit(problem)
            assert result.ssr <= float(r0 @ r0) + 1e-9

    def test_bounds_honored_at_result(self):
        # force the optimum against a bound: constant data, decaying model
        b = np.array([200, 400, 600.0])
        s = np.full(3, 50.0)
        problem = decay_problem(b, s, (50.0, 0.01), (lm.log_positive(), lm.logistic(1e-5, 1e-1)))
        result = lm.lm_fit(problem)
        assert 1e-5 <= result.params[1] <= 1e-1
        assert result.params[1] < 1.1e-5  # driven to the lower bound

    def test_overflowing_trial_cost_is_rejected_quietly(self):
        # from theta = -6 the first step lands near theta = 397, where each residual
        # (about 1e172) is finite but its square is not
        x = np.ones(2)
        problem = lm.FitProblem(
            residual=lambda th: np.exp(th[0]) * x - 1.0,
            jacobian=lambda th: np.exp(th[0]) * x[None],
            theta0=np.array([-6.0]),
            transforms=(lm.identity(),),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = lm.lm_fit(problem)
        assert result.converged
        assert result.params[0] == pytest.approx(0.0, abs=1e-9)

    def test_dimension_error_when_underdetermined(self):
        problem = lm.FitProblem(
            residual=lambda th: np.array([th[0] + th[1] - 1.0]),
            jacobian=lambda th: np.ones((2, 1)),
            theta0=np.array([0.0, 0.0]),
            transforms=(lm.identity(), lm.identity()),
        )
        with pytest.raises(ValueError, match="need at least 2 residuals"):
            lm.lm_fit(problem)

    def test_non_finite_start_rejected(self):
        problem = lm.FitProblem(
            residual=lambda th: np.array([np.nan, np.nan]),
            jacobian=lambda th: np.zeros((1, 2)),
            theta0=np.array([1.0]),
            transforms=(lm.identity(),),
        )
        with pytest.raises(ValueError):
            lm.lm_fit(problem)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, 8)
        y = 3 * x - 1 + rng.normal(0, 0.2, 8)
        r1 = lm.lm_fit(line_problem(x, y))
        r2 = lm.lm_fit(line_problem(x, y))
        assert np.array_equal(r1.params, r2.params)
        assert r1.ssr == r2.ssr and r1.iterations == r2.iterations


class TestJacobian:
    def test_matches_central_difference_cost_gradient(self):
        # one parameter per transform, every residual depending on all four
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 1.0, 9)
        y = rng.normal(0.0, 1.0, x.size)
        transforms = (lm.identity(), lm.log_positive(), lm.logistic(-1.0, 3.0),
                      lm.logistic(0.5, 4.0))

        def resid(th):
            a, b, c, d = th
            return a * x + b * np.exp(-c * x) + np.sin(d * x) - y

        def jac(th):
            _, b, c, d = th
            e = np.exp(-c * x)
            return np.array((x, e, -b * x * e, x * np.cos(d * x)))

        def cost(uu):
            rr = resid(lm._to_external(uu, transforms)[0])
            return float(rr @ rr)

        problem = lm.FitProblem(resid, jac, (0.3, 1.7, 0.4, 2.2), transforms)
        u = lm._to_internal(problem.theta0, transforms)
        for trial in range(5):
            u_at = u + rng.normal(0.0, 0.5, u.size) * (trial > 0)
            theta, dtheta = lm._to_external(u_at, transforms)
            J = problem.jacobian(theta) * dtheta[:, None]  # the solver's chain rule
            grad = 2.0 * J @ resid(theta)
            for i in range(u.size):
                h = 1e-6 * max(1.0, abs(u_at[i]))
                up, um = u_at.copy(), u_at.copy()
                up[i] += h
                um[i] -= h
                central = (cost(up) - cost(um)) / (2 * h)
                assert grad[i] == pytest.approx(central, rel=1e-6, abs=1e-8)

    def test_wrong_shape_rejected(self):
        x = np.arange(5.0)
        problem = lm.FitProblem(
            residual=lambda th: th[0] * x + th[1] - 2.0 * x,
            jacobian=lambda th: np.array((x, np.ones_like(x))).T,
            theta0=np.array([0.0, 0.0]),
            transforms=(lm.identity(), lm.identity()),
        )
        with pytest.raises(ValueError, match="jacobian must have shape"):
            lm.lm_fit(problem)
