import dataclasses
import warnings

import numpy as np
import pytest

from ivimlab import lm


UNBOUNDED = ((-np.inf, -np.inf), (np.inf, np.inf))
POSITIVE = ((0.0, 0.0), (np.inf, np.inf))


def line_problem(x, y, theta0=(0.0, 0.0), bounds=UNBOUNDED):
    return lm.FitProblem(
        residual=lambda th: th[0] * x + th[1] - y,
        jacobian=lambda th: np.array((x, np.ones_like(x))),
        theta0=np.asarray(theta0, dtype=float),
        lower=bounds[0],
        upper=bounds[1],
    )


def decay_problem(b, s, theta0, bounds):
    """th[0] * exp(-th[1] * b) - s with its exact Jacobian, over ``bounds`` = (lower, upper)."""
    def jacobian(th):
        e = np.exp(-th[1] * b)
        return np.array((e, -th[0] * b * e))

    return lm.FitProblem(
        residual=lambda th: th[0] * np.exp(-th[1] * b) - s,
        jacobian=jacobian,
        theta0=np.asarray(theta0, dtype=float),
        lower=bounds[0],
        upper=bounds[1],
    )


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
        problem = decay_problem(b, s, (50.0, 0.01), POSITIVE)
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
            problem = decay_problem(b, s, theta0, POSITIVE)
            r0 = problem.residual(theta0)
            result = lm.lm_fit(problem)
            assert result.ssr <= float(r0 @ r0) + 1e-9

    def test_bounds_honored_at_result(self):
        # force the optimum against a bound: constant data, decaying model
        b = np.array([200, 400, 600.0])
        s = np.full(3, 50.0)
        problem = decay_problem(b, s, (50.0, 0.01), ((0.0, 1e-5), (np.inf, 1e-1)))
        evaluated = []

        def recorded(th):
            evaluated.append(th.copy())
            return problem.residual(th)

        result = lm.lm_fit(dataclasses.replace(problem, residual=recorded))
        assert result.params[1] == 1e-5  # the clipped step lands on the lower bound exactly
        evaluated = np.array(evaluated)
        assert np.all((evaluated >= problem.lower) & (evaluated <= problem.upper))

    def test_overflowing_trial_cost_is_rejected_quietly(self):
        # from theta = -6 the first step lands near theta = 397, where each residual
        # (about 1e172) is finite but its square is not
        x = np.ones(2)
        problem = lm.FitProblem(
            residual=lambda th: np.exp(th[0]) * x - 1.0,
            jacobian=lambda th: np.exp(th[0]) * x[None],
            theta0=np.array([-6.0]),
            lower=(-np.inf,),
            upper=(np.inf,),
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
            lower=UNBOUNDED[0],
            upper=UNBOUNDED[1],
        )
        with pytest.raises(ValueError, match="need at least 2 residuals"):
            lm.lm_fit(problem)

    def test_non_finite_start_rejected(self):
        problem = lm.FitProblem(
            residual=lambda th: np.array([np.nan, np.nan]),
            jacobian=lambda th: np.zeros((1, 2)),
            theta0=np.array([1.0]),
            lower=(-np.inf,),
            upper=(np.inf,),
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
        # every residual depending on all four parameters
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 1.0, 9)
        y = rng.normal(0.0, 1.0, x.size)

        def resid(th):
            a, b, c, d = th
            return a * x + b * np.exp(-c * x) + np.sin(d * x) - y

        def jac(th):
            _, b, c, d = th
            e = np.exp(-c * x)
            return np.array((x, e, -b * x * e, x * np.cos(d * x)))

        def cost(th):
            rr = resid(th)
            return float(rr @ rr)

        problem = lm.FitProblem(resid, jac, (0.3, 1.7, 0.4, 2.2), (-np.inf,) * 4, (np.inf,) * 4)
        for trial in range(5):
            theta = problem.theta0 + rng.normal(0.0, 0.5, 4) * (trial > 0)
            grad = 2.0 * problem.jacobian(theta) @ resid(theta)
            for i in range(theta.size):
                h = 1e-6 * max(1.0, abs(theta[i]))
                up, um = theta.copy(), theta.copy()
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
            lower=UNBOUNDED[0],
            upper=UNBOUNDED[1],
        )
        with pytest.raises(ValueError, match="jacobian must have shape"):
            lm.lm_fit(problem)


class TestFitProblem:
    def test_start_outside_the_box_rejected(self):
        x = np.arange(5.0)
        with pytest.raises(ValueError, match="outside the box"):
            line_problem(x, 2.0 * x, theta0=(-1.0, 0.5), bounds=POSITIVE)

    def test_bound_count_must_match_the_parameters(self):
        x = np.arange(5.0)
        with pytest.raises(ValueError, match="one lower and one upper bound per parameter"):
            line_problem(x, 2.0 * x, bounds=((0.0,), (np.inf,)))
