"""Projected Levenberg-Marquardt least squares on a closed box.

Each parameter lies in [lower, upper], either end possibly infinite, and the
solver iterates in the parameters themselves. The damped normal equations
use Marquardt scaling (lambda times diag, the diagonal of J^T J; Marquardt
1963), and each trial point is clipped to the box, min(max(theta + step,
lower), upper), so every evaluated point is feasible and a bound is reached
exactly (Kanzow, Yamashita & Fukushima, J. Comput. Appl. Math. 2004). The
step test is scaled the same way (Moré, Lecture Notes in Mathematics 630,
1978): the fit stops once the clipped step d has sqrt(sum(diag d^2)) <=
xtol (sqrt(sum(diag theta^2)) + xtol), where an unscaled norm would let a
parameter near 100 stop one near 1e-3 early. Each problem supplies the exact
Jacobian of its residual, so an iteration evaluates it once and the residual
once per trial step.

A call fits two or three parameters, so much of its cost is per-call
overhead. The checks that only compare a few numbers (the start against the
box, the trace of J^T J against infinity, the gradient against gtol) run on
Python floats, where a numpy call costs more than the test. Everything that
decides a step stays in numpy: the solve, the clip, both scaled norms and
every cost. A comparison rounds nothing, so the results are bit-identical to
those of the same checks made in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


_LAMBDA_MAX = 1e15


@dataclass(frozen=True)
class FitProblem:
    """A residual map r(theta), its Jacobian, a start point and the closed box that holds it.

    ``jacobian(theta)`` returns dr/dtheta with one row per parameter: shape
    ``(len(theta0), len(r))``. ``lower`` and ``upper`` hold one bound per
    parameter; an end may be infinite.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    theta0: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        theta0, lower, upper = (np.asarray(v, dtype=np.float64).ravel()
                                for v in (self.theta0, self.lower, self.upper))
        if not lower.size == upper.size == theta0.size:
            raise ValueError(f"need one lower and one upper bound per parameter, got "
                             f"{lower.size} and {upper.size} for {theta0.size}")
        # a NaN start fails the test
        if not all(lo <= x <= hi for lo, x, hi in zip(lower.tolist(), theta0.tolist(),
                                                      upper.tolist())):
            raise ValueError(f"start {theta0} lies outside the box [{lower}, {upper}]")
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 200
    gtol: float = 1e-10
    xtol: float = 1e-10
    ftol: float = 1e-10
    lambda0: float = 1e-3
    lambda_up: float = 2.0
    lambda_down: float = 3.0


_OPTIONS = FitOptions()  # no caller sets an option


@dataclass
class FitResult:
    params: np.ndarray
    ssr: float
    iterations: int
    converged: bool
    reason: str


def lm_fit(problem: FitProblem) -> FitResult:
    """Minimize ||r(theta)||^2 over the problem's box.

    Every evaluated point lies in the box, the accepted-step cost sequence is
    non-increasing and the result is deterministic for fixed inputs. Trial
    steps with a non-finite cost are rejected; the fit is declared diverged
    once damping overflows.
    """
    opts = _OPTIONS
    fn, jac = problem.residual, problem.jacobian
    lower, upper = problem.lower, problem.upper
    theta = problem.theta0
    m = theta.size

    r = np.asarray(fn(theta), dtype=np.float64).ravel()
    if r.size < m:
        raise ValueError(f"need at least {m} residuals, got {r.size}")
    ssr = float(r @ r)
    if not math.isfinite(ssr):
        raise ValueError("residual is non-finite at the initial guess")
    if ssr == 0.0:
        return FitResult(theta, 0.0, 0, True, "zero residual at start")

    lam = opts.lambda0
    iterations = 0
    converged = False
    reason = "max_iter reached"

    while iterations < opts.max_iter:
        iterations += 1
        J = jac(theta)
        if J.shape != (m, r.size):
            raise ValueError(f"jacobian must have shape {(m, r.size)}, got {J.shape}")
        JtJ = J @ J.T
        jtj_diag = JtJ.diagonal().copy()
        # a finite trace means every entry of J and of J^T J is finite
        if not math.isfinite(sum(jtj_diag.tolist())):
            return FitResult(theta, ssr, iterations, False, "non-finite Jacobian")
        g = J @ r
        if all(abs(v) <= opts.gtol for v in g.tolist()):  # False for a NaN
            converged, reason = True, "gradient below gtol"
            break
        diag = np.maximum(jtj_diag, 1e-32)
        neg_g = -g
        theta_norm = math.sqrt(diag @ (theta * theta))
        damped = JtJ.reshape(-1)[:: m + 1]  # a view of the diagonal

        accepted = False
        while True:
            np.add(jtj_diag, lam * diag, out=damped)  # J^T J + lam diag, in place
            try:
                step = np.linalg.solve(JtJ, neg_g)
            except np.linalg.LinAlgError:
                step = np.full(m, math.nan)  # NaN survives the clip and fails the test below
            theta_try = np.minimum(np.maximum(theta + step, lower), upper)
            moved = theta_try - theta
            step_norm = math.sqrt(diag @ (moved * moved))
            if math.isfinite(step_norm):
                if step_norm <= opts.xtol * (theta_norm + opts.xtol):
                    converged, reason = True, "step below xtol"
                    break
                r_try = np.asarray(fn(theta_try), dtype=np.float64).ravel()
                with np.errstate(over="ignore"):  # an overflowing cost reads as inf, quietly
                    ssr_try = float(r_try @ r_try)
                if ssr_try < ssr:  # False for a NaN or infinite cost
                    rel_drop = (ssr - ssr_try) / max(ssr, 1e-300)
                    theta, r, ssr = theta_try, r_try, ssr_try
                    lam = max(lam / opts.lambda_down, 1e-12)
                    accepted = True
                    if rel_drop <= opts.ftol:
                        converged, reason = True, "cost decrease below ftol"
                    break
            lam *= opts.lambda_up
            if lam > _LAMBDA_MAX:
                break

        if converged:
            break
        if not accepted:  # only reachable once damping has overflowed
            return FitResult(theta, ssr, iterations, False,
                             "damping overflow (no acceptable step)")

    return FitResult(theta, ssr, iterations, converged, reason)
