"""Bounded Levenberg-Marquardt least squares on smoothly reparameterized variables.

Box and positivity constraints are enforced exactly by fitting in a
transformed coordinate where every constraint surface is pushed to infinity:

* ``identity``            unconstrained
* ``log_positive``        theta > 0          (theta = exp(u))
* ``logistic(lo, hi)``    lo < theta < hi    (theta = lo + (hi-lo)*sigmoid(u))

Each problem supplies the exact Jacobian of its residual in the original
parameter space. The solver carries it into the transformed space by the
chain rule, dr/du_i = dr/dtheta_i * dtheta_i/du_i, with dtheta/du equal to 1,
theta and (hi-lo)*s*(1-s) (s the sigmoid) for the three transforms. No
finite differences: an iteration evaluates the Jacobian once and the
residual once per trial step. The damped normal equations use
Marquardt scaling (lambda times the diagonal of J^T J; Marquardt 1963).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


_LAMBDA_MAX = 1e15


@dataclass(frozen=True)
class Transform:
    kind: str  # "identity" | "log" | "logistic"
    lo: float = 0.0
    hi: float = 0.0


def identity() -> Transform:
    return Transform("identity")


def log_positive() -> Transform:
    return Transform("log")


def logistic(lo: float, hi: float) -> Transform:
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"logistic bounds must satisfy lo < hi, got ({lo}, {hi})")
    return Transform("logistic", lo, hi)


def _to_internal(theta: np.ndarray, transforms: Sequence[Transform]) -> np.ndarray:
    u = []
    for i, (t, v) in enumerate(zip(transforms, theta.tolist())):
        if t.kind == "identity":
            u.append(v)
        elif t.kind == "log":
            if v <= 0:
                raise ValueError(f"parameter {i} must be > 0 for a log transform, got {v}")
            u.append(math.log(v))
        elif t.kind == "logistic":
            if not (t.lo < v < t.hi):
                raise ValueError(
                    f"parameter {i} must lie strictly inside ({t.lo}, {t.hi}), got {v}"
                )
            frac = (v - t.lo) / (t.hi - t.lo)
            u.append(math.log(frac / (1.0 - frac)))
        else:  # pragma: no cover
            raise ValueError(f"unknown transform {t.kind!r}")
    return np.array(u)


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:  # an overflowing trial step must read as inf, not raise
        return math.inf


def _to_external(u: np.ndarray, transforms: Sequence[Transform]) -> tuple[np.ndarray, np.ndarray]:
    """theta(u) and the diagonal dtheta/du, in one pass over the transforms."""
    theta, dtheta = [], []
    for t, v in zip(transforms, u.tolist()):
        kind = t.kind
        if kind == "identity":
            th, d = v, 1.0
        elif kind == "logistic":
            # numerically stable sigmoid s and its complement c = 1 - s
            e = math.exp(-abs(v))
            s, c = 1.0 / (1.0 + e), e / (1.0 + e)
            if v < 0:
                s, c = c, s
            w = t.hi - t.lo
            th, d = t.lo + w * s, w * s * c
        else:  # log
            th = d = _exp(v)
        theta.append(th)
        dtheta.append(d)
    return np.array(theta), np.array(dtheta)


@dataclass(frozen=True)
class FitProblem:
    """A residual map r(theta), its Jacobian, a start point and one transform per parameter.

    ``jacobian(theta)`` returns dr/dtheta in the original parameter space with
    one row per parameter: shape ``(len(theta0), len(r))``.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    theta0: np.ndarray
    transforms: tuple[Transform, ...]

    def __post_init__(self):
        theta0 = np.asarray(self.theta0, dtype=np.float64).ravel()
        if len(self.transforms) != theta0.size:
            raise ValueError("one transform required per parameter")
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "transforms", tuple(self.transforms))


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 200
    gtol: float = 1e-10
    xtol: float = 1e-10
    ftol: float = 1e-10
    lambda0: float = 1e-3
    lambda_up: float = 2.0
    lambda_down: float = 3.0


@dataclass
class FitResult:
    params: np.ndarray
    ssr: float
    iterations: int
    converged: bool
    reason: str


def lm_fit(problem: FitProblem) -> FitResult:
    """Minimize ||r(theta)||^2; returns parameters in the original space.

    The accepted-step cost sequence is non-increasing and the result is
    deterministic for fixed inputs. Trial steps with a non-finite cost are
    rejected; the fit is declared diverged once damping overflows.
    """
    opts = FitOptions()
    fn, jac = problem.residual, problem.jacobian
    transforms = problem.transforms
    u = _to_internal(problem.theta0, transforms)
    m = u.size
    theta, dtheta = _to_external(u, transforms)

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
        J = J * dtheta[:, None]  # chain rule into the transformed space
        JtJ = J @ J.T
        diag = JtJ.diagonal()
        # a finite trace means every entry of J and of J^T J is finite
        if not math.isfinite(float(diag.sum())):
            return FitResult(theta, ssr, iterations, False, "non-finite Jacobian")
        g = J @ r
        if np.abs(g).max() <= opts.gtol:
            converged, reason = True, "gradient below gtol"
            break
        diag = np.maximum(diag, 1e-32)
        neg_g = -g
        u_norm = math.sqrt(u @ u)

        accepted = False
        while True:
            A = JtJ.copy()
            A.reshape(-1)[:: m + 1] += lam * diag  # the diagonal, in place
            try:
                step = np.linalg.solve(A, neg_g)
            except np.linalg.LinAlgError:
                step = None
            step_norm = math.nan if step is None else math.sqrt(step @ step)
            if math.isfinite(step_norm):
                if step_norm <= opts.xtol * (u_norm + opts.xtol):
                    converged, reason = True, "step below xtol"
                    break
                u_try = u + step
                theta_try, dtheta_try = _to_external(u_try, transforms)
                r_try = np.asarray(fn(theta_try), dtype=np.float64).ravel()
                with np.errstate(over="ignore"):  # an overflowing cost reads as inf, quietly
                    ssr_try = float(r_try @ r_try)
                if ssr_try < ssr:  # False for a NaN or infinite cost
                    rel_drop = (ssr - ssr_try) / max(ssr, 1e-300)
                    u, theta, dtheta, r, ssr = u_try, theta_try, dtheta_try, r_try, ssr_try
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
