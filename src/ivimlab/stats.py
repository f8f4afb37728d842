"""Statistical primitives: heterogeneity measures, group tests and regression.

The t CDF is scipy's ``special.stdtr`` and the normal CDF goes through
``math.erfc``. The Mann-Whitney test is exact (full permutation enumeration)
for small samples and a tie-corrected, continuity-corrected normal
approximation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import special

from .errors import UndefinedMetricError

EXACT_MW_LIMIT = 12  # enumerate the permutation distribution up to this n1+n2


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------

def t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    return float(special.stdtr(df, t))


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# heterogeneity measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Histogram:
    """Equal-width normalized histogram over the data's [min, max] span."""

    edges: np.ndarray
    probabilities: np.ndarray

    @property
    def bins(self) -> int:
        return self.probabilities.size


def histogram(values, bins: int) -> Histogram:
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 1:
        raise ValueError("histogram needs at least one value")
    if bins < 1:
        raise ValueError("bins must be a positive integer")
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        # single-valued data: all mass in one bin
        return Histogram(np.array([lo, hi]), np.array([1.0]))
    counts, edges = np.histogram(v, bins=bins, range=(lo, hi))
    return Histogram(edges, counts / v.size)


def shannon_entropy(values, bins: int = 64) -> float:
    """Entropy in bits of the normalized histogram; 0*log(0) counts as 0."""
    p = histogram(values, bins).probabilities
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def cv(values, ddof: int = 0) -> float:
    """Coefficient of variation, standard deviation / mean.

    ddof=0 (population sd) is the intra-mask heterogeneity convention;
    inter-subject reliability summaries pass ddof=1.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValueError("cv needs at least two values")
    mean = float(v.mean())
    if mean == 0.0:
        raise UndefinedMetricError("cv is undefined for zero-mean data")
    return float(v.std(ddof=ddof)) / mean


def mean_abs_pct_diff(reference, other) -> float:
    """Mean of |other - reference| / |reference|, in percent."""
    a = np.asarray(reference, dtype=np.float64).ravel()
    b = np.asarray(other, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError("lists must have equal length")
    if a.size == 0:
        raise ValueError("lists must be non-empty")
    if np.any(a == 0.0):
        raise UndefinedMetricError("percentage difference undefined for a zero reference")
    return float(np.mean(np.abs(b - a) / np.abs(a)) * 100.0)


# ---------------------------------------------------------------------------
# group tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n: int
    n1: int | None = None
    n2: int | None = None
    method: str = ""


def paired_t_test(x, y) -> TestResult:
    """Two-sided paired t test on differences y - x (df = n - 1).

    Identical samples give p = 1 by convention; zero-variance non-zero
    differences give p = 0 (certainty in the degenerate limit).
    """
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.size != yv.size:
        raise ValueError("paired samples must have equal length")
    n = xv.size
    if n < 2:
        raise ValueError("paired t test needs at least two pairs")
    d = yv - xv
    if np.all(d == 0.0):
        return TestResult(0.0, 1.0, n, method="paired-t")
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        t = math.inf if d.mean() > 0 else -math.inf
        return TestResult(t, 0.0, n, method="paired-t")
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = 2.0 * (1.0 - t_cdf(abs(t), n - 1))
    return TestResult(t, min(max(p, 0.0), 1.0), n, method="paired-t")


def _u_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """U of the first sample: pairs with x > y, ties counted one half."""
    gt = (x[:, None] > y[None, :]).sum()
    eq = (x[:, None] == y[None, :]).sum()
    return float(gt) + 0.5 * float(eq)


def mann_whitney_exact_p(x, y) -> float:
    """Exact two-sided p over the full permutation distribution of U."""
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    n1, n2 = xv.size, yv.size
    pooled = np.concatenate([xv, yv])
    mu = n1 * n2 / 2.0
    dev = abs(_u_statistic(xv, yv) - mu)
    total = 0
    extreme = 0
    all_idx = frozenset(range(n1 + n2))
    for picked in combinations(range(n1 + n2), n1):
        xs = pooled[list(picked)]
        ys = pooled[sorted(all_idx.difference(picked))]
        total += 1
        if abs(_u_statistic(xs, ys) - mu) >= dev - 1e-9:
            extreme += 1
    return extreme / total


def mann_whitney_normal_p(x, y) -> float:
    """Tie-corrected normal approximation with continuity correction."""
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    n1, n2 = xv.size, yv.size
    n = n1 + n2
    pooled = np.concatenate([xv, yv])
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        return 1.0  # every observation tied
    mu = n1 * n2 / 2.0
    dev = abs(_u_statistic(xv, yv) - mu)
    z = max(0.0, dev - 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * (1.0 - normal_cdf(z)))


def mann_whitney_u(x, y) -> TestResult:
    """Two-sided Mann-Whitney U test.

    Exact by enumeration when n1 + n2 <= 12, otherwise the normal
    approximation. The statistic is U of the first sample.
    """
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    n1, n2 = xv.size, yv.size
    if n1 < 1 or n2 < 1:
        raise ValueError("both samples must be non-empty")
    u = _u_statistic(xv, yv)
    if n1 + n2 <= EXACT_MW_LIMIT:
        p = mann_whitney_exact_p(xv, yv)
        method = "exact"
    else:
        p = mann_whitney_normal_p(xv, yv)
        method = "normal-approx"
    return TestResult(u, p, n1 + n2, n1=n1, n2=n2, method=method)


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float
    p_value: float
    n: int


def linear_regression(x, y) -> RegressionResult:
    """Ordinary least squares with a two-sided t test on the slope (df = n-2)."""
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.size != yv.size:
        raise ValueError("x and y must have equal length")
    n = xv.size
    if n < 3:
        raise ValueError("linear regression needs at least three points")
    sxx = float(((xv - xv.mean()) ** 2).sum())
    if sxx == 0.0:
        raise UndefinedMetricError("regression undefined for a constant regressor")
    syy = float(((yv - yv.mean()) ** 2).sum())
    sxy = float(((xv - xv.mean()) * (yv - yv.mean())).sum())
    slope = sxy / sxx
    intercept = float(yv.mean()) - slope * float(xv.mean())
    if syy == 0.0:
        return RegressionResult(slope, intercept, 0.0, 1.0, n)
    ss_res = max(0.0, syy - slope * sxy)
    r_squared = 1.0 - ss_res / syy
    se_sq = ss_res / (n - 2) / sxx
    if se_sq <= 0.0:
        p = 1.0 if slope == 0.0 else 0.0
    else:
        t = slope / math.sqrt(se_sq)
        p = 2.0 * (1.0 - t_cdf(abs(t), n - 2))
    return RegressionResult(slope, intercept, r_squared, min(max(p, 0.0), 1.0), n)
