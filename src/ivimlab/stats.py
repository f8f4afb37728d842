"""Statistical primitives: heterogeneity measures and group tests.

The t CDF is scipy's ``special.stdtr`` and the normal CDF goes through
``math.erfc``. The Mann-Whitney test is exact (full permutation enumeration)
for small samples and a tie-corrected, continuity-corrected normal
approximation otherwise. It is written out here rather than taken from
``scipy.stats``: importing that module costs about 44 MB of resident memory,
and its exact p-values do not follow the tie-aware enumeration.
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

def shannon_entropy(values, bins: int = 64) -> float:
    """Entropy in bits of the equal-width histogram over the data's [min, max].

    0*log(0) counts as 0; single-valued data puts all mass in one bin.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 1:
        raise ValueError("histogram needs at least one value")
    if bins < 1:
        raise ValueError("bins must be a positive integer")
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        p = np.array([1.0])
    else:
        counts, _ = np.histogram(v, bins=bins, range=(lo, hi))
        p = counts / v.size
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
    method: str


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
        return TestResult(0.0, 1.0, "paired-t")
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        t = math.inf if d.mean() > 0 else -math.inf
        return TestResult(t, 0.0, "paired-t")
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = 2.0 * (1.0 - t_cdf(abs(t), n - 1))
    return TestResult(t, min(max(p, 0.0), 1.0), "paired-t")


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
    return TestResult(u, p, method)
