"""Statistical primitives: heterogeneity measures and the paired t test.

The t CDF is scipy's ``special.stdtr``. Nothing here imports ``scipy.stats``,
which costs about 44 MB of resident memory at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special



# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------

def t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    return float(special.stdtr(df, t))


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
        raise ValueError("cv is undefined for zero-mean data")
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
        raise ValueError("percentage difference undefined for a zero reference")
    return float(np.mean(np.abs(b - a) / np.abs(a)) * 100.0)


# ---------------------------------------------------------------------------
# the paired test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float


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
        return TestResult(0.0, 1.0)
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        t = math.inf if d.mean() > 0 else -math.inf
        return TestResult(t, 0.0)
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = 2.0 * (1.0 - t_cdf(abs(t), n - 1))
    return TestResult(t, min(max(p, 0.0), 1.0))
