"""Statistical primitives: heterogeneity measures and the paired t test.

``cv`` and ``paired_t_test`` take a sample, or a (k, n) array of k samples
of n values each, one per row, and reduce along the last axis: a row's
result is bit for bit the result of the 1-D call on that row. numpy's
last-axis sums over C-contiguous rows add each row in the 1-D call's order,
but over a strided view (a transposed array, say) they add in another, so
these functions make their input C-contiguous themselves. A 1-D sample gives
floats, and k rows give arrays of k. ``t_cdf`` works elementwise.

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

def t_cdf(t, df):
    """P(T <= t) for Student's t with df degrees of freedom, elementwise.

    A float for a scalar ``t`` and ``df``, else an array.
    """
    if np.any(np.less_equal(df, 0)):
        raise ValueError("degrees of freedom must be positive")
    return _unwrap(special.stdtr(df, t))


def _unwrap(result: np.ndarray):
    """A 0-d result as a float, any other as it is."""
    return float(result) if np.ndim(result) == 0 else result


# ---------------------------------------------------------------------------
# heterogeneity measures
# ---------------------------------------------------------------------------

def shannon_entropy(values, bins: int) -> float:
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


def cv(values, ddof: int = 0):
    """Coefficient of variation, standard deviation / mean, of each row.

    ddof=0 (population sd) is the intra-mask heterogeneity convention;
    inter-subject reliability summaries pass ddof=1. A zero mean in any row
    fails the call.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)  # a scalar becomes (1,)
    if v.shape[-1] < 2:
        raise ValueError("cv needs at least two values")
    mean = v.mean(axis=-1)
    if np.any(mean == 0.0):
        raise ValueError("cv is undefined for zero-mean data")
    return _unwrap(v.std(ddof=ddof, axis=-1) / mean)


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
    statistic: float | np.ndarray  # an array of one per row for (k, n) samples
    p_value: float | np.ndarray


def paired_t_test(x, y) -> TestResult:
    """Two-sided paired t test on differences y - x (df = n - 1) of each row.

    Identical samples give p = 1 by convention; zero-variance non-zero
    differences give p = 0 (certainty in the degenerate limit).
    """
    xv = np.ascontiguousarray(x, dtype=np.float64)
    yv = np.ascontiguousarray(y, dtype=np.float64)
    if xv.shape != yv.shape:
        raise ValueError("paired samples must have equal length")
    n = xv.shape[-1]
    if n < 2:
        raise ValueError("paired t test needs at least two pairs")
    d = yv - xv
    mean, sd = d.mean(axis=-1), d.std(ddof=1, axis=-1)
    t = np.where(mean > 0, math.inf, -math.inf)  # where the differences are constant
    np.divide(mean, sd / math.sqrt(n), out=t, where=sd != 0.0)
    p = np.clip(2.0 * t_cdf(-np.abs(t), n - 1), 0.0, 1.0)
    same = np.all(d == 0.0, axis=-1)
    return TestResult(_unwrap(np.where(same, 0.0, t)), _unwrap(np.where(same, 1.0, p)))
