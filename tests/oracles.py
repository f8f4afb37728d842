"""Independent reference implementations used to check the library.

Everything here is deliberately written the dumb way (full enumeration,
all-pairs scans, quadrature) and shares no code with the package.
"""

import math
from itertools import combinations

import numpy as np
from scipy.integrate import quad


def brute_dice(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = int(a.sum()), int(b.sum())
    if na + nb == 0:
        return 1.0
    inter = int(np.logical_and(a, b).sum())
    return 2.0 * inter / (na + nb)


def brute_hausdorff(a: np.ndarray, b: np.ndarray, spacing) -> float:
    """All-pairs max-min Euclidean distance between voxel centers, in mm."""
    pa = np.argwhere(a).astype(np.float64) * np.asarray(spacing)
    pb = np.argwhere(b).astype(np.float64) * np.asarray(spacing)

    def directed(xs, ys):
        worst = 0.0
        for x in xs:
            best = min(((x - y) ** 2).sum() for y in ys)
            worst = max(worst, best)
        return worst

    return math.sqrt(max(directed(pa, pb), directed(pb, pa)))


def rank_sum_u(x, y) -> float:
    """U of sample x from midranks (independent of the pair-counting route)."""
    pooled = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.size)
    i = 0
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n1 = len(x)
    r1 = ranks[:n1].sum()
    return r1 - n1 * (n1 + 1) / 2.0


def enumerate_mw_two_sided_p(x, y) -> float:
    """Exact permutation p via rank sums over every split of the pooled data."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n1, n2 = len(x), len(y)
    pooled = np.concatenate([x, y])
    mu = n1 * n2 / 2.0
    obs = abs(rank_sum_u(x, y) - mu)
    total = extreme = 0
    idx = set(range(n1 + n2))
    for picked in combinations(range(n1 + n2), n1):
        rest = sorted(idx - set(picked))
        u = rank_sum_u(pooled[list(picked)], pooled[rest])
        total += 1
        if abs(u - mu) >= obs - 1e-9:
            extreme += 1
    return extreme / total


def t_pdf(t: float, df: float) -> float:
    ln_c = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    return math.exp(ln_c) * (1 + t * t / df) ** (-(df + 1) / 2)


def t_cdf_quadrature(t: float, df: float) -> float:
    """P(T <= t) by adaptive quadrature of the density from 0 outward."""
    if t == 0:
        return 0.5
    half, _ = quad(t_pdf, 0.0, abs(t), args=(df,), epsabs=1e-12, epsrel=1e-12)
    return 0.5 + half if t > 0 else 0.5 - half


def normal_cdf_quadrature(z: float) -> float:
    if z == 0:
        return 0.5
    pdf = lambda u: math.exp(-u * u / 2) / math.sqrt(2 * math.pi)
    half, _ = quad(pdf, 0.0, abs(z), epsabs=1e-13, epsrel=1e-13)
    return 0.5 + half if z > 0 else 0.5 - half


def pair_counting_auc(scores, positive) -> float:
    """AUC as the fraction of (positive, negative) pairs won, ties half."""
    s = np.asarray(scores, float)
    pos = s[np.asarray(positive, bool)]
    neg = s[~np.asarray(positive, bool)]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def expected_volume_power_form(ga: float) -> float:
    """The lung-growth cubic written out in plain powers."""
    return -0.0132 * ga**3 + 1.14 * ga**2 - 27.38 * ga + 207.50


def biexp_signal(b, s0, f, d_star, d):
    b = np.asarray(b, float)
    return s0 * (f * np.exp(-d_star * b) + (1 - f) * np.exp(-d * b))
