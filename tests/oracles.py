"""Independent reference implementations used to check the library.

Everything here is deliberately written the dumb way (full enumeration,
all-pairs scans, quadrature) and shares no code with the package.
"""

import math
from fractions import Fraction

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


def t_pdf(t: float, df: float) -> float:
    ln_c = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    return math.exp(ln_c) * (1 + t * t / df) ** (-(df + 1) / 2)


def t_cdf_quadrature(t: float, df: float) -> float:
    """P(T <= t) by adaptive quadrature of the density from 0 outward."""
    if t == 0:
        return 0.5
    half, _ = quad(t_pdf, 0.0, abs(t), args=(df,), epsabs=1e-12, epsrel=1e-12)
    return 0.5 + half if t > 0 else 0.5 - half


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


def brute_youden(scores, positive, positive_high: bool) -> tuple[float, float]:
    """(J, threshold) maximising sensitivity + specificity - 1, in exact fractions.

    Candidate cuts are every midpoint between consecutive distinct scores plus
    -inf and +inf. A case is called positive when its score is above the cut
    (``positive_high``) or below it. Ties go to the higher specificity, then to
    the larger threshold on the scale where higher means positive.
    """
    s = [float(v) for v in scores]
    y = [bool(v) for v in positive]
    n_pos = sum(y)
    n_neg = len(y) - n_pos
    distinct = sorted(set(s))
    cuts = [-math.inf, math.inf] + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    best_key, best = None, None
    for cut in cuts:
        called = [v > cut if positive_high else v < cut for v in s]
        tp = sum(1 for c, t in zip(called, y) if c and t)
        tn = sum(1 for c, t in zip(called, y) if not c and not t)
        spec = Fraction(tn, n_neg)
        j = Fraction(tp, n_pos) + spec - 1
        key = (j, spec, cut if positive_high else -cut)
        if best_key is None or key > best_key:
            best_key, best = key, (float(j), cut)
    return best


def expected_volume_power_form(ga: float) -> float:
    """The lung-growth cubic written out in plain powers."""
    return -0.0132 * ga**3 + 1.14 * ga**2 - 27.38 * ga + 207.50
