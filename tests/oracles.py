"""Independent reference implementations used to check the library.

Everything here is deliberately written the dumb way (full enumeration,
all-pairs scans, quadrature) and shares no code with the package.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import special
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


# ---------------------------------------------------------------------------
# the cohort report, one metric and one cell at a time
# ---------------------------------------------------------------------------

def paired_p_1d(x, y) -> float:
    """The two-sided paired t test's p on y - x, one sample as a flat list."""
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    n = xv.size
    d = yv - xv
    if np.all(d == 0.0):
        return 1.0
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return 0.0
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = 2.0 * float(special.stdtr(n - 1, -abs(t)))
    return min(max(p, 0.0), 1.0)


def cv_1d(values, ddof: int) -> float:
    """sd / mean of one flat sample; ValueError for a zero mean."""
    v = np.asarray(values, dtype=np.float64).ravel()
    mean = float(v.mean())
    if mean == 0.0:
        raise ValueError("cv is undefined for zero-mean data")
    return float(v.std(ddof=ddof)) / mean


def report_loops(rows, mean_metrics, all_metrics, groups):
    """(paired, cv, agreement) tables of a summaries table that keeps the row rules.

    A paired test per (strategy, metric) over the sorted subjects, a CV per
    (strategy, source, group, metric) over the cell's rows in input order,
    one metric and one cell at a time, as lists of Python floats. Raises the
    report's ValueError messages, in the report's order: CVs, paired tests,
    agreement.
    """
    grouped = {}
    for row in rows:
        grouped.setdefault(row["strategy"], {"manual": {}, "automatic": {}})[
            row["source"]][row["subject"]] = row

    cells = {}
    for strategy, by_source in grouped.items():
        for source, by_subject in by_source.items():
            for group in groups:
                cell = [r for r in by_subject.values() if r["group"] == group]
                cvs = {}
                for metric in mean_metrics:
                    if len(cell) < 2:
                        cvs[metric] = float("nan")
                        continue
                    try:
                        cvs[metric] = cv_1d([float(r[metric]) for r in cell], ddof=1)
                    except ValueError as err:
                        raise ValueError(f"{strategy}/{source}/{group} {metric}: {err}") from None
                cells[strategy, source, group] = cvs

    paired = [{"metric": metric} for metric in all_metrics]
    for strategy, by_source in grouped.items():
        manual, automatic = by_source["manual"], by_source["automatic"]
        subjects = sorted(manual)
        if sorted(automatic) != subjects:
            raise ValueError(f"strategy {strategy}: manual and automatic rows cover "
                             "different subjects")
        if len(subjects) < 2:
            raise ValueError(f"strategy {strategy}: paired tests need at least two subjects")
        for slot, metric in zip(paired, all_metrics):
            slot[strategy] = paired_p_1d([float(manual[s][metric]) for s in subjects],
                                         [float(automatic[s][metric]) for s in subjects])

    cv = [{"parameter": metric, **{"_".join(key): cvs[metric] for key, cvs in cells.items()}}
          for metric in mean_metrics]

    agreement = []
    for strategy in grouped:
        pairs = [(f"{strategy}/manual/{group} {metric}",
                  cells[strategy, "manual", group][metric],
                  cells[strategy, "automatic", group][metric])
                 for metric in mean_metrics for group in groups]
        pairs = [(name, a, b) for name, a, b in pairs if a == a and b == b]
        if not pairs:
            raise ValueError(f"strategy {strategy}: no CV pairs to compare")
        for name, a, _ in pairs:
            if a == 0.0:
                raise ValueError(f"{name}: percentage difference undefined for a zero "
                                 "reference")
        a = np.array([a for _, a, _ in pairs])
        b = np.array([b for _, _, b in pairs])
        agreement.append({"strategy": strategy,
                          "mean_abs_pct_diff": float(np.mean(np.abs(b - a) / np.abs(a)) * 100.0),
                          "n_pairs": len(pairs)})
    return paired, cv, agreement
