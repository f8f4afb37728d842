"""Cohort-level comparison of manual vs automatic segmentation pipelines.

Works on a flat per-subject summary table (one row per subject, mask source
and fusion strategy). :func:`build_report` checks and groups the rows once,
by strategy, source and subject, and derives three tables from that
grouping: paired t-tests of manual vs automatic for every metric,
inter-subject coefficients of variation per group, and, from the CV table,
the mean absolute percentage difference of those CVs as an agreement score
per fusion strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import stats
from .fgr import Group
from .ivim import IvimMaps, summarize
from .masks import FusionStrategy

SOURCES = ("manual", "automatic")
GROUPS = (Group.CONTROL.value, Group.FGR.value)

MEAN_METRICS = ("volume_ml", "s0_mean", "f_mean", "d_star_mean", "adc_mean",
                "residual_mean")
VARIABILITY_METRICS = ("s0_cv", "f_cv", "d_star_cv", "adc_cv",
                       "f_entropy", "d_star_entropy", "adc_entropy")
ALL_METRICS = MEAN_METRICS + VARIABILITY_METRICS

SUMMARY_COLUMNS = ("subject", "group", "source", "strategy") + ALL_METRICS


def summary_metrics(maps: IvimMaps, entropy_bins: int = 64) -> dict | None:
    """The ALL_METRICS values of one subject's fitted maps; None if nothing was fitted."""
    summary = summarize(maps)
    if summary.empty:
        return None
    m = maps.mask.data
    return {
        "volume_ml": summary.volume_ml,
        "s0_mean": summary.s0.mean,
        "f_mean": summary.f.mean,
        "d_star_mean": summary.d_star.mean,
        "adc_mean": summary.adc.mean,
        "residual_mean": summary.residual.mean,
        "s0_cv": stats.cv(maps.s0.data[m]),
        "f_cv": stats.cv(maps.f.data[m]),
        "d_star_cv": stats.cv(maps.d_star.data[m]),
        "adc_cv": stats.cv(maps.adc.data[m]),
        "f_entropy": stats.shannon_entropy(maps.f.data[m], entropy_bins),
        "d_star_entropy": stats.shannon_entropy(maps.d_star.data[m], entropy_bins),
        "adc_entropy": stats.shannon_entropy(maps.adc.data[m], entropy_bins),
    }


def summary_row(subject: str, group: Group, source: str,
                strategy: FusionStrategy, maps: IvimMaps,
                entropy_bins: int = 64) -> dict:
    """One summaries-table row computed from a subject's fitted maps."""
    if source not in SOURCES:
        raise ValueError(f"source must be one of {SOURCES}, got {source!r}")
    metrics = summary_metrics(maps, entropy_bins)
    if metrics is None:
        raise ValueError(f"{subject}: no fitted voxels, nothing to summarize")
    return {"subject": subject, "group": group.value, "source": source,
            "strategy": strategy.value, **metrics}


def _group(rows: list[dict]) -> dict[str, dict[str, dict[str, dict]]]:
    """{strategy: {source: {subject: row}}}, strategies in first-seen order.

    Every strategy gets both sources; rows keep their input order within a
    cell. A row missing a column, with a source outside SOURCES or a group
    outside GROUPS, repeating a (subject, source, strategy), or giving its
    subject another group than the subject's first row is an error.
    """
    grouped: dict[str, dict[str, dict[str, dict]]] = {}
    first_group: dict[str, tuple[str, int]] = {}  # subject -> (group, row index)
    for i, row in enumerate(rows):
        missing = [c for c in SUMMARY_COLUMNS if c not in row]
        if missing:
            raise ValueError(f"summary row {i} missing columns {missing}")
        subject, source, strategy = row["subject"], row["source"], row["strategy"]
        if source not in SOURCES:
            raise ValueError(f"summary row {i} ({subject}): source must be one of "
                             f"{SOURCES}, got {source!r}")
        if row["group"] not in GROUPS:
            raise ValueError(f"summary row {i} ({subject}): group must be one of "
                             f"{GROUPS}, got {row['group']!r}")
        group, j = first_group.setdefault(subject, (row["group"], i))
        if row["group"] != group:
            raise ValueError(f"summary row {i} ({subject}): group {row['group']!r} "
                             f"disagrees with row {j} ({group!r})")
        cell = grouped.setdefault(strategy, {s: {} for s in SOURCES})[source]
        if subject in cell:
            raise ValueError(f"summary row {i} repeats ({subject}, {source}, {strategy})")
        cell[subject] = row
    return grouped


def paired_table(grouped: dict) -> list[dict]:
    """Paired t-test p-values (manual vs automatic) per metric and strategy.

    Output rows look like {"metric": ..., "<strategy>": p, ...} with one
    column per fusion strategy present in the input.
    """
    out = [{"metric": metric} for metric in ALL_METRICS]
    for strategy, by_source in grouped.items():
        manual, automatic = by_source["manual"], by_source["automatic"]
        subjects = sorted(manual)
        if sorted(automatic) != subjects:
            raise ValueError(
                f"strategy {strategy}: manual and automatic rows cover different subjects"
            )
        if len(subjects) < 2:
            raise ValueError(
                f"strategy {strategy}: paired tests need at least two subjects"
            )
        for slot, metric in zip(out, ALL_METRICS):
            x = [float(manual[s][metric]) for s in subjects]
            y = [float(automatic[s][metric]) for s in subjects]
            slot[strategy] = stats.paired_t_test(x, y).p_value
    return out


def cv_table(grouped: dict) -> list[dict]:
    """Inter-subject CV (sample sd / mean) per parameter, strategy, source, group."""
    cells = {
        f"{strategy}_{source}_{group}": [r for r in by_subject.values() if r["group"] == group]
        for strategy, by_source in grouped.items()
        for source, by_subject in by_source.items()
        for group in GROUPS
    }
    out = []
    for metric in MEAN_METRICS:
        entry: dict = {"parameter": metric}
        for key, cell in cells.items():
            if len(cell) >= 2:
                entry[key] = stats.cv([float(r[metric]) for r in cell], ddof=1)
            else:
                entry[key] = float("nan")
        out.append(entry)
    return out


def cv_agreement(cvs: list[dict]) -> list[dict]:
    """Mean absolute % difference of inter-subject CVs, manual vs automatic.

    ``cvs`` is the :func:`cv_table` output; NaN cells are skipped.
    """
    suffix = f"_manual_{GROUPS[0]}"
    strategies = [k[: -len(suffix)] for k in cvs[0] if k.endswith(suffix)]
    out = []
    for strategy in strategies:
        manual_cvs = []
        auto_cvs = []
        for entry in cvs:
            for group in GROUPS:
                a = entry[f"{strategy}_manual_{group}"]
                b = entry[f"{strategy}_automatic_{group}"]
                if a == a and b == b:  # skip NaN
                    manual_cvs.append(a)
                    auto_cvs.append(b)
        if not manual_cvs:
            raise ValueError(f"strategy {strategy}: no CV pairs to compare")
        out.append({
            "strategy": strategy,
            "mean_abs_pct_diff": stats.mean_abs_pct_diff(manual_cvs, auto_cvs),
            "n_pairs": len(manual_cvs),
        })
    return out


@dataclass(frozen=True)
class ReportTables:
    paired: list[dict]
    cv: list[dict]
    agreement: list[dict]


def build_report(rows: list[dict]) -> ReportTables:
    """The paired, CV and agreement tables of one summaries table."""
    grouped = _group(rows)
    cvs = cv_table(grouped)
    return ReportTables(paired=paired_table(grouped), cv=cvs, agreement=cv_agreement(cvs))
