"""Cohort-level comparison of manual vs automatic segmentation pipelines.

Works on a flat per-subject summary table (one row per subject, mask source
and fusion strategy). :func:`build_report` is the one check of the row
rules: every column present, a source in SOURCES and a group in GROUPS, one
row per (subject, source, strategy) and one group per subject. A message
names a row by its caller's label (``summary row i`` by default, ``line N``
from ``ivimlab report``). The rows are grouped once, by strategy, source and
subject, into paired t-tests of manual vs automatic for every metric,
inter-subject CVs per group, and the mean absolute percentage difference of
those CVs as an agreement score per fusion strategy.
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


def summary_row(subject: str, group: Group, source: str,
                strategy: FusionStrategy, maps: IvimMaps) -> dict:
    """One summaries-table row computed from a subject's fitted maps."""
    metrics = summarize(maps)
    if metrics is None:
        raise ValueError(f"{subject}: nothing to summarize (fewer than two fitted voxels "
                         "or every fitted f is 0)")
    return {"subject": subject, "group": group.value, "source": source,
            "strategy": strategy.value, **metrics}


def _group(rows: list[dict], labels: list[str]) -> dict[str, dict[str, dict[str, dict]]]:
    """{strategy: {source: {subject: row}}}, strategies in first-seen order.

    Every strategy gets both sources; rows keep their input order within a
    cell. ``labels[i]`` names row i in the message of a broken row rule.
    """
    grouped: dict[str, dict[str, dict[str, dict]]] = {}
    first_group: dict[str, tuple[str, str]] = {}  # subject -> (group, row label)
    first_label: dict[tuple[str, str, str], str] = {}  # (subject, source, strategy) -> label
    for label, row in zip(labels, rows, strict=True):
        missing = [c for c in SUMMARY_COLUMNS if c not in row]
        if missing:
            raise ValueError(f"{label} missing columns {missing}")
        subject, source, strategy = row["subject"], row["source"], row["strategy"]
        if source not in SOURCES:
            raise ValueError(f"{label} ({subject}): source must be one of "
                             f"{SOURCES}, got {source!r}")
        if row["group"] not in GROUPS:
            raise ValueError(f"{label} ({subject}): group must be one of "
                             f"{GROUPS}, got {row['group']!r}")
        group, first = first_group.setdefault(subject, (row["group"], label))
        if row["group"] != group:
            raise ValueError(f"{label} ({subject}): group {row['group']!r} "
                             f"disagrees with {first} ({group!r})")
        key = (subject, source, strategy)
        if key in first_label:
            raise ValueError(f"{label} repeats {first_label[key]} ({', '.join(key)})")
        first_label[key] = label
        grouped.setdefault(strategy, {s: {} for s in SOURCES})[source][subject] = row
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


def cv_cells(grouped: dict) -> dict[tuple[str, str, str], dict[str, float]]:
    """{(strategy, source, group): {metric: CV}}, the inter-subject CVs.

    A CV is the sample sd over the mean of a MEAN_METRICS column across the
    cell's subjects, NaN where the cell holds fewer than two subjects.
    """
    cells = {}
    for strategy, by_source in grouped.items():
        for source, by_subject in by_source.items():
            for group in GROUPS:
                cell = [r for r in by_subject.values() if r["group"] == group]
                cells[strategy, source, group] = {
                    metric: (stats.cv([float(r[metric]) for r in cell], ddof=1)
                             if len(cell) >= 2 else float("nan"))
                    for metric in MEAN_METRICS}
    return cells


def cv_table(cells: dict) -> list[dict]:
    """The :func:`cv_cells` as one row per parameter, one column per cell.

    Columns are named ``<strategy>_<source>_<group>``.
    """
    return [{"parameter": metric,
             **{"_".join(key): cvs[metric] for key, cvs in cells.items()}}
            for metric in MEAN_METRICS]


def cv_agreement(cells: dict) -> list[dict]:
    """Mean absolute % difference of inter-subject CVs, manual vs automatic.

    ``cells`` is the :func:`cv_cells` output; a pair with a NaN is skipped.
    """
    out = []
    for strategy in dict.fromkeys(strategy for strategy, _, _ in cells):
        pairs = [(cells[strategy, "manual", group][metric],
                  cells[strategy, "automatic", group][metric])
                 for metric in MEAN_METRICS for group in GROUPS]
        pairs = [(a, b) for a, b in pairs if a == a and b == b]  # skip NaN
        if not pairs:
            raise ValueError(f"strategy {strategy}: no CV pairs to compare")
        manual_cvs, auto_cvs = zip(*pairs)
        out.append({
            "strategy": strategy,
            "mean_abs_pct_diff": stats.mean_abs_pct_diff(manual_cvs, auto_cvs),
            "n_pairs": len(pairs),
        })
    return out


@dataclass(frozen=True)
class ReportTables:
    paired: list[dict]
    cv: list[dict]
    agreement: list[dict]


def build_report(rows: list[dict], labels: list[str] | None = None) -> ReportTables:
    """The paired, CV and agreement tables of one summaries table.

    ``labels[i]`` names row i in messages; the default is ``summary row i``.
    """
    grouped = _group(rows, labels or [f"summary row {i}" for i in range(len(rows))])
    cells = cv_cells(grouped)
    return ReportTables(paired=paired_table(grouped), cv=cv_table(cells),
                        agreement=cv_agreement(cells))
