"""Cohort-level comparison of manual vs automatic segmentation pipelines.

Works on a flat per-subject summary table (one row per subject, mask source
and fusion strategy). :func:`build_report` is the one check of the row
rules: every column present, a source in SOURCES and a group in GROUPS, one
row per (subject, source, strategy) and one group per subject. A message
names a row by its caller's label (``summary row i`` by default, ``line N``
from ``ivimlab report``).

Once the rules hold, the rows of each (strategy, source) become one
(metric × subject) float64 array, C-contiguous, with a row per metric in
ALL_METRICS order and a column per subject in input order; each cell is a
Python ``float`` cast. From these arrays come paired t-tests of manual vs
automatic for every metric, one ``stats`` call per strategy over the shared
subjects in sorted order; inter-subject CVs per group, one call per
(strategy, source, group) cell, whose subjects are a group mask over the
columns; and the mean absolute percentage difference of those CVs as an
agreement score per fusion strategy. Each statistic reduces along the
subject axis, and ``stats`` makes its input contiguous, so every number is
bit for bit the 1-D call on that metric's subjects in the same order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
_COLUMN_SET = frozenset(SUMMARY_COLUMNS)
_metric_cells = operator.itemgetter(*ALL_METRICS)


def summary_row(subject: str, group: Group, source: str,
                strategy: FusionStrategy, maps: IvimMaps) -> dict:
    """One summaries-table row computed from a subject's fitted maps."""
    metrics = summarize(maps)
    if metrics is None:
        raise ValueError(f"{subject!r}: nothing to summarize (fewer than two fitted voxels "
                         "or every fitted f is 0)")
    return {"subject": subject, "group": group.value, "source": source,
            "strategy": strategy.value, **metrics}


class _Source(NamedTuple):
    """The rows of one (strategy, source), in input order."""

    subjects: list[str]
    groups: np.ndarray  # each subject's group label
    values: np.ndarray  # (metric × subject): a row per ALL_METRICS entry, C-contiguous


def _group(rows: list[dict], labels: list[str]) -> dict[str, dict[str, _Source]]:
    """{strategy: {source: its rows}}, strategies in first-seen order.

    Every strategy gets both sources. ``labels[i]`` names row i in the
    message of a broken row rule; the number cells are cast only once every
    row keeps the rules.
    """
    grouped: dict[str, dict[str, list[dict]]] = {}
    first_group: dict[str, tuple[str, str]] = {}  # subject -> (group, row label)
    first_label: dict[tuple[str, str, str], str] = {}  # (subject, source, strategy) -> label
    for label, row in zip(labels, rows, strict=True):
        if not row.keys() >= _COLUMN_SET:
            missing = [c for c in SUMMARY_COLUMNS if c not in row]
            raise ValueError(f"{label} missing columns {missing}")
        subject, source, strategy = row["subject"], row["source"], row["strategy"]
        if source not in SOURCES:
            raise ValueError(f"{label} ({subject!r}): source must be one of "
                             f"{SOURCES}, got {source!r}")
        if row["group"] not in GROUPS:
            raise ValueError(f"{label} ({subject!r}): group must be one of "
                             f"{GROUPS}, got {row['group']!r}")
        group, first = first_group.setdefault(subject, (row["group"], label))
        if row["group"] != group:
            raise ValueError(f"{label} ({subject!r}): group {row['group']!r} "
                             f"disagrees with {first} ({group!r})")
        key = (subject, source, strategy)
        if key in first_label:
            raise ValueError(f"{label} repeats {first_label[key]} "
                             f"({subject!r}, {source}, {strategy})")
        first_label[key] = label
        if strategy not in grouped:
            grouped[strategy] = {s: [] for s in SOURCES}
        grouped[strategy][source].append(row)
    return {strategy: {source: _source(cell) for source, cell in by_source.items()}
            for strategy, by_source in grouped.items()}


def _source(rows: list[dict]) -> _Source:
    """One (strategy, source)'s rows as a ``_Source``, each number cell cast by ``float``."""
    values = np.array([tuple(map(float, _metric_cells(r))) for r in rows], dtype=np.float64)
    return _Source(subjects=[r["subject"] for r in rows],
                   groups=np.array([r["group"] for r in rows]),
                   values=np.ascontiguousarray(values.reshape(-1, len(ALL_METRICS)).T))


def _by_subject(source: _Source) -> list[int]:
    """The column of each subject of ``source``, subjects in sorted order."""
    return sorted(range(len(source.subjects)), key=source.subjects.__getitem__)


def paired_table(grouped: dict) -> list[dict]:
    """Paired t-test p-values (manual vs automatic) per metric and strategy.

    Output rows look like {"metric": ..., "<strategy>": p, ...} with one
    column per fusion strategy present in the input.
    """
    out = [{"metric": metric} for metric in ALL_METRICS]
    for strategy, by_source in grouped.items():
        manual, automatic = by_source["manual"], by_source["automatic"]
        m_order, a_order = _by_subject(manual), _by_subject(automatic)
        subjects = [manual.subjects[i] for i in m_order]
        if [automatic.subjects[i] for i in a_order] != subjects:
            raise ValueError(
                f"strategy {strategy}: manual and automatic rows cover different subjects"
            )
        if len(subjects) < 2:
            raise ValueError(
                f"strategy {strategy}: paired tests need at least two subjects"
            )
        p = stats.paired_t_test(manual.values[:, m_order], automatic.values[:, a_order]).p_value
        for slot, value in zip(out, p.tolist()):
            slot[strategy] = value
    return out


def _cell_cv(cell: np.ndarray, name: str) -> dict[str, float]:
    """{metric: sample CV} of a (MEAN_METRICS × subject) cell, NaN below two subjects.

    A CV that fails is named by the cell's ``name`` and its first failing metric.
    """
    if cell.shape[1] < 2:
        return dict.fromkeys(MEAN_METRICS, math.nan)
    try:
        return dict(zip(MEAN_METRICS, stats.cv(cell, ddof=1).tolist()))
    except ValueError:
        for metric, values in zip(MEAN_METRICS, cell):  # which metric: one at a time
            try:
                stats.cv(values, ddof=1)
            except ValueError as err:
                raise ValueError(f"{name} {metric}: {err}") from None
        raise


def cv_cells(grouped: dict) -> dict[tuple[str, str, str], dict[str, float]]:
    """{(strategy, source, group): {metric: CV}}, the inter-subject CVs.

    A CV is the sample sd over the mean of a MEAN_METRICS column across the
    cell's subjects, NaN where the cell holds fewer than two subjects. A CV
    that is undefined (a zero mean) fails naming its cell and metric, as in
    ``olp/manual/control residual_mean: ...``.
    """
    cells = {}
    for strategy, by_source in grouped.items():
        for source, rows in by_source.items():
            for group in GROUPS:
                cells[strategy, source, group] = _cell_cv(
                    rows.values[:len(MEAN_METRICS), rows.groups == group],
                    f"{strategy}/{source}/{group}")
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
    A manual CV of 0 fails naming its cell and metric, as in
    ``olp/manual/control volume_ml: ...``.
    """
    out = []
    for strategy in dict.fromkeys(strategy for strategy, _, _ in cells):
        pairs = [(f"{strategy}/manual/{group} {metric}",
                  cells[strategy, "manual", group][metric],
                  cells[strategy, "automatic", group][metric])
                 for metric in MEAN_METRICS for group in GROUPS]
        pairs = [(name, a, b) for name, a, b in pairs if a == a and b == b]  # skip NaN
        if not pairs:
            raise ValueError(f"strategy {strategy}: no CV pairs to compare")
        names, manual_cvs, auto_cvs = zip(*pairs)
        try:
            diff = stats.mean_abs_pct_diff(manual_cvs, auto_cvs)
        except ValueError as err:  # a zero reference: name the first
            raise ValueError(f"{names[manual_cvs.index(0.0)]}: {err}") from None
        out.append({"strategy": strategy, "mean_abs_pct_diff": diff, "n_pairs": len(pairs)})
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
