import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivimlab import report

from oracles import report_loops, t_cdf_quadrature

# strategy -> {subject: group}; olp has a single FGR subject, so its FGR
# cells hold fewer than two values
COHORT = {
    "lc": {"S1": "control", "S2": "control", "S3": "fgr", "S4": "fgr"},
    "olp": {"S1": "control", "S2": "control", "S3": "fgr"},
}


def table() -> list[dict]:
    """A small summaries table whose first strategy is not the first alphabetically."""
    rng = np.random.default_rng(11)
    rows = []
    for strategy, subjects in COHORT.items():
        for subject, group in subjects.items():
            for source in report.SOURCES:
                row = {"subject": subject, "group": group, "source": source,
                       "strategy": strategy}
                row.update({m: float(rng.uniform(1.0, 3.0)) for m in report.ALL_METRICS})
                rows.append(row)
    return rows


def values(rows, strategy, source, group, metric) -> list[float]:
    return [r[metric] for r in rows if (r["strategy"], r["source"], r["group"])
            == (strategy, source, group)]


class TestTables:
    def test_paired_p_values_match_quadrature(self):
        rows = table()
        by_key = {(r["subject"], r["source"], r["strategy"]): r for r in rows}
        paired = report.build_report(rows).paired
        assert [r["metric"] for r in paired] == list(report.ALL_METRICS)
        for entry in paired:
            assert list(entry) == ["metric", "lc", "olp"]
            for strategy, subjects in COHORT.items():
                d = np.array([by_key[s, "automatic", strategy][entry["metric"]]
                              - by_key[s, "manual", strategy][entry["metric"]]
                              for s in subjects])
                t = d.mean() / (d.std(ddof=1) / math.sqrt(d.size))
                expected = 2.0 * (1.0 - t_cdf_quadrature(abs(float(t)), d.size - 1))
                assert entry[strategy] == pytest.approx(expected, abs=1e-10)

    def test_cv_is_sample_sd_over_mean_and_nan_below_two_subjects(self):
        rows = table()
        cv = report.build_report(rows).cv
        assert [r["parameter"] for r in cv] == list(report.MEAN_METRICS)
        columns = ["parameter"] + [f"{st}_{src}_{g}" for st in ("lc", "olp")
                                   for src in ("manual", "automatic")
                                   for g in ("control", "fgr")]
        for entry in cv:
            assert list(entry) == columns
            for key, got in list(entry.items())[1:]:
                strategy, source, group = key.split("_")
                v = np.array(values(rows, strategy, source, group, entry["parameter"]))
                if v.size < 2:
                    assert (strategy, group) == ("olp", "fgr") and math.isnan(got)
                else:
                    assert got == pytest.approx(v.std(ddof=1) / v.mean(), rel=1e-12)

    def test_agreement_compares_every_finite_cv_pair(self):
        tables = report.build_report(table())
        assert [r["strategy"] for r in tables.agreement] == ["lc", "olp"]
        for row in tables.agreement:
            st = row["strategy"]
            pairs = [(e[f"{st}_manual_{g}"], e[f"{st}_automatic_{g}"])
                     for e in tables.cv for g in ("control", "fgr")]
            pairs = [(a, b) for a, b in pairs if not (math.isnan(a) or math.isnan(b))]
            assert row["n_pairs"] == len(pairs) == (12 if st == "lc" else 6)
            expected = 100.0 * np.mean([abs(b - a) / abs(a) for a, b in pairs])
            assert row["mean_abs_pct_diff"] == pytest.approx(expected, rel=1e-12)


class TestBadRows:
    def test_repeated_row_rejected_naming_it(self):
        rows = table()
        rows.append(dict(rows[2], f_mean=9.0))  # (S2, manual, lc) again
        with pytest.raises(ValueError, match="S2.*manual.*lc"):
            report.build_report(rows)

    def test_subject_with_two_groups_rejected_naming_the_row(self):
        rows = table()
        i = next(i for i, r in enumerate(rows)
                 if (r["subject"], r["source"], r["strategy"]) == ("S1", "automatic", "lc"))
        rows[i]["group"] = "fgr"  # its manual row says control
        with pytest.raises(ValueError, match=rf"row {i} \('S1'\).*fgr.*row {i - 1}.*control"):
            report.build_report(rows)

    @pytest.mark.parametrize("column", ["source", "group"])
    def test_unknown_label_rejected(self, column):
        rows = table()
        rows[5][column] = "bogus"
        with pytest.raises(ValueError, match="bogus"):
            report.build_report(rows)

    def test_missing_column_rejected(self):
        rows = table()
        del rows[0]["adc_cv"]
        with pytest.raises(ValueError, match="adc_cv"):
            report.build_report(rows)

    def test_zero_mean_cv_names_its_cell_and_metric(self):
        rows = table()
        for r in rows:
            if (r["strategy"], r["source"], r["group"]) == ("olp", "manual", "control"):
                r["residual_mean"] = 0.0
        with pytest.raises(ValueError, match=r"^olp/manual/control residual_mean: "
                                             r"cv is undefined for zero-mean data$"):
            report.build_report(rows)

    def test_zero_manual_cv_names_its_cell_and_metric(self):
        # lc's two controls share one manual volume, so that cell's CV, the reference of
        # a percentage difference, is 0
        rows = table()
        for r in rows:
            if (r["strategy"], r["source"], r["group"]) == ("lc", "manual", "control"):
                r["volume_ml"] = 2.0
        with pytest.raises(ValueError, match=r"^lc/manual/control volume_ml: percentage "
                                             r"difference undefined for a zero reference$"):
            report.build_report(rows)

    def test_unpaired_subject_rejected(self):
        rows = [r for r in table()
                if (r["subject"], r["source"], r["strategy"]) != ("S4", "automatic", "lc")]
        with pytest.raises(ValueError, match="lc"):
            report.build_report(rows)


class TestRowLabels:
    def test_messages_name_rows_by_the_callers_labels(self):
        rows = table()
        rows.append(dict(rows[2], f_mean=9.0))  # (S2, manual, lc) again
        labels = [f"line {i + 2}" for i in range(len(rows))]
        with pytest.raises(ValueError, match=rf"^line {len(rows) + 1} repeats line 4 "
                                             r"\('S2', manual, lc\)$"):
            report.build_report(rows, labels)

    def test_repeat_message_names_source_and_strategy_on_its_first_line(self):
        # the CLI prints an error's first line only, so a newline in the id must not hide them
        rows = [dict(r, subject="S2\nx") if r["subject"] == "S2" else r for r in table()]
        rows.append(dict(rows[2], f_mean=9.0))  # ("S2\nx", manual, lc) again
        with pytest.raises(ValueError) as caught:
            report.build_report(rows)
        first_line = str(caught.value).splitlines()[0]
        assert "repeats" in first_line and "manual" in first_line and "lc" in first_line


# how the automatic column of a (strategy, metric) relates to its manual column
COLUMN_KINDS = ("random", "random", "random", "few",  # few: values 1-3, so CVs of 0 occur
                "same",    # automatic = manual: p = 1
                "shift",   # automatic = manual + 0.5 exactly: constant differences, p = 0
                "zero")    # every manual value 0: a zero-mean CV where the metric has one


@st.composite
def cohorts(draw) -> list[dict]:
    """A summaries table that keeps the row rules, in shuffled row order.

    One to seven subjects, so some cells hold fewer than two; ids whose
    sorted order is not their numeric order. Each (strategy, metric) column
    is of a drawn kind; its values come from a drawn seed.
    """
    ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=7, unique=True))
    n = len(ids)
    groups = draw(st.lists(st.sampled_from(report.GROUPS), min_size=n, max_size=n))
    strategies = draw(st.lists(st.sampled_from(("olp", "avg", "lc")), min_size=1, max_size=3,
                               unique=True))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=len(report.ALL_METRICS),
                          max_size=len(report.ALL_METRICS) * len(strategies)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for s, strategy in enumerate(strategies):
        columns = {}
        for m, metric in enumerate(report.ALL_METRICS):
            kind = kinds[(s * len(report.ALL_METRICS) + m) % len(kinds)]
            if kind == "few":
                manual, automatic = rng.integers(1, 4, (2, n)).astype(float)
            elif kind in ("shift", "zero"):
                manual = np.zeros(n) if kind == "zero" else rng.integers(1, 51, n).astype(float)
                automatic = manual + 0.5
            else:
                manual, automatic = rng.uniform(0.1, 100.0, (2, n))
                automatic = manual if kind == "same" else automatic
            columns[metric] = (manual.tolist(), automatic.tolist())
        for i, (sid, group) in enumerate(zip(ids, groups)):
            for j, source in enumerate(report.SOURCES):
                rows.append({"subject": f"S{sid}", "group": group, "source": source,
                             "strategy": strategy,
                             **{m: columns[m][j][i] for m in report.ALL_METRICS}})
    return draw(st.permutations(rows))


def bits(table: list[dict]) -> list[list]:
    """A table's (column, cell) pairs in order, each float as its exact hex form."""
    return [[(k, v.hex() if type(v) is float else v) for k, v in row.items()] for row in table]


def outcome(build) -> list | str:
    """The three tables that ``build`` returns as ``bits``, or the message of its ValueError."""
    try:
        return [bits(table) for table in build()]
    except ValueError as err:
        return str(err)


def loops(rows) -> list | str:
    return outcome(lambda: report_loops(rows, report.MEAN_METRICS, report.ALL_METRICS,
                                        report.GROUPS))


def arrays(rows) -> list | str:
    def build():
        tables = report.build_report(rows)
        return tables.paired, tables.cv, tables.agreement

    return outcome(build)


class TestAgainstTheLoops:
    @settings(max_examples=300, deadline=None)
    @given(rows=cohorts())
    def test_tables_and_messages_are_the_per_cell_loops_bit_for_bit(self, rows):
        assert arrays(rows) == loops(rows)

    def test_the_cohorts_hold_every_degenerate_case(self):
        """p of 1 and of 0, NaN CVs and each message of a CV or a pairing are drawn."""
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(rows=cohorts())
        def record(rows):
            result = loops(rows)
            if isinstance(result, str):
                seen.add(result.split(": ")[-1])
            else:
                paired, cv, _ = result
                seen.update(v for row in paired + cv for _, v in row[1:])

        record()
        assert {(1.0).hex(), (0.0).hex(), "nan", "cv is undefined for zero-mean data",
                "paired tests need at least two subjects",
                "percentage difference undefined for a zero reference"} <= seen
