import math

import numpy as np
import pytest

from ivimlab import report

from oracles import t_cdf_quadrature

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
        with pytest.raises(ValueError, match=rf"row {i} \(S1\).*fgr.*row {i - 1}.*control"):
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

    def test_unpaired_subject_rejected(self):
        rows = [r for r in table()
                if (r["subject"], r["source"], r["strategy"]) != ("S4", "automatic", "lc")]
        with pytest.raises(ValueError, match="lc"):
            report.build_report(rows)
