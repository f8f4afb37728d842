import csv
import json

import numpy as np
import pytest

from ivimlab import cli, fgr, ivim, masks, report
from ivimlab.grid import average_by_bvalue
from ivimlab.nifti import read_mask, read_volume


@pytest.fixture(scope="module")
def subject(tmp_path_factory):
    root = tmp_path_factory.mktemp("subject")
    config = root / "phantom.json"
    config.write_text(json.dumps({"dims": [3, 8, 8], "noise_model": "rician",
                                  "snr": 40.0, "seed": 3}))
    assert cli.main(["phantom", str(root), "--config", str(config)]) == cli.EXIT_OK
    return root


def summaries_rows(labels=("fgr", "control", "manual", "automatic", "olp")):
    fgr_label, control_label, manual, automatic, strategy = labels
    rng = np.random.default_rng(0)
    rows = []
    for i in range(6):
        group = fgr_label if i % 2 else control_label
        for source in (manual, automatic):
            row = {"subject": f"S{i}", "group": group, "source": source,
                   "strategy": strategy}
            row.update({m: float(rng.uniform(1.0, 2.0)) for m in report.ALL_METRICS})
            rows.append(row)
    return rows


def write_summaries(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(report.SUMMARY_COLUMNS))
        writer.writeheader()
        writer.writerows(rows)
    return path


class TestFit:
    def test_log_summary_is_the_summary_row(self, subject, tmp_path):
        series, bvals, mask = (str(subject / n) for n in
                               ("series.nii", "series.bval", "mask.nii"))
        out = tmp_path / "fit"
        assert cli.main(["fit", series, bvals, mask, str(out),
                         "--threads", "1"]) == cli.EXIT_OK
        log = json.loads((out / "fit_log.json").read_text())

        maps = ivim.fit_volume(average_by_bvalue(read_volume(series, bval_path=bvals)),
                               read_mask(mask))
        row = report.summary_row("s", fgr.Group.CONTROL, "manual",
                                 masks.FusionStrategy.OLP, maps)
        assert log["summary"] == {m: row[m] for m in report.ALL_METRICS}
        assert log["voxels_fitted"] == maps.mask.voxel_count

    def test_internal_failure_exits_1(self, subject, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(ivim, "fit_volume", broken)
        series, bvals, mask = (str(subject / n) for n in
                               ("series.nii", "series.bval", "mask.nii"))
        code = cli.main(["fit", series, bvals, mask, str(tmp_path / "fit"),
                         "--threads", "1"])
        assert code == cli.EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error:")

    def test_missing_input_exits_2(self, subject, tmp_path, capsys):
        code = cli.main(["fit", str(tmp_path / "absent.nii"), str(subject / "series.bval"),
                         str(subject / "mask.nii"), str(tmp_path / "fit")])
        assert code == cli.EXIT_INPUT
        assert "absent.nii" in capsys.readouterr().err


class TestFuse:
    def test_unknown_strategy_exits_2(self, subject, tmp_path):
        mask = str(subject / "mask.nii")
        args = ["fuse", mask, mask, "-o", str(tmp_path / "fused.nii"), "--strategy"]
        assert cli.main(args + ["mean"]) == cli.EXIT_INPUT
        assert cli.main(args + ["LC"]) == cli.EXIT_OK


class TestReport:
    def test_label_case_is_normalised(self, tmp_path):
        plain = write_summaries(summaries_rows(), tmp_path / "plain.csv")
        shouted = write_summaries(
            summaries_rows(("FGR", "Control", "Manual", "AUTOMATIC", "OLP")),
            tmp_path / "shouted.csv")
        assert cli.main(["report", str(plain), str(tmp_path / "a")]) == cli.EXIT_OK
        assert cli.main(["report", str(shouted), str(tmp_path / "b")]) == cli.EXIT_OK
        for name in ("paired_tests.csv", "group_cv.csv", "cv_agreement.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        with open(tmp_path / "b" / "group_cv.csv", newline="") as fh:
            cvs = list(csv.DictReader(fh))
        assert all(np.isfinite(float(r["olp_manual_fgr"])) for r in cvs)

    @pytest.mark.parametrize("column", ["group", "source", "strategy"])
    def test_unknown_label_exits_2_with_line(self, column, tmp_path, capsys):
        rows = summaries_rows()
        rows[3][column] = "bogus"
        path = write_summaries(rows, tmp_path / "summaries.csv")
        assert cli.main(["report", str(path), str(tmp_path / "out")]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 5" in err and "bogus" in err

    def test_repeated_row_exits_2_naming_both_lines(self, tmp_path, capsys):
        rows = summaries_rows()
        repeat = dict(rows[2], strategy="OLP", f_mean=9.0)  # same key, other case
        rows.insert(7, repeat)
        path = write_summaries(rows, tmp_path / "summaries.csv")
        assert cli.main(["report", str(path), str(tmp_path / "out")]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 9" in err and "line 4" in err and "S1" in err
        assert not (tmp_path / "out").exists()

    def test_bad_table_exits_2(self, tmp_path):
        rows = summaries_rows()
        rows[0]["f_mean"] = "n/a"
        path = write_summaries(rows, tmp_path / "bad_number.csv")
        assert cli.main(["report", str(path), str(tmp_path / "out")]) == cli.EXIT_INPUT
        path = write_summaries(summaries_rows(), tmp_path / "short_line.csv")
        with open(path, "a") as fh:
            fh.write("S9,fgr\n")
        assert cli.main(["report", str(path), str(tmp_path / "out")]) == cli.EXIT_INPUT
