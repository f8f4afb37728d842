import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivimlab
from ivimlab import cli, fgr, ivim, masks, phantom, report
from ivimlab.grid import BinaryMask, VoxelSpacing
from ivimlab.nifti import read_mask, read_volume, write_mask

PHANTOM_OUTPUTS = ["series.nii", "series.bval", "mask.nii", "truth_s0.nii",
                   "truth_f.nii", "truth_d_star.nii", "truth_adc.nii"]


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


# a subjects or summaries line as its list of cells -> the broken line(s)
LINE_EDITS = {
    "one cell short": lambda cells: [cells[:-1]],
    "two cells short": lambda cells: [cells[:-2]],
    "one cell extra": lambda cells: [cells + ["1.0"]],
    "blank line first": lambda cells: [[], cells[:1] + ["bogus"] + cells[2:]],
    "last cell inf": lambda cells: [cells[:-1] + ["inf"]],
    "last cell -inf": lambda cells: [cells[:-1] + ["-inf"]],
    "last cell nan": lambda cells: [cells[:-1] + ["nan"]],
}


def assert_names_the_line(err: str, edit: str, line: int, last_column: str) -> None:
    """One error line naming the edited file line, and the column of a bad number."""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"line {line + 1 if edit == 'blank line first' else line}:" in err
    assert last_column in err or not edit.startswith("last cell")


def edit_line(path: Path, index: int, edit: str) -> Path:
    """``path`` with the line at 0-based ``index`` replaced by ``LINE_EDITS[edit]``."""
    lines = path.read_text().splitlines()
    lines[index:index + 1] = [",".join(cells) for cells in
                              LINE_EDITS[edit](lines[index].split(","))]
    path.write_text("\n".join(lines) + "\n")
    return path


def json_text(payload) -> str:
    """``payload`` as the CLI writes it, so int and float values stay apart."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def exit_code(args) -> int:
    """The exit code of ``ivimlab args``, also where argparse exits on a bad flag."""
    try:
        return cli.main(args)
    except SystemExit as exc:
        return exc.code


def run_phantom(outdir: Path, config: dict | None = None, *flags) -> dict:
    args = ["phantom", str(outdir), *flags]
    if config is not None:
        path = outdir.parent / f"{outdir.name}.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert cli.main(args) == cli.EXIT_OK
    return json.loads((outdir / "manifest.json").read_text())


def _number(lo, hi):
    """A JSON number in [lo, hi]: a float, or an int where the range holds one."""
    floats = st.floats(lo, hi)
    if math.ceil(lo) > hi:
        return floats
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), floats)


def _field_spec(lo, hi):
    value = _number(lo, hi)
    axis = st.sampled_from([0, 1, 2])
    return st.one_of(
        value,
        st.builds(lambda a, b: {"kind": "linear", "lo": a, "hi": b}, value, value),
        st.builds(lambda a, b, x: {"kind": "linear", "lo": a, "hi": b, "axis": x},
                  value, value, axis),
        st.builds(lambda a, b, x: {"kind": "two_region", "value_a": a, "value_b": b,
                                   "axis": x}, value, value, axis),
    )


# valid phantom configs: every key optional
PHANTOM_CONFIGS = st.fixed_dictionaries({}, optional={
    "dims": st.lists(st.integers(3, 5), min_size=3, max_size=3),  # non-empty mask
    "spacing": st.lists(_number(0.5, 8.0), min_size=3, max_size=3),
    "bvalues": st.lists(_number(5.0, 800.0), min_size=2, max_size=5).map(
        lambda bs: [0] + sorted(bs)),
    "semi_axes_frac": st.lists(st.floats(0.3, 0.5), min_size=3, max_size=3),
    "s0": _field_spec(50.0, 150.0),
    "f": _field_spec(0.05, 0.5),
    "d_star": _field_spec(0.01, 0.1),
    "d": _field_spec(0.001, 0.003),
    "noise_model": st.sampled_from(["none", "gaussian", "rician"]),
    "seed": st.integers(0, 2**31),
}).flatmap(lambda cfg: st.fixed_dictionaries(
    {**{k: st.just(v) for k, v in cfg.items()},
     **({"snr": _number(5.0, 60.0)} if cfg.get("noise_model", "none") != "none" else {})}))


class TestPhantom:
    def test_default_manifest(self, tmp_path):
        manifest = run_phantom(tmp_path / "p")
        bundle = phantom.make_phantom()
        expected = {
            "config": {"dims": [8, 32, 32], "spacing": [7.2, 2.07, 2.07],
                       "bvalues": [0.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0, 600.0],
                       "semi_axes_frac": [0.4, 0.4, 0.4], "s0": 100.0, "f": 0.3,
                       "d_star": 0.05, "d": 0.002, "noise_model": "none", "snr": 0.0,
                       "seed": 0},
            "mask_voxels": bundle.mask.voxel_count,
            "mask_volume_ml": bundle.mask.volume_ml,
            "outputs": PHANTOM_OUTPUTS,
        }
        assert (tmp_path / "p" / "manifest.json").read_text() == json_text(expected)
        assert sorted(p.name for p in (tmp_path / "p").iterdir()) == sorted(
            PHANTOM_OUTPUTS + ["manifest.json"])
        series = read_volume(tmp_path / "p" / "series.nii", tmp_path / "p" / "series.bval")
        assert np.array_equal(series.data, bundle.series.data.astype(np.float32))

    def test_every_field_spec_kind_and_flags_echo_as_floats(self, tmp_path):
        config = {"dims": [3, 8, 8], "spacing": [7, 2, 2], "bvalues": [0, 50, 200, 600],
                  "s0": {"kind": "linear", "lo": 80, "hi": 120, "axis": 2},
                  "f": {"kind": "two_region", "value_a": 0.2, "value_b": 0.35},
                  "d_star": 0.05, "d": 0.002,
                  "noise_model": "gaussian", "snr": 10, "seed": 4}
        manifest = run_phantom(tmp_path / "p", config, "--noise", "rician", "--snr", "30",
                               "--seed", "9")
        assert (tmp_path / "p" / "manifest.json").read_text() == json_text({
            "config": {"dims": [3, 8, 8], "spacing": [7.0, 2.0, 2.0],
                       "bvalues": [0.0, 50.0, 200.0, 600.0],
                       "semi_axes_frac": [0.4, 0.4, 0.4],
                       "s0": {"kind": "linear", "lo": 80.0, "hi": 120.0, "axis": 2},
                       "f": {"kind": "two_region", "value_a": 0.2, "value_b": 0.35,
                             "axis": 0},
                       "d_star": 0.05, "d": 0.002,
                       "noise_model": "rician", "snr": 30.0, "seed": 9},
            "mask_voxels": manifest["mask_voxels"],
            "mask_volume_ml": manifest["mask_volume_ml"],
            "outputs": PHANTOM_OUTPUTS,
        })
        bundle = phantom.make_phantom(phantom.PhantomConfig(
            dims=(3, 8, 8), spacing=(7.0, 2.0, 2.0), bvalues=(0.0, 50.0, 200.0, 600.0),
            s0=phantom.LinearGradient(80.0, 120.0, axis=2),
            f=phantom.TwoRegion(0.2, 0.35), d_star=0.05,
            noise_model="rician", snr=30.0, seed=9))
        assert manifest["mask_voxels"] == bundle.mask.voxel_count
        series = read_volume(tmp_path / "p" / "series.nii", tmp_path / "p" / "series.bval")
        assert np.array_equal(series.data, bundle.series.data.astype(np.float32))

    @pytest.mark.parametrize("config, key", [
        ({"s0": {"kind": "linear", "lo": 1}}, "s0.hi"),
        ({"f": {"kind": "two_region", "value_a": 0.2, "value_b": 0.3, "axis": 5}}, "f.axis"),
        ({"f": {"kind": "linear", "lo": 0.2, "hi": 0.3, "axis": -1}}, "f.axis"),
        ({"d": {"kind": "linear", "lo": 0.002, "hi": 0.003, "value": 1}}, "d.value"),
        ({"d_star": {"kind": "ramp", "lo": 0.01, "hi": 0.1}}, "d_star.kind"),
        ({"dims": [8, 32]}, "dims"),
        ({"spacing": [2.0, 2.0]}, "spacing"),
        ({"semi_axes_frac": [0.4, 0.4]}, "semi_axes_frac"),
        ({"noise_model": "poisson", "snr": 0}, "noise_model"),
        ({"seed": 2.5}, "seed"),
        ({"snr": {"kind": "linear", "lo": 30, "hi": 40}}, "snr"),
        ({"dims": [2, 2, 2], "semi_axes_frac": [0.3, 0.3, 0.3], "noise_model": "gaussian",
          "snr": 10}, "mask"),
        ({"f": 1.2}, "f"),
        ({"d_star": 0.001}, "d_star"),
        ({"dims": [3, 8, 8], "noise_model": "gaussian", "snr": float("nan")}, "snr"),
        ({"s0": True}, "s0"),
        ({"seed": False}, "seed"),
        ({"dims": [True, 8, 8]}, "dims"),
        ({"f": {"kind": "two_region", "value_a": True, "value_b": 0.3}}, "f.value_a"),
        ({"dims": [3, 8, 8], "noise_model": "gaussian", "snr": "30"}, "snr"),
        ({"dims": ["3", 8, 8]}, "dims"),
        ({"d": {"kind": "constant", "value": 0.002}}, "d.kind"),  # a number says it
        ({"dims": [3, 8, 8], "semi_axes_frac": [float("nan"), 0.4, 0.4]}, "semi_axes_frac"),
        ({"dims": [3, 8, 8], "semi_axes_frac": [-1, 0.4, 0.4]}, "semi_axes_frac"),
        ({"dims": [3, 8, 8], "semi_axes_frac": [0.01, 0.01, 0.01]}, "empty mask"),
        ({"dims": [3, 8, 8], "seed": -1}, "seed"),
        ({"dims": [3, 8, 8], "noise_model": "rician", "snr": float("inf")}, "snr"),
        ({"dims": [3, 8, 8], "snr": 1e999}, "snr"),  # JSON Infinity, no noise
    ])
    def test_malformed_config_exits_2_naming_the_key(self, tmp_path, capsys, config, key):
        (tmp_path / "p.json").write_text(json.dumps(config))
        code = cli.main(["phantom", str(tmp_path / "p"), "--config", str(tmp_path / "p.json")])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("text, named", [
        ('{"seed": 1, "seed": 2}', ["seed"]),
        ('{"dims": [3, 8, 8], "f": {"kind": "linear", "lo": 0.1, "hi": 0.3, "hi": 0.4}}',
         ["hi"]),
        ('{"dims": [3, 8, 8], "s0": Infinity}', ["s0", "Infinity"]),
        ('{"dims": [3, 8, 8], "s0": {"kind": "linear", "lo": 80, "hi": -Infinity}}',
         ["s0.hi", "-Infinity"]),
        ('{"dims": [3, 8, 8], "spacing": [7.2, NaN, 2.07]}', ["spacing", "NaN"]),
    ], ids=["repeated key", "repeated key in a field spec", "Infinity",
            "-Infinity in a field spec", "NaN in a list"])
    def test_config_that_is_not_strict_json_exits_2_naming_it(self, tmp_path, capsys,
                                                               text, named):
        # a repeated key is not last-one-wins, and JSON has no NaN or Infinity
        (tmp_path / "p.json").write_text(text)
        code = cli.main(["phantom", str(tmp_path / "p"), "--config", str(tmp_path / "p.json")])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert all(name in err for name in named), err
        assert not (tmp_path / "p").exists()

    def test_new_config_field_needs_no_cli_change(self, tmp_path, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class Extended(phantom.PhantomConfig):
            contrast: float = 1.0
            offsets: tuple[int, ...] = (0,)

        monkeypatch.setattr(phantom, "PhantomConfig", Extended)
        manifest = run_phantom(tmp_path / "p", {"dims": [3, 6, 6], "contrast": 2,
                                                "offsets": [1.0, 2]})
        assert manifest["config"]["dims"] == [3, 6, 6]
        text = (tmp_path / "p" / "manifest.json").read_text()
        assert '"contrast": 2.0' in text and manifest["config"]["offsets"] == [1, 2]
        assert run_phantom(tmp_path / "q", manifest["config"]) == manifest

    @settings(max_examples=40, deadline=None)
    @given(config=PHANTOM_CONFIGS)
    def test_manifest_config_round_trips(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            first = run_phantom(Path(tmp) / "first", config)
            second = run_phantom(Path(tmp) / "second", first["config"])
            assert second == first
            for name in ("manifest.json", "series.nii"):
                assert ((Path(tmp) / "first" / name).read_bytes()
                        == (Path(tmp) / "second" / name).read_bytes())


@dataclasses.dataclass(frozen=True)
class ExtendedFitConfig(ivim.IvimFitConfig):
    """A fit config with one more field."""

    d_star_max: float = 1.0


def series_as_mask(subject, tmp_path, sidecar: bool) -> str:
    """The subject's 4D series, with its .bval sidecar or copied away from it."""
    if sidecar:
        return str(subject / "series.nii")
    copy = tmp_path / "series_copy.nii"
    copy.write_bytes((subject / "series.nii").read_bytes())
    return str(copy)


MASK_IS_4D = "expected a 3D mask, found a 4D image"


class TestFit:
    def test_log_summary_is_the_summary_row(self, subject, tmp_path):
        series, bvals, mask = (str(subject / n) for n in
                               ("series.nii", "series.bval", "mask.nii"))
        out = tmp_path / "fit"
        assert cli.main(["fit", series, bvals, mask, str(out)]) == cli.EXIT_OK
        log = json.loads((out / "fit_log.json").read_text())

        maps = ivim.fit_volume(read_volume(series, bval_path=bvals), read_mask(mask))
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
        code = cli.main(["fit", series, bvals, mask, str(tmp_path / "fit")])
        assert code == cli.EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error:")

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("key", ["threads", "entropy_bins"])
    def test_removed_run_settings_exit_2(self, subject, tmp_path, capsys, source, key):
        series, bvals, mask = (str(subject / n) for n in
                               ("series.nii", "series.bval", "mask.nii"))
        args = ["fit", series, bvals, mask, str(tmp_path / "fit")]
        if source == "config":
            config = tmp_path / "fit.json"
            config.write_text(json.dumps({key: 1}))
            args += ["--config", str(config)]
        else:
            key = "--" + key.replace("_", "-")
            args += [key, "1"]
        assert exit_code(args) == cli.EXIT_INPUT
        assert key in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("config, key", [
        ({"adc_range": [1e-5]}, "adc_range"),
        ({"f_range": 5}, "f_range"),
        ({"f_range": [0.0, 0.5, 1.0]}, "f_range"),
        ({"entropy_bins": 2.7}, "entropy_bins"),
        ({"entropy_bins": 0}, "entropy_bins"),
        ({"threads": 1.9}, "threads"),
        ({"b_threshold": "high"}, "b_threshold"),
        ({"bins": 32}, "bins"),
        ({"b_threshold": True}, "b_threshold"),
        ({"adc_range": [1e-5, 2.0]}, "adc_range"),
        ({"b_threshold": "100"}, "b_threshold"),
    ])
    def test_malformed_config_exits_2_naming_the_key(self, subject, tmp_path, capsys,
                                                     config, key):
        (tmp_path / "fit.json").write_text(json.dumps(config))
        code = cli.main(["fit", *(str(subject / n) for n in
                                  ("series.nii", "series.bval", "mask.nii")),
                         str(tmp_path / "fit"), "--config", str(tmp_path / "fit.json")])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("text, named", [
        ('{"b_threshold": 100, "b_threshold": 300}', ["b_threshold"]),
        ('{"b_threshold": NaN}', ["b_threshold", "NaN"]),
        ('{"b_threshold": Infinity}', ["b_threshold", "Infinity"]),
    ], ids=["repeated key", "NaN", "Infinity"])
    def test_config_that_is_not_strict_json_exits_2_naming_it(self, subject, tmp_path, capsys,
                                                               text, named):
        (tmp_path / "fit.json").write_text(text)
        code = cli.main(["fit", *(str(subject / n) for n in
                                  ("series.nii", "series.bval", "mask.nii")),
                         str(tmp_path / "fit"), "--config", str(tmp_path / "fit.json")])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert all(name in err for name in named), err
        assert not (tmp_path / "fit").exists()

    def test_new_config_field_needs_no_cli_change(self, subject, tmp_path, monkeypatch):
        monkeypatch.setattr(ivim, "IvimFitConfig", ExtendedFitConfig)
        (tmp_path / "fit.json").write_text(json.dumps({"d_star_max": 2}))
        code = cli.main(["fit", *(str(subject / n) for n in
                                  ("series.nii", "series.bval", "mask.nii")),
                         str(tmp_path / "fit"), "--config", str(tmp_path / "fit.json")])
        assert code == cli.EXIT_OK
        text = (tmp_path / "fit" / "fit_log.json").read_text()
        assert '"d_star_max": 2.0' in text

    def test_config_echo_is_the_b_threshold_and_reads_back(self, subject, tmp_path):
        inputs = [str(subject / n) for n in ("series.nii", "series.bval", "mask.nii")]
        assert cli.main(["fit", *inputs, str(tmp_path / "first")]) == cli.EXIT_OK
        config = json.loads((tmp_path / "first" / "fit_log.json").read_text())["config"]
        assert json.dumps(config) == '{"b_threshold": 100.0}'
        (tmp_path / "fit.json").write_text(json.dumps(config))
        assert cli.main(["fit", *inputs, str(tmp_path / "second"),
                         "--config", str(tmp_path / "fit.json")]) == cli.EXIT_OK
        for name in ("s0", "f", "d_star", "adc", "residual"):
            assert ((tmp_path / "first" / f"{name}.nii").read_bytes()
                    == (tmp_path / "second" / f"{name}.nii").read_bytes()), name

    def test_one_fitted_voxel_has_no_summary(self, subject, tmp_path):
        mask = read_mask(subject / "mask.nii")
        one = np.zeros(mask.dims, dtype=bool)
        one[tuple(np.argwhere(mask.data)[0])] = True
        write_mask(BinaryMask(one, mask.spacing), tmp_path / "one.nii")
        code = cli.main(["fit", str(subject / "series.nii"), str(subject / "series.bval"),
                         str(tmp_path / "one.nii"), str(tmp_path / "fit")])
        assert code == cli.EXIT_OK
        log = json.loads((tmp_path / "fit" / "fit_log.json").read_text())
        assert log["voxels_fitted"] == 1 and log["summary"] is None

    def test_zero_f_subject_has_no_summary(self, tmp_path):
        # f is the one map whose mean can be 0, and then its CV is undefined
        made = tmp_path / "p"
        run_phantom(made, {"dims": [3, 10, 10], "f": 0.0})
        code = cli.main(["fit", *(str(made / n) for n in ("series.nii", "series.bval",
                                                           "mask.nii")), str(tmp_path / "fit")])
        assert code == cli.EXIT_OK
        log = json.loads((tmp_path / "fit" / "fit_log.json").read_text())
        assert log["voxels_fitted"] >= 2 and log["summary"] is None

    def test_noisy_default_subject_writes_finite_outputs_quietly(self, tmp_path):
        def run(*args):
            env = {**os.environ, "PYTHONPATH": str(Path(ivimlab.__file__).parents[1])}
            return subprocess.run([sys.executable, "-m", "ivimlab", *args], env=env,
                                  capture_output=True, text=True, timeout=300)

        def no_constant(name):
            raise ValueError(f"fit_log.json holds {name}, which is not JSON")

        subject, out = tmp_path / "subject", tmp_path / "fit"
        made = run("phantom", str(subject), "--noise", "rician", "--snr", "30", "--seed", "1")
        assert made.returncode == cli.EXIT_OK and made.stderr == ""
        fit = run("fit", *(str(subject / n) for n in ("series.nii", "series.bval", "mask.nii")),
                  str(out))
        assert fit.returncode == cli.EXIT_OK
        assert fit.stderr == ""
        log = json.loads((out / "fit_log.json").read_text(), parse_constant=no_constant)
        assert log["voxels_fitted"] > 0
        d_star = read_volume(out / "d_star.nii").data
        fitted = ~np.isnan(d_star)
        assert fitted.sum() == log["voxels_fitted"]
        assert np.isfinite(d_star[fitted]).all()

    def test_bvals_without_b0_exit_2_naming_the_sidecar(self, subject, tmp_path, capsys):
        bvals = tmp_path / "series.bval"
        text = (subject / "series.bval").read_text()
        assert text.startswith("0 ")
        bvals.write_text("5" + text[1:])
        code = cli.main(["fit", str(subject / "series.nii"), str(bvals),
                         str(subject / "mask.nii"), str(tmp_path / "fit")])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"error: {bvals}: a series must contain at least one b=0 frame\n"
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no sidecar"])
    def test_series_as_mask_exits_2_naming_it(self, subject, tmp_path, capsys, sidecar):
        mask = series_as_mask(subject, tmp_path, sidecar)
        code = cli.main(["fit", str(subject / "series.nii"), str(subject / "series.bval"),
                         mask, str(tmp_path / "fit")])
        assert code == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {mask}: {MASK_IS_4D}\n"

    def test_missing_input_exits_2(self, subject, tmp_path, capsys):
        code = cli.main(["fit", str(tmp_path / "absent.nii"), str(subject / "series.bval"),
                         str(subject / "mask.nii"), str(tmp_path / "fit")])
        assert code == cli.EXIT_INPUT
        assert "absent.nii" in capsys.readouterr().err

    @pytest.mark.parametrize("dims, spacing, grid", [
        ((3, 8, 9), (7.2, 2.07, 2.07), "(3, 8, 9)/(7.2, 2.07, 2.07)"),
        ((3, 8, 8), (7.2, 2.07, 2.5), "(3, 8, 8)/(7.2, 2.07, 2.5)"),
    ], ids=["dims", "spacing"])
    def test_mask_on_another_grid_exits_2_naming_both_grids(self, subject, tmp_path, capsys,
                                                            dims, spacing, grid):
        write_mask(BinaryMask(np.ones(dims, dtype=bool), VoxelSpacing(*spacing)),
                   tmp_path / "mask.nii")
        code = cli.main(["fit", str(subject / "series.nii"), str(subject / "series.bval"),
                         str(tmp_path / "mask.nii"), str(tmp_path / "fit")])
        assert code == cli.EXIT_INPUT
        assert capsys.readouterr().err == (f"error: mask grid {grid} does not match "
                                           f"series grid (3, 8, 8)/(7.2, 2.07, 2.07)\n")
        assert not (tmp_path / "fit").exists()

    def test_spacing_one_float32_step_away_fits(self, subject, tmp_path):
        mask = read_mask(subject / "mask.nii")
        dz, dy, dx = mask.spacing.as_tuple()
        nudged = float(np.nextafter(np.float32(dx), np.float32(np.inf)))
        write_mask(BinaryMask(mask.data, VoxelSpacing(dz, dy, nudged)), tmp_path / "mask.nii")
        assert read_mask(tmp_path / "mask.nii").spacing.dx == nudged != dx
        inputs = [str(subject / "series.nii"), str(subject / "series.bval")]
        assert cli.main(["fit", *inputs, str(subject / "mask.nii"),
                         str(tmp_path / "plain")]) == cli.EXIT_OK
        assert cli.main(["fit", *inputs, str(tmp_path / "mask.nii"),
                         str(tmp_path / "nudged")]) == cli.EXIT_OK
        for name in ("s0", "f", "d_star", "adc", "residual"):
            plain = read_volume(tmp_path / "plain" / f"{name}.nii").data
            assert np.array_equal(read_volume(tmp_path / "nudged" / f"{name}.nii").data, plain,
                                  equal_nan=True), name


class TestFuse:
    @pytest.mark.parametrize("strategy", list(masks.FusionStrategy))
    def test_output_is_the_written_fused_mask(self, subject, tmp_path, strategy):
        raters = [read_mask(subject / "mask.nii")]
        raters += [phantom.perturb_mask(raters[0], "boundary_flip", p=0.3, seed=s)
                   for s in (1, 2)]
        paths = []
        for i, rater in enumerate(raters):
            write_mask(rater, tmp_path / f"r{i}.nii")
            paths.append(str(tmp_path / f"r{i}.nii"))
        assert cli.main(["fuse", *paths, "--strategy", strategy.value,
                         "-o", str(tmp_path / "cli.nii")]) == cli.EXIT_OK
        write_mask(masks.fuse(raters, strategy), tmp_path / "api.nii")
        assert (tmp_path / "cli.nii").read_bytes() == (tmp_path / "api.nii").read_bytes()

    def test_unknown_strategy_exits_2(self, subject, tmp_path):
        mask = str(subject / "mask.nii")
        args = ["fuse", mask, mask, "-o", str(tmp_path / "fused.nii"), "--strategy"]
        assert cli.main(args + ["mean"]) == cli.EXIT_INPUT
        assert cli.main(args + ["LC"]) == cli.EXIT_OK


class TestMetrics:
    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no sidecar"])
    def test_4d_image_as_mask_exits_2_naming_it(self, subject, tmp_path, capsys, sidecar):
        mask = series_as_mask(subject, tmp_path, sidecar)
        assert cli.main(["metrics", str(subject / "mask.nii"), mask]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {mask}: {MASK_IS_4D}\n"

    def test_row_is_the_mask_metrics(self, subject, tmp_path, capsys):
        a = read_mask(subject / "mask.nii")
        b = phantom.perturb_mask(a, "boundary_flip", p=0.4, seed=1)
        write_mask(b, tmp_path / "b.nii")
        args = ["metrics", str(subject / "mask.nii"), str(tmp_path / "b.nii")]
        assert cli.main(args + ["-o", str(tmp_path / "m.csv"), "--case", "c1"]) == cli.EXIT_OK
        with open(tmp_path / "m.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"case": "c1", "dice": format(masks.dice(a, b), ".10g"),
                         "hd_mm": format(masks.hausdorff(a, b), ".10g"),
                         "vol_a_ml": format(a.volume_ml, ".10g"),
                         "vol_b_ml": format(b.volume_ml, ".10g")}]
        capsys.readouterr()
        assert cli.main(args + ["--case", "c1"]) == cli.EXIT_OK
        assert capsys.readouterr().out.encode() == (tmp_path / "m.csv").read_bytes()


def subjects(n: int, seed: int) -> list[fgr.SubjectRecord]:
    """Controls near the expected lung volume, growth-restricted ones about 30% below."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        group = fgr.Group.FGR if i % 3 == 0 else fgr.Group.CONTROL
        ga = float(np.round(rng.uniform(22.0, 38.0), 1))
        scale = (0.7 if group is fgr.Group.FGR else 1.0) * rng.normal(1.0, 0.12)
        records.append(fgr.SubjectRecord(f"P{seed}-{i}", ga, group,
                                         round(fgr.expected_tlv(ga) * scale, 3)))
    return records


def write_subjects(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "ga", "group", "tlv_ml"])
        writer.writerows([r.id, r.ga_weeks, r.group.value, r.tlv_ml] for r in records)
    return path


class TestClassify:
    def test_confusion_matrix_is_fgr_confusion(self, tmp_path):
        train, test = subjects(30, 1), subjects(15, 2)
        args = ["classify", str(write_subjects(train, tmp_path / "train.csv")),
                str(write_subjects(test, tmp_path / "test.csv")), "-o", str(tmp_path / "c.json")]
        assert cli.main(args) == cli.EXIT_OK
        out = json.loads((tmp_path / "c.json").read_text())
        model = fgr.train_classifier(train)
        predictions = [model.predict(r) for r in test]
        assert out["confusion_matrix"] == dataclasses.asdict(
            fgr.confusion(predictions, [r.group for r in test]))
        assert [p["predicted"] for p in out["test_predictions"]] == [
            p.value for p in predictions]
        assert (out["n_train"], out["n_test"]) == (30, 15)

    @pytest.mark.parametrize("bad", ["no tlv_ml", "14", "45+1", "46", "32+-1", "32+9",
                                     "32+3.5", "32+7"])
    def test_bad_subjects_file_exits_2(self, tmp_path, capsys, bad):
        path = write_subjects(subjects(6, 2), tmp_path / "test.csv")
        lines = path.read_text().splitlines()
        if bad == "no tlv_ml":
            lines = [line.rsplit(",", 1)[0] for line in lines]
        else:  # a gestational age outside 15-45 weeks or bad days on line 4
            cells = lines[3].split(",")
            cells[1] = bad
            lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        args = ["classify", str(write_subjects(subjects(30, 1), tmp_path / "train.csv")),
                str(path), "-o", str(tmp_path / "c.json")]
        assert cli.main(args) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert ("tlv_ml" if bad == "no tlv_ml" else "line 4") in err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("edit", list(LINE_EDITS))
    def test_bad_line_exits_2_naming_it(self, tmp_path, capsys, edit):
        path = edit_line(write_subjects(subjects(6, 2), tmp_path / "test.csv"), 3, edit)
        args = ["classify", str(write_subjects(subjects(30, 1), tmp_path / "train.csv")),
                str(path), "-o", str(tmp_path / "c.json")]
        assert cli.main(args) == cli.EXIT_INPUT
        assert_names_the_line(capsys.readouterr().err, edit, 4, "tlv_ml")
        assert not (tmp_path / "c.json").exists()


    @pytest.mark.parametrize("table", ["train", "test"])
    def test_repeated_id_exits_2_naming_both_lines(self, tmp_path, capsys, table):
        paths = {"train": write_subjects(subjects(30, 1), tmp_path / "train.csv"),
                 "test": write_subjects(subjects(6, 2), tmp_path / "test.csv")}
        lines = paths[table].read_text().splitlines()
        cells = lines[4].split(",")
        cells[0] = lines[1].split(",")[0]  # line 5 takes line 2's id
        lines[4] = ",".join(cells)
        paths[table].write_text("\n".join(lines) + "\n")
        args = ["classify", str(paths["train"]), str(paths["test"]),
                "-o", str(tmp_path / "c.json")]
        assert cli.main(args) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(paths[table]) in err and "line 5" in err and "line 2" in err
        assert not (tmp_path / "c.json").exists()

    def test_subject_in_both_tables_exits_2_naming_it_and_the_files(self, tmp_path, capsys):
        # the reported accuracy is held-out accuracy
        train = subjects(30, 1)
        paths = [write_subjects(train, tmp_path / "train.csv"),
                 write_subjects(subjects(6, 2) + train[3:5], tmp_path / "test.csv")]
        args = ["classify", *map(str, paths), "-o", str(tmp_path / "c.json")]
        assert cli.main(args) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert all(str(p) in err for p in paths)
        assert train[3].id in err and train[4].id in err and train[5].id not in err
        assert not (tmp_path / "c.json").exists()

    def test_groups_that_do_not_separate_exit_2(self, tmp_path, capsys):
        train = [fgr.SubjectRecord(i, 30.0, g, v) for i, g, v in
                 (("A", fgr.Group.FGR, 30.0), ("B", fgr.Group.FGR, 40.0),
                  ("C", fgr.Group.CONTROL, 30.0), ("D", fgr.Group.CONTROL, 40.0))]
        args = ["classify", str(write_subjects(train, tmp_path / "train.csv")),
                str(write_subjects(subjects(15, 2), tmp_path / "test.csv")),
                "-o", str(tmp_path / "c.json")]
        assert cli.main(args) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "do not separate" in err
        assert not (tmp_path / "c.json").exists()


class TestTables:
    @pytest.mark.parametrize("kind", ["summaries", "subjects", "fit config", "b-values"])
    def test_not_utf8_exits_2_naming_the_file(self, subject, tmp_path, capsys, kind):
        out = tmp_path / "out"
        series, bvals, mask = (str(subject / n) for n in
                               ("series.nii", "series.bval", "mask.nii"))
        if kind == "summaries":
            path = write_summaries(summaries_rows(), tmp_path / "summaries.csv")
            args = ["report", str(path), str(out)]
            old, new = b"S1,", b"S\xe91,"
        elif kind == "subjects":
            path = write_subjects(subjects(30, 1), tmp_path / "train.csv")
            test = write_subjects(subjects(15, 2), tmp_path / "test.csv")
            args = ["classify", str(path), str(test), "-o", str(out)]
            old, new = b"P1-1,", b"P1-\xe91,"
        elif kind == "fit config":
            path = tmp_path / "fit.json"
            path.write_text('{"b_threshold": 100.0}')
            args = ["fit", series, bvals, mask, str(out), "--config", str(path)]
            old, new = b"100.0", b"100.0 \xe9"
        else:
            path = tmp_path / "series.bval"
            path.write_bytes(Path(bvals).read_bytes())
            args = ["fit", series, str(path), mask, str(out)]
            old, new = b"600", b"600 \xe9"
        path.write_bytes(path.read_bytes().replace(old, new, 1))  # one Latin-1 byte
        assert path.read_bytes().count(b"\xe9") == 1
        assert cli.main(args) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8") and err.count("\n") == 1
        assert not out.exists()

    def test_byte_order_mark_is_read_past(self, tmp_path):
        summaries = write_summaries(summaries_rows(), tmp_path / "summaries.csv")
        train = write_subjects(subjects(30, 1), tmp_path / "train.csv")
        test = write_subjects(subjects(15, 2), tmp_path / "test.csv")
        for path in (summaries, train, test):
            bom = path.with_name("bom_" + path.name)
            bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for prefix in ("", "bom_"):
            assert cli.main(["report", str(tmp_path / f"{prefix}summaries.csv"),
                             str(tmp_path / f"{prefix}report")]) == cli.EXIT_OK
            assert cli.main(["classify", str(tmp_path / f"{prefix}train.csv"),
                             str(tmp_path / f"{prefix}test.csv"),
                             "-o", str(tmp_path / f"{prefix}c.json")]) == cli.EXIT_OK
        for name in ("paired_tests.csv", "group_cv.csv", "cv_agreement.csv"):
            assert ((tmp_path / "report" / name).read_bytes()
                    == (tmp_path / "bom_report" / name).read_bytes())
        plain = json.loads((tmp_path / "c.json").read_text())
        bom = json.loads((tmp_path / "bom_c.json").read_text())
        assert bom.pop("config") == {"train": str(tmp_path / "bom_train.csv"),
                                     "test": str(tmp_path / "bom_test.csv")}
        plain.pop("config")
        assert json_text(bom) == json_text(plain)

    def test_byte_order_mark_config_and_bvals_give_the_same_maps(self, subject, tmp_path):
        plain = {"series.bval": (subject / "series.bval").read_bytes(),
                 "fit.json": b'{"b_threshold": 100.0}'}
        for name, text in plain.items():
            (tmp_path / name).write_bytes(text)
            (tmp_path / f"bom_{name}").write_bytes(b"\xef\xbb\xbf" + text)
        for prefix in ("", "bom_"):
            assert cli.main(["fit", str(subject / "series.nii"),
                             str(tmp_path / f"{prefix}series.bval"), str(subject / "mask.nii"),
                             str(tmp_path / f"{prefix}fit"),
                             "--config", str(tmp_path / f"{prefix}fit.json")]) == cli.EXIT_OK
        for name in ("s0", "f", "d_star", "adc", "residual"):
            assert ((tmp_path / "fit" / f"{name}.nii").read_bytes()
                    == (tmp_path / "bom_fit" / f"{name}.nii").read_bytes()), name
        logs = [json.loads((tmp_path / d / "fit_log.json").read_text())
                for d in ("fit", "bom_fit")]
        for log in logs:
            log.pop("wall_time")
        assert json_text(logs[0]) == json_text(logs[1])

    def test_repeated_header_column_exits_2_naming_it(self, tmp_path, capsys):
        path = write_summaries(summaries_rows(), tmp_path / "summaries.csv")
        header, *lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in
                                [header + ",f_mean"] + [line + ",9.0" for line in lines]))
        assert cli.main(["report", str(path), str(tmp_path / "out")]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "f_mean" in err
        assert not (tmp_path / "out").exists()


def rendered_csv(rows: list[dict]) -> bytes:
    """A table as the CLI writes it: row keys as header, ``.10g`` floats, CRLF ends."""
    def cell(v):
        return format(v, ".10g") if isinstance(v, float) else str(v)

    lines = [",".join(rows[0])] + [",".join(cell(v) for v in row.values()) for row in rows]
    return "".join(line + "\r\n" for line in lines).encode()


class TestReport:
    def test_tables_are_the_rendered_report(self, tmp_path):
        rows = summaries_rows()
        path = write_summaries(rows, tmp_path / "summaries.csv")
        assert cli.main(["report", str(path), str(tmp_path / "out")]) == cli.EXIT_OK
        tables = report.build_report(rows)
        for name, table in (("paired_tests.csv", tables.paired), ("group_cv.csv", tables.cv),
                            ("cv_agreement.csv", tables.agreement)):
            assert (tmp_path / "out" / name).read_bytes() == rendered_csv(table), name

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

    def test_subject_with_two_groups_exits_2_naming_both_lines(self, tmp_path, capsys):
        rows = summaries_rows()
        rows[3]["group"] = "control"  # S1's automatic row; its manual row says fgr
        path = write_summaries(rows, tmp_path / "summaries.csv")
        assert cli.main(["report", str(path), str(tmp_path / "out")]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 5" in err and "line 4" in err and "S1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", list(LINE_EDITS))
    def test_bad_line_exits_2_naming_it(self, tmp_path, capsys, edit):
        path = edit_line(write_summaries(summaries_rows(), tmp_path / "s.csv"), 4, edit)
        assert cli.main(["report", str(path), str(tmp_path / "out")]) == cli.EXIT_INPUT
        assert_names_the_line(capsys.readouterr().err, edit, 5, report.SUMMARY_COLUMNS[-1])
        assert not (tmp_path / "out").exists()

    def test_zero_mean_cv_exits_2_naming_the_cell(self, tmp_path, capsys):
        rows = summaries_rows()
        for row in rows:
            if (row["source"], row["group"]) == ("manual", "control"):
                row["residual_mean"] = 0.0
        path = write_summaries(rows, tmp_path / "summaries.csv")
        assert cli.main(["report", str(path), str(tmp_path / "out")]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "olp/manual/control residual_mean:" in err and "zero-mean" in err
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


class TestImportCost:
    def test_cli_import_does_not_load_scipy_stats(self):
        # scipy.stats adds about 44 MB of resident memory at import
        env = {**os.environ, "PYTHONPATH": str(Path(ivimlab.__file__).parents[1])}
        probe = ("import sys, ivimlab.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
