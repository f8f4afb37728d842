"""Command-line pipeline: phantom, fit, fuse, metrics, report, classify.

Every subcommand is deterministic given identical inputs, flags and seeds,
writes its outputs atomically (temp file + rename) and echoes its fully
resolved configuration into the run's JSON/manifest output. Exit codes:
0 success, 2 input/usage problem (single-line diagnostic on stderr),
1 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time
from pathlib import Path

from . import fgr, ivim, masks, phantom, report
from .errors import FormatError
from .grid import DwiSeries, average_by_bvalue
from .nifti import (_atomic_write, read_mask, read_volume, write_mask,
                    write_series, write_volume)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _write_json(payload: dict, path) -> None:
    _atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _write_csv(rows: list[dict], columns: list[str], path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(c)) for c in columns])
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def _format_cell(value):
    if isinstance(value, float):
        return format(value, ".10g")
    return value


def _load_config(path, defaults: dict) -> dict:
    """Merge a JSON config over defaults; unknown keys are an error."""
    resolved = dict(defaults)
    if path is None:
        return resolved
    with open(path) as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(user, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    unknown = sorted(set(user) - set(defaults))
    if unknown:
        raise FormatError(f"{path}: unknown config keys {unknown}")
    resolved.update(user)
    return resolved


def _config_defaults(config_class) -> dict:
    """A config dataclass's field defaults as JSON values (tuples become lists)."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(config_class)}


def _default_threads() -> int:
    env = os.environ.get("IVIMLAB_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"IVIMLAB_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise ValueError("IVIMLAB_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _field_spec_from_json(value) -> phantom.FieldSpec:
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, dict):
        kind = value.get("kind")
        if kind == "constant":
            return phantom.Constant(float(value["value"]))
        if kind == "linear":
            return phantom.LinearGradient(float(value["lo"]), float(value["hi"]),
                                          int(value.get("axis", 0)))
        if kind == "two_region":
            return phantom.TwoRegion(float(value["value_a"]), float(value["value_b"]),
                                     int(value.get("axis", 0)))
    raise FormatError(f"invalid truth-field spec {value!r}")


def _field_spec_to_json(spec: phantom.FieldSpec):
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, phantom.Constant):
        return {"kind": "constant", "value": spec.value}
    if isinstance(spec, phantom.LinearGradient):
        return {"kind": "linear", "lo": spec.lo, "hi": spec.hi, "axis": spec.axis}
    return {"kind": "two_region", "value_a": spec.value_a, "value_b": spec.value_b,
            "axis": spec.axis}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_phantom(args) -> int:
    cfg_dict = _load_config(args.config, _config_defaults(phantom.PhantomConfig))
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    if args.noise is not None:
        cfg_dict["noise_model"] = args.noise
    if args.snr is not None:
        cfg_dict["snr"] = args.snr

    cfg = phantom.PhantomConfig(
        dims=tuple(int(n) for n in cfg_dict["dims"]),
        spacing=tuple(float(v) for v in cfg_dict["spacing"]),
        bvalues=tuple(float(b) for b in cfg_dict["bvalues"]),
        semi_axes_frac=tuple(float(v) for v in cfg_dict["semi_axes_frac"]),
        s0=_field_spec_from_json(cfg_dict["s0"]),
        f=_field_spec_from_json(cfg_dict["f"]),
        d_star=_field_spec_from_json(cfg_dict["d_star"]),
        d=_field_spec_from_json(cfg_dict["d"]),
        noise_model=str(cfg_dict["noise_model"]),
        snr=float(cfg_dict["snr"]),
        seed=int(cfg_dict["seed"]),
    )
    bundle = phantom.make_phantom(cfg)

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_series(bundle.series, out / "series.nii")
    write_mask(bundle.mask, out / "mask.nii")
    for name, vol in (("s0", bundle.truth.s0), ("f", bundle.truth.f),
                      ("d_star", bundle.truth.d_star), ("adc", bundle.truth.adc)):
        write_volume(vol, out / f"truth_{name}.nii")
    manifest = {
        "config": {
            "dims": list(cfg.dims), "spacing": list(cfg.spacing),
            "bvalues": list(cfg.bvalues),
            "semi_axes_frac": list(cfg.semi_axes_frac),
            "s0": _field_spec_to_json(cfg.s0), "f": _field_spec_to_json(cfg.f),
            "d_star": _field_spec_to_json(cfg.d_star), "d": _field_spec_to_json(cfg.d),
            "noise_model": cfg.noise_model, "snr": cfg.snr, "seed": cfg.seed,
        },
        "mask_voxels": bundle.mask.voxel_count,
        "mask_volume_ml": bundle.mask.volume_ml,
        "outputs": ["series.nii", "series.bval", "mask.nii", "truth_s0.nii",
                    "truth_f.nii", "truth_d_star.nii", "truth_adc.nii"],
    }
    _write_json(manifest, out / "manifest.json")
    return EXIT_OK


def _cmd_fit(args) -> int:
    defaults = {**_config_defaults(ivim.IvimFitConfig), "entropy_bins": 64, "threads": None}
    cfg_dict = _load_config(args.config, defaults)
    if args.b_threshold is not None:
        cfg_dict["b_threshold"] = args.b_threshold
    if args.threads is not None:
        cfg_dict["threads"] = args.threads
    if args.entropy_bins is not None:
        cfg_dict["entropy_bins"] = args.entropy_bins
    if cfg_dict["threads"] is None:
        threads = _default_threads()
    else:
        threads = int(cfg_dict["threads"])
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")

    cfg = ivim.IvimFitConfig(
        b_threshold=float(cfg_dict["b_threshold"]),
        adc_range=tuple(float(v) for v in cfg_dict["adc_range"]),
        f_range=tuple(float(v) for v in cfg_dict["f_range"]),
    )

    for path in (args.series, args.bvals, args.mask):
        if not Path(path).exists():
            raise FileNotFoundError(f"input not found: {path}")
    series = read_volume(args.series, bval_path=args.bvals)
    if not isinstance(series, DwiSeries):
        raise FormatError(f"{args.series}: expected a 4D series")
    mask = read_mask(args.mask)

    start = time.perf_counter()
    series = average_by_bvalue(series)
    maps = ivim.fit_volume(series, mask, cfg, workers=threads)
    wall = time.perf_counter() - start

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, vol in (("s0", maps.s0), ("f", maps.f), ("d_star", maps.d_star),
                      ("adc", maps.adc), ("residual", maps.residual)):
        write_volume(vol, out / f"{name}.nii")

    fitted = maps.mask.voxel_count
    log = {
        "config": {
            "b_threshold": cfg.b_threshold,
            "adc_range": list(cfg.adc_range),
            "f_range": list(cfg.f_range),
            "entropy_bins": int(cfg_dict["entropy_bins"]),
            "threads": threads,
        },
        "voxels_fitted": fitted,
        "voxels_failed": mask.voxel_count - fitted,
        "boundary_hits": ivim.boundary_hits(maps, cfg),
        "wall_time": wall,
        "summary": report.summary_metrics(maps, int(cfg_dict["entropy_bins"])),
    }
    _write_json(log, out / "fit_log.json")
    return EXIT_OK


def _cmd_fuse(args) -> int:
    strategy = masks.FusionStrategy.parse(args.strategy)
    loaded = [read_mask(p) for p in args.masks]
    fused = masks.fuse(loaded, strategy)
    write_mask(fused, args.output)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    a = read_mask(args.mask_a)
    b = read_mask(args.mask_b)
    case = args.case or f"{Path(args.mask_a).stem}_vs_{Path(args.mask_b).stem}"
    row = {
        "case": case,
        "dice": masks.dice(a, b),
        "hd_mm": masks.hausdorff(a, b),
        "vol_a_ml": a.volume_ml,
        "vol_b_ml": b.volume_ml,
    }
    columns = ["case", "dice", "hd_mm", "vol_a_ml", "vol_b_ml"]
    if args.output:
        _write_csv([row], columns, args.output)
    else:
        writer = csv.writer(sys.stdout, lineterminator="\r\n")
        writer.writerow(columns)
        writer.writerow([_format_cell(row[c]) for c in columns])
    return EXIT_OK


def _read_summaries(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        raw = list(reader)
    if not raw:
        raise FormatError(f"{path}: empty summaries table")
    missing = [c for c in report.SUMMARY_COLUMNS if c not in (reader.fieldnames or [])]
    if missing:
        raise FormatError(f"{path}: missing columns {missing}")
    rows = []
    first_line = {}  # (subject, source, strategy) -> line number
    first_group = {}  # subject -> (group, line number)
    for i, r in enumerate(raw, start=2):
        row = dict(r)
        if None in r.values():
            raise FormatError(f"{path}: line {i}: too few fields")
        try:
            row["group"] = fgr.Group.parse(r["group"]).value
            row["strategy"] = masks.FusionStrategy.parse(r["strategy"]).value
        except ValueError as exc:
            raise FormatError(f"{path}: line {i}: {exc}") from None
        row["source"] = r["source"].strip().lower()
        if row["source"] not in report.SOURCES:
            raise FormatError(f"{path}: line {i}: unknown source {r['source']!r}; "
                              f"expected one of {', '.join(report.SOURCES)}")
        key = (row["subject"], row["source"], row["strategy"])
        if key in first_line:
            raise FormatError(f"{path}: line {i}: repeats line {first_line[key]} "
                              f"({', '.join(key)})")
        first_line[key] = i
        group, j = first_group.setdefault(row["subject"], (row["group"], i))
        if row["group"] != group:
            raise FormatError(f"{path}: line {i}: subject {row['subject']} is {row['group']} "
                              f"but line {j} says {group}")
        for col in report.ALL_METRICS:
            try:
                row[col] = float(r[col])
            except (TypeError, ValueError):
                raise FormatError(f"{path}: line {i}: bad number in {col}") from None
        rows.append(row)
    return rows


def _cmd_report(args) -> int:
    rows = _read_summaries(args.summaries)
    tables = report.build_report(rows)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    strategies = [k for k in tables.paired[0] if k != "metric"]
    _write_csv(tables.paired, ["metric"] + strategies, out / "paired_tests.csv")
    cv_cols = ["parameter"] + [k for k in tables.cv[0] if k != "parameter"]
    _write_csv(tables.cv, cv_cols, out / "group_cv.csv")
    _write_csv(tables.agreement, ["strategy", "mean_abs_pct_diff", "n_pairs"],
               out / "cv_agreement.csv")
    return EXIT_OK


def _read_subjects(path) -> list[fgr.SubjectRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"id", "ga", "group", "tlv_ml"}
        missing = required - set(reader.fieldnames or [])
        if missing:
            raise FormatError(f"{path}: missing columns {sorted(missing)}")
        records = []
        for i, row in enumerate(reader, start=2):
            try:
                records.append(fgr.SubjectRecord(
                    id=row["id"],
                    ga_weeks=fgr.parse_ga_weeks(row["ga"]),
                    group=fgr.Group.parse(row["group"]),
                    tlv_ml=float(row["tlv_ml"]),
                ))
            except ValueError as exc:
                raise FormatError(f"{path}: line {i}: {exc}") from None
    if not records:
        raise FormatError(f"{path}: no subjects found")
    return records


def _cmd_classify(args) -> int:
    train = _read_subjects(args.train)
    test = _read_subjects(args.test)
    model = fgr.train_classifier(train)
    predictions = [model.predict(r) for r in test]
    actual = [r.group for r in test]
    conf = fgr.confusion(predictions, actual)
    out = {
        "config": {"train": str(args.train), "test": str(args.test)},
        "n_train": len(train),
        "n_test": len(test),
        "control_mean": model.control_mean,
        "control_sd": model.control_sd,
        "auc": model.auc,
        "youden_threshold": model.threshold,
        "youden_j": model.youden_j,
        "polarity": model.polarity.value,
        "polarity_note": (
            "score direction picked by training AUC; growth-restricted lungs "
            "are smaller, so positive_low (ratio below threshold = FGR) is the "
            "physiologically expected direction"
        ),
        "confusion_matrix": {"tp": conf.tp, "fp": conf.fp, "tn": conf.tn, "fn": conf.fn},
        "accuracy": conf.accuracy,
        "test_predictions": [
            {"id": r.id, "score": model.score(r), "predicted": p.value,
             "actual": r.group.value}
            for r, p in zip(test, predictions)
        ],
    }
    _write_json(out, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivimlab",
        description="IVIM parameter mapping and lung-volume analysis for DWI series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic series with known truth")
    p.add_argument("outdir")
    p.add_argument("--config", help="JSON phantom configuration")
    p.add_argument("--seed", type=int)
    p.add_argument("--noise", choices=["none", "gaussian", "rician"])
    p.add_argument("--snr", type=float)
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("fit", help="voxel-wise two-step model fit over a mask")
    p.add_argument("series", help="4D .nii image")
    p.add_argument("bvals", help=".bval sidecar")
    p.add_argument("mask", help="3D binary mask .nii")
    p.add_argument("outdir")
    p.add_argument("--config", help="JSON fit configuration")
    p.add_argument("--b-threshold", type=float, dest="b_threshold")
    p.add_argument("--entropy-bins", type=int, dest="entropy_bins")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("fuse", help="fuse several masks into one")
    p.add_argument("masks", nargs="+")
    p.add_argument("--strategy", required=True, help="olp | avg | lc (any case)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("metrics", help="overlap metrics between two masks")
    p.add_argument("mask_a")
    p.add_argument("mask_b")
    p.add_argument("-o", "--output", help="CSV path (default: stdout)")
    p.add_argument("--case", help="label for the CSV row")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("report", help="manual-vs-automatic cohort comparison tables")
    p.add_argument("summaries", help="per-subject summaries CSV")
    p.add_argument("outdir")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("classify", help="train and apply the lung-volume classifier")
    p.add_argument("train", help="training subjects CSV (id,ga,group,tlv_ml)")
    p.add_argument("test", help="test subjects CSV")
    p.add_argument("-o", "--output", required=True, help="JSON report path")
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        message = str(exc).splitlines()[0] if str(exc) else exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # internal failure
        print(f"internal error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
