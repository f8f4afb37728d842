"""Command-line pipeline: phantom, fit, fuse, metrics, report, classify.

``--config`` belongs to ``phantom`` alone: its JSON file holds the fields of
``phantom.PhantomConfig``. Lists stand for tuples, an absent key keeps the
default, and a number is never JSON ``true``/``false`` or a string (``30``,
not ``"30"``). A truth field is a number, the same in every voxel, or an
object with a ``kind`` (``linear`` or ``two_region``) and that field-spec
class's fields. A flag overrides its config key. The file is strict JSON: a
key repeated in any object, or a ``NaN``, ``Infinity`` or ``-Infinity``,
exits 2. The manifest echoes the resolved config, which reads back as
``--config``. ``fit`` takes no settings (its b threshold is
``ivim.B_THRESHOLD``) and runs in one process.

The reader that opens an input file reports it, by its path, when it is
missing. Every text input (a ``--config`` file, a table, a ``.bval`` sidecar)
is UTF-8, and a leading byte-order mark is read past. The summaries table of
``report`` and the subjects tables of ``classify`` are CSV files with a header
line that names each column once. Each must hold the required columns and at
least one data line, with exactly one cell per header column on every line
(blank lines are skipped); number cells must be finite, labels (group, source,
strategy) are read in any case, ``ga`` is decimal weeks or ``w+d`` with whole
weeks and whole days 0-6, and no subject ``id`` is on two lines of a subjects
table or in both tables of ``classify``. A table that breaks a rule exits 2,
naming the file line where a line breaks it; ``report.build_report`` checks
the summary-row rules and ``fgr.SubjectRecord`` the subject ranges.

Every subcommand is deterministic given identical inputs, flags and seeds,
except for the ``wall_time`` of ``fit_log.json``, which is a clock reading.
Every subcommand writes its outputs atomically (temp file + rename). Exit
codes: 0 success; 2 input/usage problem, reported in one line on stderr
before any output is written; 1 internal failure. Every input check raises a
plain ``ValueError`` (a malformed config value, a file that is not UTF-8,
grids that differ, a metric undefined for the data) or ``OSError`` (a missing
or unreadable file), and those two exit 2; any other exception exits 1.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import operator
import sys
import time
import typing
from pathlib import Path

from . import fgr, ivim, masks, phantom, report
from .nifti import (_atomic_write, _read_text, read_mask, read_volume,
                    write_mask, write_series, write_volume)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _write_json(payload: dict, path) -> None:
    _atomic_write(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])


def _write_csv(rows: list[dict], path) -> None:
    """``rows`` as CSV to ``path``, or to stdout if it is None.

    The first row's keys are the header; floats are written ``.10g`` and
    lines end in CRLF.
    """
    columns = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format(row[c], ".10g") if isinstance(row[c], float) else row[c]
                         for c in columns])
    if path is None:
        sys.stdout.write(buf.getvalue())
    else:
        _atomic_write(path, [buf.getvalue().encode("utf-8")])


def _read_table(path, columns, parse) -> list:
    """``parse(line, row)`` of each data line of a CSV table with a header line.

    ``row`` maps the header's names to the line's cells and ``line`` is the
    file line where its record starts (a quoted cell may run on over more
    lines). The header must name each of ``columns`` and no column twice, each
    data line must hold one cell per header column (blank lines are skipped),
    and one data line at least must be there. A ValueError that ``parse``
    raises is reported with the line.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    lines = _records(reader, path)
    _, header = next(lines, (1, []))
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise ValueError(f"{path}: header names columns {repeated} more than once")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    records = []
    for line, cells in lines:
        if not cells:
            continue
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells for {len(header)} header columns")
            records.append(parse(line, dict(zip(header, cells))))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no data lines")
    return records


def _records(reader, path):
    """(file line where it starts, cells) of each record of a ``csv.reader``. A
    ``csv.Error``, such as a cell past the csv module's field limit, becomes a
    ValueError naming the file line where its record starts."""
    while True:
        start = reader.line_num + 1
        try:
            cells = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValueError(f"{path}: line {start}: {exc}") from None
        yield start, cells


def _finite(row: dict, column: str) -> float:
    """The cell of ``column`` as a finite number; ValueError naming the column."""
    try:
        value = float(row[column])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{column} must be a finite number, got {row[column]!r}")
    return value


# the JSON "kind" of each truth-field spec class
_FIELD_SPECS = {"linear": phantom.LinearGradient, "two_region": phantom.TwoRegion}
_FIELD_SPEC_KINDS = {cls: kind for kind, cls in _FIELD_SPECS.items()}


def _load_config(path, cls, **overrides):
    """The config class ``cls`` from a JSON file and flag ``overrides``.

    An unset (None) flag leaves the file's value.
    """
    values = {}
    if path is not None:
        text = _read_text(path)
        try:
            values = json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_Constant)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
        except ValueError as exc:  # a repeated key
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(values, dict):
            raise ValueError(f"{path}: config must be a JSON object")
    values.update((k, v) for k, v in overrides.items() if v is not None)
    return _build(cls, values)


class _Constant(str):
    """NaN, Infinity or -Infinity as read from a config; ``_cast`` rejects it, naming its key."""


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its (key, value) pairs; ValueError naming each key that repeats."""
    keys = [k for k, _ in pairs]
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise ValueError(f"config repeats keys {repeated}")
    return dict(pairs)


def _cast(hint, value, key: str):
    """A JSON value as the annotated type ``hint`` of config key ``key``."""
    if isinstance(value, _Constant):
        raise ValueError(f"{key} holds {value}, which is not JSON")
    if hint == phantom.FieldSpec:
        if isinstance(value, dict):
            return _field_spec(value, key)
        if not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be a number or a field spec, got {value!r}")
        hint = float
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_cast(item, v, key) for v in value)
    try:
        if isinstance(value, (bool, str)) and hint in (int, float):  # true/false, "30"
            raise TypeError
        cast = hint(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key}: expected {hint.__name__}, got {value!r}") from None
    if hint is int and isinstance(value, float) and cast != value:  # no silent truncation
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return cast


def _build(cls, values: dict, prefix: str = ""):
    """A config dataclass from the JSON ``values`` of its fields.

    Every key must name a field of ``cls``. Each value is cast to its field's
    annotated type before the class validates itself; ``prefix`` (say
    ``"f."``) leads every key in messages.
    """
    fields = dataclasses.fields(cls)
    unknown = sorted(set(values).difference(f.name for f in fields))
    if unknown:
        raise ValueError(f"unknown config keys {[prefix + k for k in unknown]}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        if f.name in values:
            kwargs[f.name] = _cast(hints[f.name], values[f.name], prefix + f.name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{prefix}{f.name} is missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


def _field_spec(value: dict, key: str):
    fields = dict(value)
    kind = fields.pop("kind", None)
    if kind not in _FIELD_SPECS:
        raise ValueError(f"{key}.kind must be one of {sorted(_FIELD_SPECS)}, got {kind!r}")
    return _build(_FIELD_SPECS[kind], fields, key + ".")


def _to_json(value):
    """A config as the JSON that ``_build`` reads back: tuples become lists and
    dataclasses objects, with a ``kind`` for a field spec."""
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if not dataclasses.is_dataclass(value):
        return value
    fields = {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    kind = _FIELD_SPEC_KINDS.get(type(value))
    return fields if kind is None else {"kind": kind, **fields}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_phantom(args) -> int:
    cfg = _load_config(args.config, phantom.PhantomConfig, seed=args.seed,
                       noise_model=args.noise, snr=args.snr)
    bundle = phantom.make_phantom(cfg)

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_series(bundle.series, out / "series.nii")
    write_mask(bundle.mask, out / "mask.nii")
    for name in ("s0", "f", "d_star", "adc"):
        write_volume(getattr(bundle.truth, name), out / f"truth_{name}.nii")
    manifest = {
        "config": _to_json(cfg),
        "mask_voxels": bundle.mask.voxel_count,
        "mask_volume_ml": bundle.mask.volume_ml,
        "outputs": ["series.nii", "series.bval", "mask.nii", "truth_s0.nii",
                    "truth_f.nii", "truth_d_star.nii", "truth_adc.nii"],
    }
    _write_json(manifest, out / "manifest.json")
    return EXIT_OK


def _cmd_fit(args) -> int:
    series = read_volume(args.series, bval_path=args.bvals)
    mask = read_mask(args.mask)

    start = time.perf_counter()
    maps = ivim.fit_volume(series, mask)
    wall = time.perf_counter() - start

    fitted = maps.mask.voxel_count
    log = {
        "voxels_fitted": fitted,
        "voxels_failed": mask.voxel_count - fitted,
        "boundary_hits": ivim.boundary_hits(maps),
        "wall_time": wall,
        "summary": ivim.summarize(maps),
    }
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("s0", "f", "d_star", "adc", "residual"):
        write_volume(getattr(maps, name), out / f"{name}.nii")
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
    row = {
        "case": f"{Path(args.mask_a).stem}_vs_{Path(args.mask_b).stem}",
        "dice": masks.dice(a, b),
        "hd_mm": masks.hausdorff(a, b),
        "vol_a_ml": a.volume_ml,
        "vol_b_ml": b.volume_ml,
    }
    _write_csv([row], args.output)
    return EXIT_OK


# the canonical (lower-case) group and strategy labels
_GROUPS = frozenset(group.value for group in fgr.Group)
_STRATEGIES = frozenset(strategy.value for strategy in masks.FusionStrategy)


def _read_summaries(path) -> tuple[list[dict], list[str]]:
    """The rows of a summaries table with group, source, strategy and number
    cells cast, and each row's ``line N``; ``report.build_report`` checks them.

    A row's number cells are cast in one pass; where one is not a finite
    number, ``_finite`` goes through them in column order to name the first.
    """
    metric_cells = operator.itemgetter(*report.ALL_METRICS)

    def parse(i: int, row: dict) -> tuple[str, dict]:
        group, strategy = row["group"].strip().lower(), row["strategy"].strip().lower()
        if group not in _GROUPS:
            fgr.Group.parse(row["group"])  # raises, naming the label
        if strategy not in _STRATEGIES:
            masks.FusionStrategy.parse(row["strategy"])  # raises, naming the label
        row["group"], row["strategy"] = group, strategy
        row["source"] = row["source"].strip().lower()
        try:
            values = tuple(map(float, metric_cells(row)))
            finite = all(map(math.isfinite, values))
        except ValueError:
            finite = False
        if not finite:  # raises, naming the first bad column
            values = tuple(_finite(row, col) for col in report.ALL_METRICS)
        row.update(zip(report.ALL_METRICS, values))
        return f"line {i}", row

    labels, rows = zip(*_read_table(path, report.SUMMARY_COLUMNS, parse))
    return list(rows), list(labels)


def _cmd_report(args) -> int:
    rows, labels = _read_summaries(args.summaries)
    try:
        tables = report.build_report(rows, labels)
    except ValueError as exc:
        raise ValueError(f"{args.summaries}: {exc}") from None
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(tables.paired, out / "paired_tests.csv")
    _write_csv(tables.cv, out / "group_cv.csv")
    _write_csv(tables.agreement, out / "cv_agreement.csv")
    return EXIT_OK


def _read_subjects(path) -> list[fgr.SubjectRecord]:
    """The subjects of a table, each id on one line only."""
    seen = {}  # id -> its line

    def parse(i: int, row: dict) -> fgr.SubjectRecord:
        if row["id"] in seen:
            raise ValueError(f"subject {row['id']!r} repeats line {seen[row['id']]}")
        seen[row["id"]] = i
        return fgr.SubjectRecord(id=row["id"], ga_weeks=fgr.parse_ga_weeks(row["ga"]),
                                 group=fgr.Group.parse(row["group"]),
                                 tlv_ml=_finite(row, "tlv_ml"))

    return _read_table(path, ["id", "ga", "group", "tlv_ml"], parse)


def _cmd_classify(args) -> int:
    train = _read_subjects(args.train)
    test = _read_subjects(args.test)
    shared = sorted({r.id for r in train} & {r.id for r in test})
    if shared:  # the accuracy is held-out accuracy
        raise ValueError(f"subjects {shared} are in both {args.train} and {args.test}")
    try:
        model = fgr.train_classifier(train)
    except ValueError as exc:
        raise ValueError(f"{args.train}: {exc}") from None
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first call only: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        message = str(exc).splitlines()[0] if str(exc) else exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # internal failure
        print(f"internal error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
