"""Span tracing around ivimlab's public functions, applied from outside the package.

A :class:`Tracer` replaces public functions with timing wrappers through the
module attributes the package itself calls through: the defining module plus
every loaded ``ivimlab`` module that imported the same function by name (for
example ``report.summarize`` is ``ivim.summarize``). The residual of every
``lm.FitProblem`` that reaches ``lm.lm_fit`` is wrapped as well, which splits
the solver's own time from the time spent evaluating the model.

Each span records its name, start, end, parent span and run id (the pass or
set-up repetition it belongs to). Spans are kept in flat in-memory arrays and
written out once, with :meth:`Tracer.save`.

A target that no longer exists (a refactor renamed or removed it) is recorded
in :attr:`Tracer.absent`; metrics that depend on it are reported as ``None``
and everything else still runs.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

# (module, attribute path) of every wrapped public function; a dotted path
# names a method, which is patched on its class
TARGETS = (
    ("phantom", "make_phantom"), ("phantom", "perturb_mask"),
    ("nifti", "read_volume"), ("nifti", "read_mask"), ("nifti", "read_bvals"),
    ("nifti", "write_volume"), ("nifti", "write_mask"), ("nifti", "write_series"),
    ("nifti", "write_bvals"),
    ("grid", "average_by_bvalue"),
    ("ivim", "fit_volume"), ("ivim", "fit_adc"), ("ivim", "fit_ivim"),
    ("ivim", "boundary_hits"), ("ivim", "summarize"),
    ("lm", "lm_fit"),
    ("masks", "fuse"), ("masks", "dice"), ("masks", "hausdorff"),
    ("report", "summary_row"), ("report", "build_report"), ("report", "paired_table"),
    ("report", "cv_table"), ("report", "cv_agreement"),
    ("fgr", "train_classifier"), ("fgr", "roc"), ("fgr", "TrainedClassifier.predict"),
    ("cli", "main"),
)
# every public function of this module is wrapped, whatever their names
STATS_MODULE = "stats"

NIFTI_READS = ("nifti.read_volume", "nifti.read_mask", "nifti.read_bvals")
NIFTI_WRITES = ("nifti.write_volume", "nifti.write_mask", "nifti.write_series",
                "nifti.write_bvals")
RESIDUAL = "lm.residual"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


@dataclass
class Spans:
    """Flat span arrays: one row per span, times in nanoseconds."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    run: np.ndarray

    @property
    def dur(self) -> np.ndarray:
        return self.end - self.start

    def ids(self, *names: str) -> np.ndarray:
        return np.array([self.names.index(n) for n in names if n in self.names], dtype=np.int64)

    def self_ns(self) -> np.ndarray:
        """Duration minus the part covered by direct children."""
        dur = self.dur.astype(np.float64)
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return dur - covered


class Tracer:
    """Installs wrappers, records spans and per-call facts, and removes itself."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.run = 0
        self.absent: list[str] = []
        self.counters: dict[tuple[str, int], float] = defaultdict(float)
        # per lm_fit call: (run, iterations, converged, stopped at max_iter)
        self.lm_calls: list[tuple[int, int, bool, bool]] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._run = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run)
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[(key, self.run)] += value

    def wrap(self, fn: Callable, name, before=None, after=None) -> Callable:
        """A wrapper timing ``fn`` as one span.

        ``name`` is a span name or a function of the call's positional
        arguments; ``before(args, kwargs)`` may return replacement arguments;
        ``after(args, kwargs, result)`` records facts about the call.
        """
        fixed = None if callable(name) else self._name_id(name)

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            nid = fixed if fixed is not None else self._name_id(name(args))
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str = "ivimlab") -> None:
        for module, attr in TARGETS:
            self._install_one(package, module, attr)
        stats = importlib.import_module(f"{package}.{STATS_MODULE}")
        for attr, fn in sorted(vars(stats).items()):
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == stats.__name__):
                self._install_one(package, STATS_MODULE, attr)

    def _install_one(self, package: str, module: str, attr: str) -> None:
        try:
            mod = importlib.import_module(f"{package}.{module}")
        except ImportError:
            self.absent.append(span_name(module, attr))
            return
        owner = mod
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        name = span_name(module, attr)
        if original is None or not callable(original):
            self.absent.append(name)
            return
        wrapped = self.wrap(original, *self._hooks(name, original))
        self._patch(owner, leaf, wrapped)
        if owner is mod:
            # the package also calls this function through names bound by
            # ``from .module import name`` in its other modules
            prefix = package + "."
            for other_name, other in list(sys.modules.items()):
                if (other_name.startswith(prefix) and other is not mod
                        and getattr(other, leaf, None) is original):
                    self._patch(other, leaf, wrapped)

    def _patch(self, owner, leaf: str, wrapped) -> None:
        # an inherited method is not in the class __dict__; uninstall deletes it again
        self._patches.append((owner, leaf, vars(owner).get(leaf, _MISSING)))
        setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _hooks(self, name: str, original: Callable):
        """(span name, before, after) for one target."""
        signature = _signature(original)

        def arg(args, kwargs, pos_name):
            bound = signature.bind_partial(*args, **kwargs) if signature else None
            return bound.arguments.get(pos_name) if bound else None

        if name == "lm.lm_fit":
            options = getattr(sys.modules[original.__module__], "FitOptions", None)
            default_max_iter = getattr(options, "max_iter", None)

            def before(args, kwargs):
                problem = arg(args, kwargs, "problem")
                if not (dataclasses.is_dataclass(problem) and hasattr(problem, "residual")):
                    return args, kwargs
                traced = dataclasses.replace(problem,
                                             residual=self.wrap(problem.residual, RESIDUAL))
                if "problem" in kwargs:
                    return args, {**kwargs, "problem": traced}
                return (traced,) + tuple(args[1:]), kwargs

            def after(args, kwargs, result):
                iterations = int(getattr(result, "iterations", 0))
                max_iter = getattr(arg(args, kwargs, "opts"), "max_iter", None) or default_max_iter
                converged = bool(getattr(result, "converged", False))
                self.lm_calls.append((self.run, iterations, converged, not converged
                                      and max_iter is not None and iterations >= max_iter))
            return name, before, after

        if name in ("nifti.read_volume", "nifti.read_bvals"):
            def after(args, kwargs, result):
                self.count("nifti.bytes_read", os.path.getsize(arg(args, kwargs, "path")))
            return name, None, after

        if name in ("nifti.write_volume", "nifti.write_mask", "nifti.write_series",
                    "nifti.write_bvals"):
            def after(args, kwargs, result):
                self.count("nifti.bytes_written", os.path.getsize(arg(args, kwargs, "path")))
            return name, None, after

        if name == "grid.average_by_bvalue":
            def after(args, kwargs, result):
                self.count("grid.frames_in", len(args[0].frames))
                self.count("grid.frames_out", len(result.frames))
            return name, None, after

        if name == "ivim.fit_volume":
            def after(args, kwargs, result):
                self.count("ivim.voxels", int(np.count_nonzero(arg(args, kwargs, "mask").data)))
            return name, None, after

        if name == "masks.hausdorff":
            def after(args, kwargs, result):
                a, b = arg(args, kwargs, "a"), arg(args, kwargs, "b")
                self.count("masks.hausdorff_pairs",
                           np.count_nonzero(a.data) * np.count_nonzero(b.data))
            return name, None, after

        if name == "cli.main":
            def subcommand(args):
                argv = args[0] if args else None
                return f"cli.{argv[0]}" if argv else "cli.main"
            return subcommand, None, None

        return name, None, None

    # -- output ------------------------------------------------------------

    def spans(self) -> Spans:
        def arr(a):
            return np.frombuffer(a, dtype=np.int64).copy() if len(a) else np.zeros(0, np.int64)
        return Spans(list(self._names), arr(self._name), arr(self._start), arr(self._end),
                     arr(self._parent), arr(self._run))

    def save(self, path) -> None:
        """Write every span, the per-call lm facts and the counters to one .npz."""
        s = self.spans()
        lm = np.array(self.lm_calls, dtype=np.int64).reshape(-1, 4)
        counters = sorted(self.counters.items())
        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(s.names, dtype=str),
            name=s.name, start_ns=s.start, end_ns=s.end, parent=s.parent, run=s.run,
            lm_calls=lm, absent=np.array(self.absent, dtype=str),
            counter_keys=np.array([k for (k, _), _ in counters], dtype=str),
            counter_runs=np.array([r for (_, r), _ in counters], dtype=np.int64),
            counter_values=np.array([v for _, v in counters], dtype=np.float64),
        )


_MISSING = object()


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None



# ---------------------------------------------------------------------------
# per-layer metrics from one tracer's spans
# ---------------------------------------------------------------------------

def union_s(spans: Spans, run: int, names) -> float:
    """Seconds covered by spans named ``names`` in one run, nested ones counted once."""
    ids = spans.ids(*names)
    if ids.size == 0:
        return 0.0
    member = np.isin(spans.name, ids)
    total = 0
    for i in np.flatnonzero(member & (spans.run == run)):
        p = spans.parent[i]
        while p >= 0 and not member[p]:
            p = spans.parent[p]
        if p < 0:
            total += int(spans.end[i] - spans.start[i])
    return total / 1e9


def _in_run(spans: Spans, run: int, names) -> np.ndarray:
    return np.isin(spans.name, spans.ids(*names)) & (spans.run == run)


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _lm_calls(tracer, run):
    return [c for c in tracer.lm_calls if c[0] == run]


def _stats_names(spans: Spans) -> list[str]:
    return [n for n in spans.names if n.startswith(STATS_MODULE + ".")]


def _lm_self_s(t, s, r):
    self_ns = s.self_ns()
    return float(self_ns[_in_run(s, r, ["lm.lm_fit"])].sum()) / 1e9


def _read_mb_per_s(t, s, r):
    seconds = union_s(s, r, NIFTI_READS)
    return t.counters.get(("nifti.bytes_read", r), 0.0) / seconds / 1e6 if seconds else 0.0


def _us_per_voxel(t, s, r):
    voxels = t.counters.get(("ivim.voxels", r), 0.0)
    return union_s(s, r, ["ivim.fit_volume"]) / voxels * 1e6 if voxels else 0.0


def _residual_evals_per_call(t, s, r):
    calls = len(_lm_calls(t, r))
    return int(_in_run(s, r, [RESIDUAL]).sum()) / calls if calls else 0.0


def _lm_frac(t, r, column):
    calls = _lm_calls(t, r)
    return sum(1 for c in calls if c[column]) / len(calls) if calls else 0.0


# metric -> (wrapped targets it needs, function(tracer, spans, run) -> value)
PASS_METRICS = {
    "ivim.fit_volume_s": (["ivim.fit_volume"],
                          lambda t, s, r: union_s(s, r, ["ivim.fit_volume"])),
    "ivim.us_per_voxel": (["ivim.fit_volume"], _us_per_voxel),
    "ivim.summarize_s": (["ivim.summarize"],
                         lambda t, s, r: union_s(s, r, ["ivim.summarize"])),
    "lm.calls": (["lm.lm_fit"], lambda t, s, r: len(_lm_calls(t, r))),
    "lm.self_s": (["lm.lm_fit"], _lm_self_s),
    "lm.residual_s": (["lm.lm_fit"],
                      lambda t, s, r: float(s.dur[_in_run(s, r, [RESIDUAL])].sum()) / 1e9),
    "lm.residual_evals_per_call": (["lm.lm_fit"], _residual_evals_per_call),
    "lm.iterations_p50": (["lm.lm_fit"],
                          lambda t, s, r: _percentile([c[1] for c in _lm_calls(t, r)], 50)),
    "lm.iterations_p99": (["lm.lm_fit"],
                          lambda t, s, r: _percentile([c[1] for c in _lm_calls(t, r)], 99)),
    "lm.converged_frac": (["lm.lm_fit"], lambda t, s, r: _lm_frac(t, r, 2)),
    "lm.max_iter_frac": (["lm.lm_fit"], lambda t, s, r: _lm_frac(t, r, 3)),
    "nifti.read_s": (list(NIFTI_READS), lambda t, s, r: union_s(s, r, NIFTI_READS)),
    "nifti.read_mb_per_s": (list(NIFTI_READS), _read_mb_per_s),
    "nifti.bytes_read": (list(NIFTI_READS),
                         lambda t, s, r: t.counters.get(("nifti.bytes_read", r), 0.0)),
    "nifti.write_s": (list(NIFTI_WRITES), lambda t, s, r: union_s(s, r, NIFTI_WRITES)),
    "nifti.bytes_written": (list(NIFTI_WRITES),
                            lambda t, s, r: t.counters.get(("nifti.bytes_written", r), 0.0)),
    "grid.average_s": (["grid.average_by_bvalue"],
                       lambda t, s, r: union_s(s, r, ["grid.average_by_bvalue"])),
    "grid.frames_in": (["grid.average_by_bvalue"],
                       lambda t, s, r: t.counters.get(("grid.frames_in", r), 0.0)),
    "grid.frames_out": (["grid.average_by_bvalue"],
                        lambda t, s, r: t.counters.get(("grid.frames_out", r), 0.0)),
    "masks.fuse_s": (["masks.fuse"], lambda t, s, r: union_s(s, r, ["masks.fuse"])),
    "masks.dice_s": (["masks.dice"], lambda t, s, r: union_s(s, r, ["masks.dice"])),
    "masks.hausdorff_s": (["masks.hausdorff"],
                          lambda t, s, r: union_s(s, r, ["masks.hausdorff"])),
    "masks.hausdorff_pairs": (["masks.hausdorff"],
                              lambda t, s, r: t.counters.get(("masks.hausdorff_pairs", r), 0.0)),
    "stats.calls": ([],
                    lambda t, s, r: int(_in_run(s, r, _stats_names(s)).sum())),
    "stats.self_s": ([],
                     lambda t, s, r: float(s.self_ns()[_in_run(s, r, _stats_names(s))].sum()) / 1e9),
    "report.summary_row_s": (["report.summary_row"],
                             lambda t, s, r: union_s(s, r, ["report.summary_row"])),
    "report.build_report_s": (["report.build_report"],
                              lambda t, s, r: union_s(s, r, ["report.build_report"])),
    "fgr.train_s": (["fgr.train_classifier"],
                    lambda t, s, r: union_s(s, r, ["fgr.train_classifier"])),
    "fgr.predict_s": (["fgr.predict"], lambda t, s, r: union_s(s, r, ["fgr.predict"])),
    "cli.report_s": (["cli.main"], lambda t, s, r: union_s(s, r, ["cli.report"])),
    "cli.classify_s": (["cli.main"], lambda t, s, r: union_s(s, r, ["cli.classify"])),
}


def pass_metrics(tracer: Tracer, runs) -> dict[str, float | None]:
    """Median over ``runs`` of every per-pass metric; None where a target is absent."""
    spans = tracer.spans()
    out: dict[str, float | None] = {}
    for metric, (needs, fn) in PASS_METRICS.items():
        if any(n in tracer.absent for n in needs) or not runs:
            out[metric] = None
            continue
        out[metric] = float(np.median([fn(tracer, spans, r) for r in runs]))
    return out


def setup_make_s(tracer: Tracer, runs) -> float | None:
    """Median over set-up repetitions of the time spent in ``phantom.make_phantom``."""
    if "phantom.make_phantom" in tracer.absent or not runs:
        return None
    spans = tracer.spans()
    return float(np.median([union_s(spans, r, ["phantom.make_phantom"]) for r in runs]))
