"""ivimlab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports ivimlab from ``src/``. Set-up
generates the workload's inputs from the seed (several times, reporting the
median) and writes them to a scratch directory inside the checkout. A fresh
child process then runs passes for ``--seconds`` seconds. Set-up and pass
times are scaled to a reference machine speed (see ``speed.py``). The
correctness checks and the CLI smoke check run once, after the passes,
untimed.

With ``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric; with ``--trace 1`` the child first repeats the
untraced passes, then runs traced passes with wrappers around the package's
public functions, and the JSON holds every per-layer metric and the tracing
overhead. The exit code is 0 only if every check passed; a missing program
exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_BASE = ROOT / ".perfbench-work"
TRACE_DIR = ROOT / ".perfbench-out"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_TOTAL_S = 1.0
CHILD_TIMEOUT_S = 150
# printed for reading, not part of the result line
EXTRA_UNITS = {"voxels_per_s": "voxels/s", "voxels_failed": "count", "dstar_nonphysical": "count",
               "setup_s_raw": "s", "run_s_raw": "s"}


def _metric_spec() -> dict:
    spec = json.loads(BENCHMARK.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_setup(workload, seed: int, wd: Path, tracer=None) -> tuple[dict, "speed.SpeedSampler"]:
    """Set up at least SETUP_MIN_REPEATS times and for SETUP_MIN_TOTAL_S seconds.

    Returns the inputs and the sampler holding the repetitions' times.
    """
    import speed
    sampler, data = speed.SpeedSampler(), None
    with sampler:
        n, t_start = 0, time.perf_counter()
        while n < SETUP_MIN_REPEATS or (time.perf_counter() - t_start < SETUP_MIN_TOTAL_S
                                        and n < SETUP_MAX_REPEATS):
            if tracer is not None:
                tracer.run = n
            data = None
            gc.collect()
            with sampler.section():
                data = workload.setup(seed, wd)
            n += 1
    return data, sampler


def run_child(wd: Path, name: str, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), str(wd), name, str(seconds),
           "1" if trace else "0"]
    # the child's stdout goes to our stderr: our stdout ends with the result line
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measured passes exited {proc.returncode}")
    return json.loads((wd / "result.json").read_text())


def load_outputs(wd: Path) -> dict:
    import numpy as np
    out = json.loads((wd / "outputs.json").read_text())
    with np.load(wd / "outputs.npz") as arrays:
        out.update({k: arrays[k] for k in arrays.files})
    return out


def measure(args, wd: Path) -> tuple[dict, list[str], dict]:
    """Returns (metrics, failures, counts)."""
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(run_id=f"{args.workload}-s{args.seed}-setup") if args.trace else None
    inputs = wd / "inputs"
    inputs.mkdir(parents=True)
    if tracer is not None:
        with tracer:
            setup, setup_sampler = run_setup(workload, args.seed, inputs, tracer)
        tracer.save(TRACE_DIR / f"{args.workload}-s{args.seed}-setup.npz")
    else:
        setup, setup_sampler = run_setup(workload, args.seed, inputs)
    gc.collect()

    result = run_child(inputs, args.workload, args.seconds, bool(args.trace))
    untraced = result["untraced"]
    passes = [untraced] + ([result["traced"]] if args.trace else [])
    counts = {"attempted": sum(len(p["times"]) + p["failed"] for p in passes),
              "failed": sum(p["failed"] for p in passes)}
    failures = [f"{p['failed']} pass(es) raised" for p in passes if p["failed"]]
    failures += ["pass outputs differ between passes" for p in passes if not p["deterministic"]]
    if not untraced["times"]:
        return {}, failures or ["no pass completed"], counts
    out = load_outputs(inputs)

    if args.workload == "subject-fit":
        failures += checks.check_subject_fit(setup, out)
    elif args.workload == "segmentation-paper":
        failures += checks.check_segmentation(setup, out)
    else:
        failures += checks.check_cohort(setup, out, inputs)
    failures += checks.noiseless_fit()
    failures += checks.cli_smoke(args.seed, wd / "cli")

    run_s = statistics.median(untraced["times"])
    metrics: dict = {}
    if args.workload == "subject-fit":
        quality = workloads.fit_quality(out, setup["truth"])
    elif not args.trace:
        # no fit in this workload: fit the seed's subject once, untimed, so
        # that every workload reports the fit-quality metrics
        quality = workloads.subject_fit_quality(args.seed, wd / "subject")
    else:
        quality = {}
    if not args.trace:
        metrics.update(setup_s=statistics.median(setup_sampler.scaled), run_s=run_s,
                       peak_rss_mb=result["peak_rss_mb"])
        metrics.update(setup_s_raw=statistics.median(setup_sampler.raw),
                       run_s_raw=statistics.median(untraced["raw_times"]))
        metrics.update(quality)
        if "voxels" in out:
            metrics["voxels_per_s"] = int(out["voxels"]) / run_s
    else:
        layers = result["layers"]
        metrics.update({k: v for k, v in layers.items() if k != "absent"})
        metrics["trace.overhead_s"] = statistics.median(result["traced"]["times"]) - run_s
        metrics["phantom.make_s"] = tracing.setup_make_s(
            tracer, list(range(len(setup_sampler.raw))))
        metrics["ivim.fp_warnings"] = statistics.median(untraced["fp_warnings"])
        metrics["ivim.boundary_hits"] = int(out.get("boundary_hits", 0))
        metrics["ivim.voxels_failed"] = quality.get("voxels_failed", 0)
        metrics["ivim.dstar_nonphysical"] = quality.get("dstar_nonphysical", 0)
        metrics["absent"] = sorted(set(layers["absent"]) | set(tracer.absent))
        shutil.move(str(inputs / "trace-passes.npz"),
                    TRACE_DIR / f"{args.workload}-s{args.seed}-passes.npz")
    return metrics, failures, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    sys.path.insert(0, str(HERE))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(workloads.WORKLOADS)}")
    spec = _metric_spec()

    wd = WORK_BASE / f"{args.workload}-s{args.seed}-{os.getpid()}"
    TRACE_DIR.mkdir(exist_ok=True)
    try:
        metrics, failures, counts = measure(args, wd)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(wd, ignore_errors=True)
        if WORK_BASE.is_dir() and not any(WORK_BASE.iterdir()):
            WORK_BASE.rmdir()

    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    absent = metrics.pop("absent", [])
    print(f"workload {args.workload}  seed {args.seed}  passes {counts['attempted']}"
          f"  trace {args.trace}")
    for name, value in metrics.items():
        unit = wanted.get(name) or EXTRA_UNITS.get(name, "")
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:30s} {shown:>14s} {unit}")
    if absent:
        print(f"  wrapped functions not found: {', '.join(absent)}")
    result = {
        "correct": not failures,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
