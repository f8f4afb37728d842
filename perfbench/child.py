"""Measured passes of one workload, in a fresh process.

Started by ``run.py`` after set-up, so that its peak resident set size is the
pipeline's own (imports, file reads and the pass), not set-up's. It writes
``result.json`` (pass times, warnings, per-layer metrics) and the first pass's
outputs (``outputs.json`` plus ``outputs.npz`` for arrays) to the work
directory. Usage:

    python3 perfbench/child.py WORKDIR WORKLOAD SECONDS TRACE
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import speed
import tracing
import workloads


def same(a, b) -> bool:
    """Exact equality of pass outputs; NaN equals NaN."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and bool(
            np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True
    return a == b


def measure(workload, ctx: dict, seconds: float, tracer=None) -> dict:
    """Run passes until ``seconds`` have elapsed; at least one pass.

    ``times`` are the pass times scaled to the reference speed (see
    ``speed.py``); ``raw_times`` are as measured.
    """
    fp_warnings, failed, deterministic, first = [], 0, True, None
    sampler = speed.SpeedSampler()
    with sampler:
        t_start = time.perf_counter()
        run = 0
        while True:
            if tracer is not None:
                tracer.run = run
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    with sampler.section():
                        out = workload.run_pass(ctx)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                    break
            fp_warnings.append(sum(1 for w in caught if issubclass(w.category, RuntimeWarning)))
            for w in caught:
                if not issubclass(w.category, RuntimeWarning):
                    print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
            if first is None:
                first = out
            elif not same(first, out):
                deterministic = False
            run += 1
            if time.perf_counter() - t_start >= seconds:
                break
    return {"times": sampler.scaled, "raw_times": sampler.raw, "fp_warnings": fp_warnings,
            "failed": failed,
            "deterministic": deterministic, "first": first,
            "runs": list(range(run))}


VOXEL_METRICS = ("ivim.voxel_us_p50", "ivim.voxel_us_p99", "ivim.adc_step_share")


def voxel_latency(wd: Path) -> dict:
    """fit_adc then fit_ivim on every masked voxel of the subject, untraced.

    Returns per-voxel latency percentiles and the ADC step's share of the
    total; None values where the per-voxel API is gone.
    """
    from ivimlab import grid, ivim, nifti
    fns = [getattr(ivim, n, None) for n in ("VoxelSignal", "fit_adc", "fit_ivim")]
    if any(fn is None for fn in fns):
        return dict.fromkeys(VOXEL_METRICS)
    voxel_signal, fit_adc, fit_ivim = fns
    series = grid.average_by_bvalue(nifti.read_volume(wd / "series.nii", wd / "series.bval"))
    ref = nifti.read_mask(wd / "mask_ref.nii")
    signals = np.maximum(series.stacked()[:, ref.data].T, 0.0)
    total_ns, adc_ns = [], 0
    clock = time.perf_counter_ns
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for s in signals:
            sig = voxel_signal(series.bvalues, s)
            t0 = clock()
            adc = fit_adc(sig)
            t1 = clock()
            if adc is not None:
                fit_ivim(sig, adc.adc)
            t2 = clock()
            total_ns.append(t2 - t0)
            adc_ns += t1 - t0
    us = np.array(total_ns) / 1e3
    return dict(zip(VOXEL_METRICS, (float(np.percentile(us, 50)), float(np.percentile(us, 99)),
                                    adc_ns / max(sum(total_ns), 1))))


def save_outputs(wd: Path, out: dict) -> None:
    arrays = {k: v for k, v in out.items() if isinstance(v, np.ndarray)}
    rest = {k: v for k, v in out.items() if not isinstance(v, np.ndarray)}
    np.savez(wd / "outputs.npz", **arrays)
    (wd / "outputs.json").write_text(json.dumps(rest, default=_plain))


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialise {type(value).__name__}")


def main(argv: list[str]) -> int:
    wd, name, seconds, trace = Path(argv[0]), argv[1], float(argv[2]), argv[3] == "1"
    workload = workloads.WORKLOADS[name]
    ctx = workload.prepare(wd)
    plain = measure(workload, ctx, seconds)
    result = {"untraced": {k: v for k, v in plain.items() if k != "first"}}
    first = plain["first"]
    if not trace:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = tracing.Tracer(run_id=f"{name}-{wd.name}-passes")
        with tracer:
            traced = measure(workload, ctx, seconds, tracer)
        layers = tracing.pass_metrics(tracer, traced["runs"])
        # only subject-fit fits voxels; elsewhere the per-voxel API does no work
        layers.update(voxel_latency(wd) if name == "subject-fit"
                      else dict.fromkeys(VOXEL_METRICS, 0.0))
        layers["absent"] = tracer.absent
        result["traced"] = {k: v for k, v in traced.items() if k != "first"}
        result["layers"] = layers
        tracer.save(wd / "trace-passes.npz")
        if traced["first"] is not None and first is not None and not same(first, traced["first"]):
            result["traced"]["deterministic"] = False
    if first is not None:
        if name == "cohort-report":
            first.update(workloads.cohort_scores(ctx))
        save_outputs(wd, first)
    (wd / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
