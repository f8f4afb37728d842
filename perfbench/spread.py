"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json. For every metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, next to a third of the metric's
bound. ``--out`` writes every value and summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall_s = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "wall_s": wall_s, **result})
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:
                    values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall_s:.0f}s correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if v["value"] is not None and k in bounds), flush=True)
        summary = {name: summarize(v) for name, v in values.items() if len(v) >= 2}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            limit = f"  (bound/3 {bound / 3:.4f})" if bound else ""
            print(f"  {workload:20s} {name:28s} median {s['median']:.6g}  "
                  f"spread {spread}{limit}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
