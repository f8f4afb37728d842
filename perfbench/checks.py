"""Correctness checks, run once per invocation outside the measured passes.

Each check returns a list of failure messages (empty when it passes). The
references share no code with ivimlab: scipy for Hausdorff distances and the
paired t test, direct counts for Dice, fusion and the ROC AUC.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy import ndimage, stats
from scipy.spatial.distance import directed_hausdorff

import workloads
from workloads import SRC

HAUSDORFF_RTOL = 1e-9
DICE_RTOL = 1e-12
NOISELESS_RTOL = 1e-4
# the package's own t CDF targets 1e-10, and a two-sided p doubles a tail;
# over 1,600 seeds the largest gap to scipy was 1.1e-10, at p close to 1
P_VALUE_ATOL = 2e-10
# the CLI prints ten significant digits of the API's p-values
CSV_P_VALUE_ATOL = 1e-10
OFFSET_P_MAX = 1e-6
SUBPROCESS_TIMEOUT_S = 60


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def stored_spacing(spacing) -> np.ndarray:
    """Spacing as it comes back from a NIfTI header (float32 pixdim)."""
    return np.asarray(spacing, dtype=np.float32).astype(np.float64)


def _surface(mask: np.ndarray) -> np.ndarray:
    """Voxels of ``mask`` with a 6-neighbour outside it (or outside the grid)."""
    return mask & ~ndimage.binary_erosion(mask, ndimage.generate_binary_structure(3, 1),
                                          border_value=0)


def _directed(a: np.ndarray, b: np.ndarray, spacing: np.ndarray) -> float:
    """max over voxels of a of the distance to the nearest voxel of b, by scipy.

    Voxels of a inside b contribute 0. For a voxel outside b, the nearest
    voxel of b lies on b's surface: a voxel of b whose 6-neighbours are all
    in b has a neighbour one grid step closer to any outside lattice point.
    So scipy only needs a minus b against b's surface, which is exact and
    much faster at paper scale.
    """
    outside = np.argwhere(a & ~b) * spacing
    if outside.shape[0] == 0:
        return 0.0
    surface = np.argwhere(_surface(b)) * spacing
    return directed_hausdorff(outside, surface, seed=0)[0]


def reference_hausdorff(a: np.ndarray, b: np.ndarray, spacing) -> float:
    sp = stored_spacing(spacing)
    return max(_directed(a, b, sp), _directed(b, a, sp))


def reference_dice(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.count_nonzero(a), np.count_nonzero(b)
    return 1.0 if na + nb == 0 else 2.0 * np.count_nonzero(a & b) / (na + nb)


def check_overlap(pairs, dice_values, hausdorff_values, spacing) -> list[str]:
    """(a): every Dice and Hausdorff value of a pass against the references."""
    failures = []
    for i, (a, b) in enumerate(pairs):
        d_ref = reference_dice(a, b)
        if not _close(dice_values[i], d_ref, DICE_RTOL):
            failures.append(f"dice[{i}] = {dice_values[i]!r}, direct count gives {d_ref!r}")
        h_ref = reference_hausdorff(a, b, spacing)
        if not _close(hausdorff_values[i], h_ref, HAUSDORFF_RTOL):
            failures.append(f"hausdorff[{i}] = {hausdorff_values[i]!r}, scipy gives {h_ref!r}")
    return failures


def reference_fusion(raters: list[np.ndarray]) -> dict[str, np.ndarray]:
    votes = np.sum(raters, axis=0)
    return {"olp": votes == len(raters), "avg": 2 * votes > len(raters), "lc": votes > 0}


def check_subject_fit(setup: dict, out: dict) -> list[str]:
    failures = check_overlap([(setup["ref"], setup["auto"])], out["dice"], out["hausdorff"],
                             setup["spacing"])
    fitted = out["fitted"]
    if np.any(fitted & ~setup["ref"]):
        failures.append("a voxel outside the mask carries a fit")
    adc = out["map_adc"][fitted]
    hits = int(np.sum((adc <= 1e-5 * 1.01) | (adc >= 1e-1 / 1.01)))
    if out["boundary_hits"] != hits:
        failures.append(f"boundary_hits = {out['boundary_hits']}, the ADC map gives {hits}")
    voxel_ml = float(np.prod(stored_spacing(setup["spacing"]))) / 1000.0
    row = out["summary_row"]
    if not _close(row["volume_ml"], int(fitted.sum()) * voxel_ml, 1e-6):
        failures.append(f"summary volume_ml {row['volume_ml']!r} != fitted voxels x voxel volume")
    if not _close(row["f_mean"], float(out["map_f"][fitted].mean()), 1e-12):
        failures.append("summary f_mean differs from the mean of the f map")
    return failures


def check_segmentation(setup: dict, out: dict) -> list[str]:
    failures = []
    fused = reference_fusion(setup["raters"])
    strategies = list(fused)
    for s in strategies:
        if not np.array_equal(out[f"fused_{s}"], fused[s]):
            failures.append(f"fused {s} mask differs from the direct vote count")
    if out["frames_out"] != len(set(workloads.PAPER_BVALUES)):
        failures.append(f"averaging left {out['frames_out']} frames")
    pairs = [(fused[s], setup["ref"]) for s in strategies]
    return failures + check_overlap(pairs, out["dice"], out["hausdorff"], setup["spacing"])


def noiseless_fit() -> list[str]:
    """(b): a noiseless 4x12x12 phantom with constant truth is recovered to 1e-4."""
    from ivimlab import ivim, phantom
    bundle = phantom.make_phantom(phantom.PhantomConfig(dims=(4, 12, 12)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        maps = ivim.fit_volume(bundle.series, bundle.mask)
    m = bundle.mask.data
    if not np.array_equal(maps.mask.data, m):
        return [f"noiseless fit left {int(m.sum() - maps.mask.data.sum())} voxels unfitted"]
    failures = []
    for name in ("s0", "f", "d_star", "adc"):
        fit, true = getattr(maps, name).data[m], getattr(bundle.truth, name).data[m]
        err = float(np.max(np.abs(fit - true) / true))
        if not err <= NOISELESS_RTOL:
            failures.append(f"noiseless {name}: max relative error {err:.3g}")
    return failures


def pairwise_auc(scores, positive) -> float:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(positive, dtype=bool)
    diff = s[y][:, None] - s[~y][None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def reference_p_values(rows: list[dict]) -> dict[tuple[str, str], float]:
    from ivimlab import report
    out = {}
    for strategy in workloads.STRATEGIES:
        pick = {src: {r["subject"]: r for r in rows
                      if r["strategy"] == strategy and r["source"] == src}
                for src in workloads.SOURCES}
        subjects = sorted(pick["manual"])
        for metric in report.ALL_METRICS:
            x = [pick["manual"][s][metric] for s in subjects]
            y = [pick["automatic"][s][metric] for s in subjects]
            out[(metric, strategy)] = float(stats.ttest_rel(y, x).pvalue)
    return out


def check_cohort(setup: dict, out: dict, wd: Path) -> list[str]:
    """(c): report p-values, classifier AUC and polarity, CLI outputs."""
    cohort = setup["cohort"]
    failures = []
    if out["cli_exit_codes"] != [0, 0]:
        failures.append(f"cli report/classify exit codes {out['cli_exit_codes']}")
    ref = reference_p_values(cohort.rows)
    for row in out["paired"]:
        for strategy in workloads.STRATEGIES:
            p, p_ref = row[strategy], ref[(row["metric"], strategy)]
            if not abs(p - p_ref) <= P_VALUE_ATOL:
                failures.append(f"p[{row['metric']}, {strategy}] = {p!r}, scipy gives {p_ref!r}")
            if row["metric"] in workloads.OFFSET_METRICS and not p < OFFSET_P_MAX:
                failures.append(f"offset metric {row['metric']} ({strategy}) has p = {p!r}")
    api = {row["metric"]: row for row in out["paired"]}
    with open(wd / "report" / "paired_tests.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            for strategy in workloads.STRATEGIES:
                p, p_api = float(row[strategy]), api[row["metric"]][strategy]
                if not abs(p - p_api) <= CSV_P_VALUE_ATOL:
                    failures.append(f"paired_tests.csv {row['metric']}/{strategy}: {p!r}")

    train = [s for s in cohort.subjects if s["train"]]
    test = [s for s in cohort.subjects if not s["train"]]
    is_fgr = [s["group"] == "fgr" for s in train]
    ratios = np.array([s["tlv_ml"] / workloads.expected_tlv_ml(s["ga"]) for s in train])
    control = ratios[~np.array(is_fgr)]
    if not (_close(out["control_mean"], float(control.mean()), 1e-12)
            and _close(out["control_sd"], float(control.std(ddof=1)), 1e-12)):
        failures.append("control O/E TLV mean or sd differs from a direct computation")
    if out["polarity"] != "positive_low":
        failures.append(f"polarity {out['polarity']!r}; smaller FGR lungs give positive_low")
    sign = -1.0 if out["polarity"] == "positive_low" else 1.0
    auc = pairwise_auc(sign * np.asarray(out["train_scores"]), is_fgr)
    if not _close(out["auc"], auc, 1e-12):
        failures.append(f"auc = {out['auc']!r}, pairwise count gives {auc!r}")
    expected = ["fgr" if sign * (score - out["threshold"]) > 0 else "control"
                for score in out["test_scores"]]
    if out["predictions"] != expected:
        failures.append("test predictions differ from thresholding the scores")
    if len(out["predictions"]) != len(test):
        failures.append("not every test subject was classified")
    classify = json.loads((wd / "classify.json").read_text())
    if not (classify["auc"] == out["auc"] and classify["polarity"] == out["polarity"]):
        failures.append("classify.json disagrees with the API's classifier")
    return failures


# ---------------------------------------------------------------------------
# CLI smoke check
# ---------------------------------------------------------------------------

def _cli(args: list[str], cwd: Path) -> tuple[int, str]:
    env = {k: v for k, v in os.environ.items() if k != "IVIMLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "ivimlab", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return proc.returncode, proc.stderr.strip()


def cli_smoke(seed: int, wd: Path) -> list[str]:
    """phantom, fit, fuse, metrics, report, classify through ``python -m ivimlab``."""
    from ivimlab import grid, ivim, nifti, phantom
    wd.mkdir(parents=True, exist_ok=True)
    (wd / "phantom.json").write_text(json.dumps({"dims": [4, 12, 12]}))
    ph = wd / "phantom"
    cohort = workloads.make_cohort(seed, n_subjects=12)
    workloads.write_cohort(cohort, wd)
    steps = [
        ["phantom", str(ph), "--config", str(wd / "phantom.json"), "--seed", str(seed),
         "--noise", "rician", "--snr", "30"],
        ["fit", str(ph / "series.nii"), str(ph / "series.bval"), str(ph / "mask.nii"),
         str(wd / "fit")],
        ["fuse", str(ph / "mask.nii"), str(wd / "rater0.nii"), str(wd / "rater1.nii"),
         "--strategy", "avg", "-o", str(wd / "fused.nii")],
        ["metrics", str(wd / "fused.nii"), str(ph / "mask.nii"), "-o", str(wd / "metrics.csv")],
        ["report", str(wd / "summaries.csv"), str(wd / "report")],
        ["classify", str(wd / "train.csv"), str(wd / "test.csv"), "-o",
         str(wd / "classify.json")],
    ]
    for step in steps:
        code, err = _cli(step, wd)
        if code != 0:
            return [f"ivimlab {step[0]} exited {code}: {err}"]
        if step[0] == "phantom":
            # two perturbed copies of the phantom's mask for the fuse step
            mask = nifti.read_mask(ph / "mask.nii")
            for r in range(2):
                nifti.write_mask(phantom.perturb_mask(mask, "boundary_flip", p=0.3,
                                                      seed=seed + r), wd / f"rater{r}.nii")
    log = json.loads((wd / "fit" / "fit_log.json").read_text())
    series = grid.average_by_bvalue(nifti.read_volume(ph / "series.nii", ph / "series.bval"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        maps = ivim.fit_volume(series, nifti.read_mask(ph / "mask.nii"))
    if log["voxels_fitted"] != maps.mask.voxel_count:
        return [f"CLI fitted {log['voxels_fitted']} voxels, the API {maps.mask.voxel_count}"]
    return []
