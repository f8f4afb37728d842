"""The benchmark's workloads: seeded input generation and one pass each.

Every workload is a closed loop with one client in one process: a pass
handles one subject (or one cohort) and the next pass starts when it ends.
Set-up writes the generated inputs to a work directory; a pass reads only
those files, so the program receives nothing but the generated inputs. No
pass sets a worker or thread count; the program's defaults apply.

Passes call the package through module attributes (``ivim.fit_volume``, not a
name bound at import) so the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import ivimlab from this checkout's ``src``; ImportError if it is not there."""
    if not (SRC / "ivimlab" / "__init__.py").is_file():
        raise ImportError(f"no ivimlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ivimlab
    if Path(ivimlab.__file__).resolve().parent != (SRC / "ivimlab").resolve():
        raise ImportError(f"ivimlab was imported from {ivimlab.__file__}, not from {SRC}")
    return ivimlab


import_program()

from ivimlab import cli, fgr, grid, ivim, masks, nifti, phantom, report  # noqa: E402

# mm^2/s: a pseudo-diffusion coefficient above this is a runaway fit, not perfusion
DSTAR_PHYSICAL_MAX = 1.0

MAP_NAMES = ("s0", "f", "d_star", "adc", "residual")


def _seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds derived from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


# ---------------------------------------------------------------------------
# subject-fit: one default-size noisy subject, fitted voxel by voxel
# ---------------------------------------------------------------------------

def subject_config(seed: int) -> "phantom.PhantomConfig":
    """8x32x32 grid, 2,200-voxel ellipsoid, f and D* gradients, Rician SNR 30."""
    return phantom.PhantomConfig(
        f=phantom.LinearGradient(0.15, 0.40, axis=2),
        d_star=phantom.LinearGradient(0.02, 0.08, axis=1),
        d=0.002, s0=100.0, noise_model="rician", snr=30.0, seed=seed,
    )


def setup_subject_fit(seed: int, wd: Path) -> dict:
    noise_seed, flip_seed = _seeds(seed, 2)
    bundle = phantom.make_phantom(subject_config(noise_seed))
    auto = phantom.perturb_mask(bundle.mask, "boundary_flip", p=0.3, seed=flip_seed)
    nifti.write_series(bundle.series, wd / "series.nii")
    nifti.write_mask(bundle.mask, wd / "mask_ref.nii")
    nifti.write_mask(auto, wd / "mask_auto.nii")
    truth = bundle.truth
    return {
        "truth": {"s0": truth.s0.data, "f": truth.f.data, "d_star": truth.d_star.data,
                  "adc": truth.adc.data},
        "ref": bundle.mask.data, "auto": auto.data, "spacing": bundle.mask.spacing.as_tuple(),
    }


def prepare_subject_fit(wd: Path) -> dict:
    (wd / "maps").mkdir(exist_ok=True)
    return {"wd": wd}


def pass_subject_fit(ctx: dict) -> dict:
    wd = ctx["wd"]
    series = nifti.read_volume(wd / "series.nii", wd / "series.bval")
    ref = nifti.read_mask(wd / "mask_ref.nii")
    auto = nifti.read_mask(wd / "mask_auto.nii")
    series = grid.average_by_bvalue(series)
    maps = ivim.fit_volume(series, ref)
    hits = ivim.boundary_hits(maps)
    row = report.summary_row("subject", fgr.Group.CONTROL, "manual",
                             masks.FusionStrategy.OLP, maps)
    for name in MAP_NAMES:
        nifti.write_volume(getattr(maps, name), wd / "maps" / f"{name}.nii")
    return {
        "voxels": int(np.count_nonzero(ref.data)),
        "fitted": maps.mask.data,
        **{f"map_{name}": getattr(maps, name).data for name in MAP_NAMES},
        "boundary_hits": hits,
        "summary_row": row,
        "dice": [masks.dice(ref, auto)],
        "hausdorff": [masks.hausdorff(ref, auto)],
    }


def fit_quality(out: dict, truth: dict) -> dict:
    """Fit quality of a subject-fit pass against the phantom truth."""
    fitted = out["fitted"]
    d_star = out["map_d_star"][fitted]

    def med_rel_err(name: str) -> float:
        fit, true = out[f"map_{name}"][fitted], truth[name][fitted]
        return float(np.median(np.abs(fit - true) / true))

    return {
        "fitted_frac": int(fitted.sum()) / out["voxels"],
        "dstar_physical_frac": float(np.mean(d_star <= DSTAR_PHYSICAL_MAX)),
        "f_med_rel_err": med_rel_err("f"),
        "dstar_med_rel_err": med_rel_err("d_star"),
        "adc_med_rel_err": med_rel_err("adc"),
        "s0_med_rel_err": med_rel_err("s0"),
        "voxels_failed": out["voxels"] - int(fitted.sum()),
        "dstar_nonphysical": int(np.sum(d_star > DSTAR_PHYSICAL_MAX)),
    }


def subject_fit_quality(seed: int, wd: Path) -> dict:
    """Set up and run one subject-fit pass, untimed, and return its fit quality."""
    wd.mkdir(parents=True, exist_ok=True)
    setup = setup_subject_fit(seed, wd)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = pass_subject_fit(prepare_subject_fit(wd))
    return fit_quality(out, setup["truth"])


# ---------------------------------------------------------------------------
# segmentation-paper: paper-scale series and five rater masks, no fit
# ---------------------------------------------------------------------------

PAPER_DIMS = (30, 128, 128)
N_RATERS = 5
# two b=0 frames plus three diffusion directions on each other shell
PAPER_BVALUES = (0.0, 0.0) + tuple(b for b in phantom.DEFAULT_BVALUES[1:] for _ in range(3))


def setup_segmentation_paper(seed: int, wd: Path) -> dict:
    noise_seed, *rater_seeds = _seeds(seed, 1 + N_RATERS)
    bundle = phantom.make_phantom(phantom.PhantomConfig(
        dims=PAPER_DIMS, bvalues=PAPER_BVALUES, noise_model="rician", snr=30.0,
        seed=noise_seed))
    nifti.write_series(bundle.series, wd / "series.nii")
    nifti.write_mask(bundle.mask, wd / "mask_ref.nii")
    raters = [phantom.perturb_mask(bundle.mask, "boundary_flip", p=0.3, seed=s)
              for s in rater_seeds]
    for i, rater in enumerate(raters):
        nifti.write_mask(rater, wd / f"rater{i}.nii")
    return {"ref": bundle.mask.data, "raters": [r.data for r in raters],
            "spacing": bundle.mask.spacing.as_tuple()}


def prepare_segmentation_paper(wd: Path) -> dict:
    return {"wd": wd}


def pass_segmentation_paper(ctx: dict) -> dict:
    wd = ctx["wd"]
    series = nifti.read_volume(wd / "series.nii", wd / "series.bval")
    averaged = grid.average_by_bvalue(series)
    raters = [nifti.read_mask(wd / f"rater{i}.nii") for i in range(N_RATERS)]
    ref = nifti.read_mask(wd / "mask_ref.nii")
    out = {"voxels": int(np.count_nonzero(ref.data)), "frames_out": averaged.n_frames,
           "dice": [], "hausdorff": []}
    for strategy in masks.FusionStrategy:
        fused = masks.fuse(raters, strategy)
        out[f"fused_{strategy.value}"] = fused.data
        out["dice"].append(masks.dice(fused, ref))
        out["hausdorff"].append(masks.hausdorff(fused, ref))
    return out


# ---------------------------------------------------------------------------
# cohort-report: manual-vs-automatic tables and the O/E TLV classifier
# ---------------------------------------------------------------------------

N_SUBJECTS = 120  # half FGR, half control
GA_RANGE = (20.0, 38.0)
SOURCES = ("manual", "automatic")
STRATEGIES = ("olp", "avg", "lc")
# typical value and relative spread of each summary metric, manual source;
# volume_ml's entry only keeps the draw order: its value comes from the subject's TLV
METRIC_MODEL = {
    "volume_ml": (40.0, 0.30), "s0_mean": (100.0, 0.08), "f_mean": (0.28, 0.15),
    "d_star_mean": (0.05, 0.15), "adc_mean": (0.002, 0.10), "residual_mean": (0.03, 0.15),
    "s0_cv": (0.20, 0.15), "f_cv": (0.35, 0.15), "d_star_cv": (0.60, 0.15),
    "adc_cv": (0.25, 0.15), "f_entropy": (4.5, 0.06), "d_star_entropy": (4.2, 0.06),
    "adc_entropy": (4.8, 0.06),
}
# metrics whose automatic value carries a systematic, seeded relative offset
OFFSET_METRICS = ("volume_ml", "f_mean", "adc_cv", "d_star_entropy")
PAIR_NOISE = 0.03  # relative manual-vs-automatic scatter on every metric
STRATEGY_VOLUME = {"olp": 0.9, "avg": 1.0, "lc": 1.1}


def expected_tlv_ml(ga: float) -> float:
    """The lung-growth cubic in plain powers (independent of ``fgr``)."""
    return -0.0132 * ga**3 + 1.14 * ga**2 - 27.38 * ga + 207.50


@dataclass(frozen=True)
class Cohort:
    subjects: list[dict]  # id, ga, group, tlv_ml, train
    rows: list[dict]      # the summaries table


def make_cohort(seed: int, n_subjects: int = N_SUBJECTS) -> Cohort:
    rng = np.random.default_rng(seed)
    offsets = {m: float(rng.uniform(0.04, 0.08)) for m in OFFSET_METRICS}
    subjects, rows = [], []
    for i in range(n_subjects):
        group = "fgr" if (i // 2) % 2 == 0 else "control"
        ga = round(float(rng.uniform(*GA_RANGE)), 2)
        ratio = max(rng.normal(0.72 if group == "fgr" else 1.0, 0.12), 0.2)
        tlv = expected_tlv_ml(ga) * ratio
        sid = f"S{i:03d}"
        subjects.append({"id": sid, "ga": ga, "group": group, "tlv_ml": round(tlv, 4),
                         "train": i % 2 == 0})
        for strategy in STRATEGIES:
            manual = {}
            for metric, (typical, spread) in METRIC_MODEL.items():
                value = typical * math.exp(rng.normal(0.0, spread))
                if metric == "volume_ml":
                    value = tlv * STRATEGY_VOLUME[strategy] * math.exp(rng.normal(0.0, 0.05))
                manual[metric] = value
            automatic = {
                metric: value * math.exp(offsets.get(metric, 0.0)
                                         + rng.normal(0.0, PAIR_NOISE))
                for metric, value in manual.items()
            }
            for source, values in zip(SOURCES, (manual, automatic)):
                rows.append({"subject": sid, "group": group, "source": source,
                             "strategy": strategy, **values})
    return Cohort(subjects, rows)


def write_cohort(cohort: Cohort, wd: Path) -> None:
    columns = list(report.SUMMARY_COLUMNS)
    with open(wd / "summaries.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in cohort.rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in columns])
    for name, train in (("train", True), ("test", False)):
        with open(wd / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "ga", "group", "tlv_ml"])
            for s in cohort.subjects:
                if s["train"] is train:
                    writer.writerow([s["id"], s["ga"], s["group"], s["tlv_ml"]])


def setup_cohort_report(seed: int, wd: Path) -> dict:
    cohort = make_cohort(_seeds(seed, 1)[0])
    write_cohort(cohort, wd)
    return {"cohort": cohort}


def _read_records(path: Path) -> list:
    with open(path, newline="") as fh:
        return [fgr.SubjectRecord(id=r["id"], ga_weeks=float(r["ga"]),
                                  group=fgr.Group.parse(r["group"]), tlv_ml=float(r["tlv_ml"]))
                for r in csv.DictReader(fh)]


def prepare_cohort_report(wd: Path) -> dict:
    """Load the tables once; a pass then works on them as a user with them in memory."""
    with open(wd / "summaries.csv", newline="") as fh:
        rows = [{k: (float(v) if k in report.ALL_METRICS else v) for k, v in r.items()}
                for r in csv.DictReader(fh)]
    (wd / "report").mkdir(exist_ok=True)
    return {"wd": wd, "rows": rows, "train": _read_records(wd / "train.csv"),
            "test": _read_records(wd / "test.csv")}


def pass_cohort_report(ctx: dict) -> dict:
    wd = ctx["wd"]
    rc_report = cli.main(["report", str(wd / "summaries.csv"), str(wd / "report")])
    rc_classify = cli.main(["classify", str(wd / "train.csv"), str(wd / "test.csv"),
                            "-o", str(wd / "classify.json")])
    tables = report.build_report(ctx["rows"])
    model = fgr.train_classifier(ctx["train"])
    predictions = [model.predict(r) for r in ctx["test"]]
    return {
        "cli_exit_codes": [rc_report, rc_classify],
        "paired": tables.paired,
        "agreement": tables.agreement,
        "auc": model.auc,
        "polarity": model.polarity.value,
        "threshold": model.threshold,
        "control_mean": model.control_mean,
        "control_sd": model.control_sd,
        "predictions": [p.value for p in predictions],
    }


def cohort_scores(ctx: dict) -> dict:
    """The trained model's scores, for the AUC check (computed outside any pass)."""
    model = fgr.train_classifier(ctx["train"])
    return {"train_scores": [model.score(r) for r in ctx["train"]],
            "test_scores": [model.score(r) for r in ctx["test"]]}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], dict]
    prepare: Callable[[Path], dict]
    run_pass: Callable[[dict], dict]


WORKLOADS = {
    w.name: w for w in (
        Workload("subject-fit", setup_subject_fit, prepare_subject_fit, pass_subject_fit),
        Workload("segmentation-paper", setup_segmentation_paper, prepare_segmentation_paper,
                 pass_segmentation_paper),
        Workload("cohort-report", setup_cohort_report, prepare_cohort_report,
                 pass_cohort_report),
    )
}
