"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracing.py -q
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ivimlab import ivim, lm, phantom, report  # noqa: E402


def test_self_time_and_nested_union():
    # 0 [0,10] has children 1 [1,4] and 2 [5,9]; 3 [6,8] is nested in 2
    spans = tracing.Spans(
        names=["outer", "mid", "leaf"],
        name=np.array([0, 1, 1, 2]), start=np.array([0, 1, 5, 6]),
        end=np.array([10, 4, 9, 8]), parent=np.array([-1, 0, 0, 2]),
        run=np.array([0, 0, 0, 0]))
    assert spans.self_ns().tolist() == [3.0, 3.0, 2.0, 2.0]
    assert tracing.union_s(spans, 0, ["mid", "leaf"]) == 7e-9
    assert tracing.union_s(spans, 0, ["outer", "leaf"]) == 10e-9
    assert tracing.union_s(spans, 1, ["outer"]) == 0.0


def test_wrappers_keep_results_and_uninstall():
    bundle = phantom.make_phantom(phantom.PhantomConfig(dims=(3, 8, 8)))
    plain = ivim.fit_volume(bundle.series, bundle.mask)
    original, summarize = lm.lm_fit, ivim.summarize
    tracer = tracing.Tracer("test")
    with tracer:
        assert report.summarize is ivim.summarize is not summarize
        traced = ivim.fit_volume(bundle.series, bundle.mask)
    assert lm.lm_fit is original and report.summarize is summarize
    assert np.array_equal(plain.f.data, traced.f.data, equal_nan=True)
    assert tracer.absent == []
    metrics = tracing.pass_metrics(tracer, [0])
    assert metrics["lm.calls"] == 2 * bundle.mask.voxel_count
    assert metrics["lm.residual_evals_per_call"] > 1
    assert 0 < metrics["lm.self_s"] < metrics["ivim.fit_volume_s"]


def test_missing_target_reported_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(lm, "lm_fit")
    monkeypatch.delattr(ivim, "fit_adc")
    workloads.setup_cohort_report(1, tmp_path)
    ctx = workloads.prepare_cohort_report(tmp_path)
    tracer = tracing.Tracer("test")
    with tracer:
        workloads.pass_cohort_report(ctx)
    assert {"lm.lm_fit", "ivim.fit_adc"} <= set(tracer.absent)
    metrics = tracing.pass_metrics(tracer, [0])
    assert metrics["lm.calls"] is None and metrics["lm.self_s"] is None
    assert metrics["report.build_report_s"] > 0 and metrics["stats.calls"] > 0
    assert metrics["cli.report_s"] > 0 and metrics["fgr.predict_s"] > 0
    assert not hasattr(lm, "lm_fit")

    subject = tmp_path / "subject"
    subject.mkdir()
    workloads.setup_subject_fit(1, subject)
    assert set(child.voxel_latency(subject).values()) == {None}
