import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ivimlab import fgr

from oracles import brute_youden, expected_volume_power_form, pair_counting_auc


def classifier(**fields) -> fgr.TrainedClassifier:
    """A trained classifier with ``fields``; the rest are placeholders."""
    return fgr.TrainedClassifier(**{
        "control_mean": 1.0, "control_sd": 0.1, "polarity": fgr.Polarity.POSITIVE_LOW,
        "threshold": 0.0, "auc": 1.0, "youden_j": 1.0, **fields})


class TestRoc:
    @pytest.mark.parametrize("polarity", list(fgr.Polarity))
    def test_auc_matches_pair_counting_on_tied_scores(self, polarity):
        rng = np.random.default_rng(7)
        sign = 1.0 if polarity is fgr.Polarity.POSITIVE_HIGH else -1.0
        for _ in range(150):
            n = int(rng.integers(2, 16))
            scores = rng.integers(0, 5, n).astype(float)  # ties likely
            labels = rng.random(n) < 0.5
            labels[:2] = (True, False)
            got = fgr.roc(scores, labels, polarity).auc
            assert got == pytest.approx(pair_counting_auc(sign * scores, labels), abs=1e-12)


class TestYouden:
    @pytest.mark.parametrize("polarity", list(fgr.Polarity))
    @given(cases=st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=2,
                          max_size=20))  # integer scores: ties likely
    def test_operating_point_matches_brute_force(self, polarity, cases):
        scores = [float(v) for v, _ in cases]
        labels = [label for _, label in cases]
        assume(any(labels) and not all(labels))
        got = fgr.roc(scores, labels, polarity)
        j, threshold = brute_youden(scores, labels, polarity is fgr.Polarity.POSITIVE_HIGH)
        assert got.youden_j == pytest.approx(j, abs=1e-12)
        assert got.youden_threshold == threshold


class TestGrowthModel:
    def test_expected_tlv_matches_power_form(self):
        for ga in np.linspace(fgr.GA_WEEKS_MIN, fgr.GA_WEEKS_MAX, 301):
            assert fgr.expected_tlv(float(ga)) == pytest.approx(
                expected_volume_power_form(float(ga)), rel=1e-12)

    def test_clinical_notation(self):
        assert fgr.parse_ga_weeks("32+3") == 32 + 3 / 7
        assert fgr.parse_ga_weeks(" 32 + 0 ") == 32.0
        assert fgr.parse_ga_weeks("32+6") == 32 + 6 / 7

    # float() would read these weeks as 32.5 and 30, a fraction of a week on top of the days
    @pytest.mark.parametrize("text, part", [
        ("32.5+3", "weeks"), ("3e1+3", "weeks"), ("+3", "weeks"), ("-32+3", "weeks"),
        ("32+3.5", "days"), ("32+7", "days"), ("32+", "days"),
    ])
    def test_clinical_notation_takes_whole_weeks_and_days(self, text, part):
        with pytest.raises(ValueError, match=f"{part} in '{re.escape(text)}' must be a whole"):
            fgr.parse_ga_weeks(text)

    def test_subject_record_owns_the_range(self):
        assert fgr.parse_ga_weeks("46") == 46.0
        with pytest.raises(ValueError, match=r"^'P1': gestational age 46.0 outside "
                                             r"\[15.0, 45.0\] weeks$"):
            fgr.SubjectRecord("P1", 46.0, fgr.Group.CONTROL, 500.0)

    @pytest.mark.parametrize("tlv_ml, rule", [
        (0.0, "must be positive"), (-1.0, "must be positive"),
        (math.nan, "must be finite, got nan"), (math.inf, "must be finite, got inf"),
    ])
    def test_subject_record_rejects_a_volume_naming_the_subject(self, tlv_ml, rule):
        with pytest.raises(ValueError, match=rf"^'P1': measured lung volume {rule}$"):
            fgr.SubjectRecord("P1", 30.0, fgr.Group.FGR, tlv_ml)

    @pytest.mark.parametrize("label, parsed", [("FGR", fgr.Group.FGR),
                                               (" Control ", fgr.Group.CONTROL)])
    def test_group_labels_parse_in_any_case(self, label, parsed):
        assert fgr.Group.parse(label) is parsed


class TestClassifier:
    def test_smaller_fgr_lungs_pick_positive_low(self):
        rng = np.random.default_rng(8)
        records = []
        for i in range(20):
            group = fgr.Group.FGR if i % 2 else fgr.Group.CONTROL
            ga = float(rng.uniform(22.0, 36.0))
            ratio = (0.7 if group is fgr.Group.FGR else 1.0) * float(rng.uniform(0.95, 1.05))
            records.append(fgr.SubjectRecord(f"S{i}", ga, group,
                                             ratio * fgr.expected_tlv(ga)))
        model = fgr.train_classifier(records)
        assert model.polarity is fgr.Polarity.POSITIVE_LOW
        assert model.auc == 1.0
        assert [model.predict(r) for r in records] == [r.group for r in records]

    def test_groups_that_do_not_separate_are_rejected(self):
        # equal lung volumes in both groups at one age: every threshold has Youden J 0
        records = [fgr.SubjectRecord(i, 30.0, g, v) for i, g, v in
                   (("A", fgr.Group.FGR, 30.0), ("B", fgr.Group.FGR, 40.0),
                    ("C", fgr.Group.CONTROL, 30.0), ("D", fgr.Group.CONTROL, 40.0))]
        with pytest.raises(ValueError, match="do not separate"):
            fgr.train_classifier(records)

    @pytest.mark.parametrize("polarity", list(fgr.Polarity))
    def test_predict_is_the_signed_margin(self, polarity):
        sign = 1.0 if polarity is fgr.Polarity.POSITIVE_HIGH else -1.0
        model = classifier(control_mean=0.5, control_sd=0.25, polarity=polarity,
                           threshold=2.0)
        rng = np.random.default_rng(3)
        for i in range(200):
            ga = float(rng.uniform(20.0, 40.0))
            record = fgr.SubjectRecord(f"S{i}", ga, fgr.Group.CONTROL,
                                       float(rng.uniform(0.6, 1.4)) * fgr.expected_tlv(ga))
            fgr_called = sign * (model.score(record) - model.threshold) > 0
            assert model.predict(record) is (fgr.Group.FGR if fgr_called else fgr.Group.CONTROL)
        # O/E exactly 1 scores (1 - 0.5) / 0.25 = 2.0, the threshold itself
        at = fgr.SubjectRecord("T", 30.0, fgr.Group.FGR, fgr.expected_tlv(30.0))
        assert model.score(at) == model.threshold
        assert model.predict(at) is fgr.Group.CONTROL

    def test_score_is_the_control_z_score(self):
        model = classifier(control_mean=0.9, control_sd=0.2)
        for ga in (20.0, 27.5, 39.0):
            record = fgr.SubjectRecord("S", ga, fgr.Group.CONTROL, 0.8 * fgr.expected_tlv(ga))
            oe = record.tlv_ml / expected_volume_power_form(ga)
            assert model.score(record) == pytest.approx((oe - 0.9) / 0.2, rel=1e-10)

    @pytest.mark.parametrize("control_sd", [0.0, -1.0, math.nan])
    def test_rejects_a_control_sd_that_is_not_positive(self, control_sd):
        with pytest.raises(ValueError, match="control sd must be positive"):
            classifier(control_sd=control_sd)

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
    def test_rejects_a_threshold_that_is_not_finite(self, threshold):
        with pytest.raises(ValueError, match="threshold must be finite"):
            classifier(threshold=threshold)

    @given(ga=st.lists(st.floats(20.0, 40.0), min_size=4, max_size=30),
           control_ratio=st.lists(st.floats(0.9, 1.2), min_size=2, max_size=30),
           fgr_ratio=st.lists(st.floats(0.4, 0.8), min_size=1, max_size=30),
           fgr_larger=st.booleans())
    def test_separable_cohorts_train_a_finite_threshold(self, ga, control_ratio, fgr_ratio,
                                                        fgr_larger):
        assume(len(set(control_ratio)) > 1)  # the control sd is positive
        if fgr_larger:  # growth-restricted lungs larger: the other polarity
            fgr_ratio = [2.0 / r for r in fgr_ratio]
        cohort = ([(r, fgr.Group.CONTROL) for r in control_ratio]
                  + [(r, fgr.Group.FGR) for r in fgr_ratio])
        records = [fgr.SubjectRecord(f"S{i}", ga[i % len(ga)], group,
                                     ratio * fgr.expected_tlv(ga[i % len(ga)]))
                   for i, (ratio, group) in enumerate(cohort)]
        model = fgr.train_classifier(records)
        assert math.isfinite(model.threshold)
        assert model.youden_j > 0
        assert model.polarity is (fgr.Polarity.POSITIVE_HIGH if fgr_larger
                                  else fgr.Polarity.POSITIVE_LOW)


class TestConfusion:
    @given(pairs=st.lists(st.tuples(st.sampled_from(fgr.Group), st.sampled_from(fgr.Group)),
                          max_size=40))
    def test_counts_and_accuracy_are_the_2x2_table(self, pairs):
        predicted = [p for p, _ in pairs]
        actual = [a for _, a in pairs]
        table = Counter((p.value, a.value) for p, a in pairs)
        got = fgr.confusion(predicted, actual)
        assert (got.tp, got.fp, got.tn, got.fn) == (
            table["fgr", "fgr"], table["fgr", "control"],
            table["control", "control"], table["control", "fgr"])
        agree = table["fgr", "fgr"] + table["control", "control"]
        if pairs:
            assert got.accuracy == agree / len(pairs)
        else:
            assert math.isnan(got.accuracy)

    def test_unequal_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            fgr.confusion([fgr.Group.FGR], [])
