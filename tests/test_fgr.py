import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ivimlab import fgr

from oracles import brute_youden, expected_volume_power_form, pair_counting_auc


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
