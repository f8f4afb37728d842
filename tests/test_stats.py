import math

import numpy as np
import pytest

from ivimlab import stats

from oracles import t_cdf_quadrature


class TestCv:
    def test_constant_list(self):
        assert stats.cv([4.2, 4.2, 4.2]) == 0.0

    def test_hand_example(self):
        assert stats.cv([1.0, 3.0]) == pytest.approx(0.5)  # sd 1 (population), mean 2

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="zero-mean"):
            stats.cv([-1.0, 1.0])

    def test_short_list_rejected(self):
        with pytest.raises(ValueError):
            stats.cv([1.0])

    def test_scale_invariant_not_shift_invariant(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(1, 5, 30)
        base = stats.cv(v)
        assert stats.cv(3.7 * v) == pytest.approx(base, rel=1e-12)
        assert stats.cv(v + 2.0) != pytest.approx(base, rel=1e-6)

    def test_sample_sd_variant(self):
        v = [1.0, 3.0]
        assert stats.cv(v, ddof=1) == pytest.approx(math.sqrt(2.0) / 2.0)


class TestEntropy:
    def test_constant_data_zero_bits(self):
        assert stats.shannon_entropy([5.0] * 10, bins=64) == 0.0

    def test_uniform_eight_bins(self):
        values = np.repeat(np.arange(8.0), 5)
        assert stats.shannon_entropy(values, bins=8) == 3.0

    def test_quarter_three_quarter_split(self):
        values = np.array([0.0, 1.0, 1.0, 1.0])
        h = stats.shannon_entropy(values, bins=2)
        assert h == pytest.approx(0.811278, abs=1e-4)  # -(.25 lg .25 + .75 lg .75)

    def test_bounded_by_log2_bins(self):
        rng = np.random.default_rng(1)
        for bins in (1, 2, 8, 64):
            h = stats.shannon_entropy(rng.random(200), bins=bins)
            assert 0.0 <= h <= math.log2(bins) + 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.random(500)
        h = stats.shannon_entropy(v, bins=32)
        assert stats.shannon_entropy(4.0 * v + 11.0, bins=32) == pytest.approx(h, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        v = rng.random(100)
        assert stats.shannon_entropy(v[::-1], 16) == stats.shannon_entropy(v, 16)


class TestDistributionFunctions:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 9, 22])
    def test_t_cdf_matches_quadrature(self, df):
        for t in np.linspace(-8, 8, 33):
            assert stats.t_cdf(float(t), df) == pytest.approx(
                t_cdf_quadrature(float(t), df), abs=1e-8)


class TestPairedT:
    def test_identical_samples_p_one(self):
        x = [1.0, 2.0, 3.0]
        assert stats.paired_t_test(x, x).p_value == 1.0

    def test_zero_variance_nonzero_mean(self):
        r = stats.paired_t_test([1, 2, 3, 4], [2, 3, 4, 5])
        assert r.p_value < 1e-12
        assert math.isinf(r.statistic)

    def test_hand_computed_case(self):
        # d = {1, 0, 2}: t = sqrt(3), df = 2
        r = stats.paired_t_test([1.0, 2.0, 3.0], [2.0, 2.0, 5.0])
        assert r.statistic == pytest.approx(math.sqrt(3.0), rel=1e-12)
        expected = 2.0 * (1.0 - t_cdf_quadrature(math.sqrt(3.0), 2))
        assert r.p_value == pytest.approx(expected, abs=1e-10)
        assert r.p_value == pytest.approx(0.2254, abs=2e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stats.paired_t_test([1, 2], [1, 2, 3])


class TestMeanAbsPctDiff:
    def test_identity_zero(self):
        assert stats.mean_abs_pct_diff([0.2, 0.4], [0.2, 0.4]) == 0.0

    def test_single_element(self):
        assert stats.mean_abs_pct_diff([0.1], [0.15]) == pytest.approx(50.0)

    def test_two_elements(self):
        assert stats.mean_abs_pct_diff([0.2, 0.4], [0.1, 0.5]) == pytest.approx(37.5)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero reference"):
            stats.mean_abs_pct_diff([0.0, 1.0], [1.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stats.mean_abs_pct_diff([1.0], [1.0, 2.0])
