import numpy as np
import pytest

from halflearn import LabeledSampleSet
from halflearn.moment_test import moment_match_test


def gaussian_set(n, d, seed):
    rng = np.random.default_rng(seed)
    return LabeledSampleSet(rng.standard_normal((n, d)),
                            np.ones(n, dtype=int))


def rademacher_set(n, d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 2, size=(n, d)).astype(float) * 2 - 1
    return LabeledSampleSet(pts, np.ones(n, dtype=int))


class TestVerdicts:
    def test_gaussian_certified_over_20_seeds(self):
        hits = sum(moment_match_test(gaussian_set(100_000, 5, seed),
                                     4).certified
                   for seed in range(20))
        assert hits >= 19

    def test_gaussian_certified_at_degree_two(self):
        hits = sum(moment_match_test(gaussian_set(100_000, 5, seed),
                                     2).certified
                   for seed in range(20))
        assert hits >= 19

    def test_rademacher_rejected_at_pure_quartic(self):
        report = moment_match_test(rademacher_set(100_000, 5, 3), 4)
        assert not report.certified
        worst = report.worst_violations[0]
        # E[x_i^4] = 1 for +-1 coordinates against the Gaussian value 3.
        assert sorted(worst.monomial.exponents, reverse=True) == [4, 0, 0, 0, 0]
        assert worst.empirical == pytest.approx(1.0, abs=0.05)
        assert worst.reference == 3.0

    def test_rademacher_passes_at_degree_two(self):
        # +-1 coordinates match the Gaussian exactly up to degree 2.
        assert moment_match_test(rademacher_set(100_000, 5, 3), 2).certified


class TestContract:
    def test_requires_min_samples(self):
        with pytest.raises(ValueError):
            moment_match_test(gaussian_set(99, 3, 0), 2)

    def test_k_capped_at_max_degree(self):
        for k in (21, 2.5):
            with pytest.raises(ValueError, match=r"\[1, 20\]"):
                moment_match_test(gaussian_set(1000, 3, 0), k)

    def test_deterministic(self):
        s = gaussian_set(5000, 4, 11)
        a = moment_match_test(s, 4)
        b = moment_match_test(s, 4)
        assert a == b

    def test_violations_sorted_and_capped(self):
        report = moment_match_test(rademacher_set(50_000, 6, 5), 4)
        ratios = [v.ratio for v in report.worst_violations]
        assert ratios == sorted(ratios, reverse=True)
        assert len(report.worst_violations) <= 10
