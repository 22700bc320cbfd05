import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halflearn import LabeledSampleSet
from halflearn.core import SLACK
from halflearn.moment_test import (_reference_table, even_powers_reject,
                                   moment_match_test)
from halflearn.moments import gaussian_moments

from conftest import gaussian_set


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
        assert sorted(worst.monomial, reverse=True) == [4, 0, 0, 0, 0]
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


def band_edge_set(n, d, m, side, ulps, heavy, seed):
    """Rows whose coordinate 0 takes two magnitudes, with random signs:
    ``heavy`` rows hold r and the rest s. Mean x_0^m (m = 2 or 4) sits on
    the lower (side -1) or upper (side +1) edge of its band, moved by
    ``ulps`` ulps of r; for m = 4, mean x_0^2 is 1. The other coordinates
    are Gaussian."""
    exponents = np.zeros((1, d), dtype=np.int64)
    exponents[0, 0] = m
    reference, variance = gaussian_moments(exponents)
    edge = float(reference[0] + side * SLACK * np.sqrt(variance[0] / n))
    f = heavy / n
    if m == 2:
        r2 = s2 = edge
    else:
        # f R^2 + (1 - f) S^2 = edge with f R + (1 - f) S = 1, where
        # R = r^2 and S = s^2; S > 0 needs f < 1 / edge.
        r2 = 1.0 + math.sqrt((edge - 1.0) * (1.0 - f) / f)
        s2 = (1.0 - f * r2) / (1.0 - f)
    r = math.sqrt(r2)
    for _ in range(abs(ulps)):
        r = math.nextafter(r, math.inf if ulps > 0 else 0.0)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    magnitude = np.full(n, math.sqrt(s2))
    magnitude[rng.permutation(n)[:heavy]] = r
    points[:, 0] = magnitude * rng.choice([-1.0, 1.0], size=n)
    return LabeledSampleSet(points, np.ones(n, dtype=int))


@st.composite
def band_edges(draw):
    m = draw(st.sampled_from([2, 4]))
    n = draw(st.integers(2000, 20_000))
    # At n >= 2000 the edges of x^4 lie in [1.69, 4.32]; f <= 1/5 keeps
    # s^2 positive.
    return dict(n=n, d=draw(st.integers(2, 4)), m=m,
                side=draw(st.sampled_from([-1, 1])),
                ulps=draw(st.integers(-64, 64)),
                heavy=draw(st.integers(1, n // 5)),
                seed=draw(st.integers(0, 2**32 - 1)))


class TestEvenPowerScreen:
    """even_powers_reject proves only rejections that moment_match_test
    gives."""

    @given(band_edges())
    def test_never_rejects_what_the_full_test_certifies(self, case):
        s = band_edge_set(**case)
        if even_powers_reject(s, case["m"]):
            assert not moment_match_test(s, case["m"]).certified

    def test_band_edge_construction(self):
        # The constructed mean sits on the band's edge, and no other
        # monomial is out of its band, so the property test above reaches
        # the cases where the two sums' rounding could decide.
        for m in (2, 4):
            for side in (-1, 1):
                s = band_edge_set(5000, 2, m, side, 0, 500, 7)
                report = moment_match_test(s, m)
                edge = 1.0 if m == 2 else 3.0
                tol = SLACK * math.sqrt((2.0 if m == 2 else 96.0) / 5000)
                mean = np.mean(s.points[:, 0] ** m)
                assert mean == pytest.approx(edge + side * tol, rel=1e-12)
                assert all(v.monomial == (m, 0)
                           for v in report.worst_violations)

    def test_proves_gross_rejections(self):
        assert even_powers_reject(rademacher_set(100_000, 5, 3), 4)
        assert not even_powers_reject(gaussian_set(100_000, 5, 3), 4)
        # +-1 coordinates match the Gaussian up to degree 3.
        assert not even_powers_reject(rademacher_set(100_000, 5, 3), 3)

    def test_overflow_proves_nothing_and_warns_nothing(self):
        # Every power of 1e200 overflows to inf. The full test rejects by
        # it, but the screen's margin turns inf too; RuntimeWarnings are
        # errors here.
        s = gaussian_set(5000, 3, 0)
        points = s.points.copy()
        points[10, 1] = 1e200
        s = LabeledSampleSet(points, s.labels)
        assert not even_powers_reject(s, 4)
        assert not moment_match_test(s, 4).certified

    def test_checks_its_arguments_as_the_full_test_does(self):
        with pytest.raises(ValueError):
            even_powers_reject(gaussian_set(99, 3, 0), 2)
        for k in (21, 2.5):
            with pytest.raises(ValueError, match=r"\[1, 20\]"):
                even_powers_reject(gaussian_set(1000, 3, 0), k)

    @pytest.mark.parametrize("d, k", [(3, 2), (8, 4), (12, 4), (5, 8),
                                      (3, 12)])
    def test_bands_are_the_full_tests_bands(self, d, k):
        # The screen takes E[x^m] and Var[x^m] from the one-variable powers;
        # its margin proof needs them to be, bit for bit, the full test's
        # values for every x_i^m row.
        exponents, reference, variance = _reference_table(d, k)
        pure = np.flatnonzero(np.count_nonzero(exponents, axis=1) == 1)
        assert len(pure) == d * k
        power = exponents[pure].max(axis=1)
        one_ref, one_var = gaussian_moments(np.arange(1, k + 1)[:, None])
        for got, want in ((reference[pure], one_ref[power - 1]),
                          (variance[pure], one_var[power - 1])):
            assert got.tobytes() == want.tobytes()
