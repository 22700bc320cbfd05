import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halflearn import LabeledSampleSet, moment_test
from halflearn.core import SLACK
from halflearn.moment_test import (_reference_table, even_powers_reject,
                                   moment_match_test)
from halflearn.moments import gaussian_moments

from conftest import gaussian_set, stdout_with_blas_threads


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


def mixed_edge_set(n, d, side, ulps, heavy, seed):
    """Rows whose mean x_0 x_1 sits on the lower (side -1) or upper
    (side +1) edge of its band, moved by ``ulps`` ulps of r. Coordinate 0
    takes magnitude r on ``heavy`` rows and s on the rest, with random
    signs and mean x_0^2 = 1; x_1 is x_0 times ``side`` on the heavy rows
    and times balanced signs on the rest (0 on one row if their count is
    odd). The other coordinates are Gaussian."""
    edge = SLACK * math.sqrt(1.0 / n)
    r = math.sqrt(edge * n / heavy)
    s2 = (n - heavy * r * r) / (n - heavy)
    for _ in range(abs(ulps)):
        r = math.nextafter(r, math.inf if ulps > 0 else 0.0)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    order = rng.permutation(n)
    light = n - heavy
    magnitude = np.full(n, math.sqrt(s2))
    magnitude[order[:heavy]] = r
    sign = np.zeros(n)
    sign[order[:heavy]] = side
    sign[order[heavy:heavy + light // 2]] = 1.0
    sign[order[heavy + light // 2:heavy + 2 * (light // 2)]] = -1.0
    points[:, 0] = magnitude * rng.choice([-1.0, 1.0], size=n)
    points[:, 1] = sign * points[:, 0]
    return LabeledSampleSet(points, np.ones(n, dtype=int))


@st.composite
def mixed_edges(draw):
    n = draw(st.integers(2000, 20_000))
    return dict(n=n, d=draw(st.integers(2, 4)),
                side=draw(st.sampled_from([-1, 1])),
                ulps=draw(st.integers(-64, 64)),
                heavy=draw(st.integers(1, n // 5)),
                seed=draw(st.integers(0, 2**32 - 1)))


def report_and_kernel_calls(s, k, mean=None, bound=None):
    """moment_match_test(s, k) and the precision of each kernel call it
    made (True for single). A ``mean`` or ``bound`` replaces every mean or
    bound of the single-precision pass."""
    real = moment_test.batch_empirical_moments
    calls = []

    def kernel(points, monomials, stop=None, *, single=False):
        calls.append(single)
        result = real(points, monomials, stop, single=single)
        if not single:
            return result
        return tuple(got if value is None else np.full_like(got, value)
                     for got, value in zip(result, (mean, bound)))

    moment_test.batch_empirical_moments = kernel
    try:
        return moment_match_test(s, k), calls
    finally:
        moment_test.batch_empirical_moments = real


def float64_report(s, k):
    """The float64 test's report: a single-precision pass whose means and
    bounds are all NaN proves nothing."""
    return report_and_kernel_calls(s, k, np.nan, np.nan)[0]


def with_coordinates(s, rows, column, values):
    points = s.points.copy()
    points[rows, column] = values
    return LabeledSampleSet(points, s.labels)


class TestSinglePrecisionPass:
    """The single-precision pass certifies only what the float64 test
    certifies, and every report is the float64 test's."""

    @given(band_edges())
    def test_pure_band_edges_give_the_float64_report(self, case):
        # At a band's edge the single-precision mean falls on either side
        # of it, so only the bound keeps that pass from certifying what the
        # float64 test rejects.
        s, m = band_edge_set(**case), case["m"]
        assert moment_match_test(s, m) == float64_report(s, m)

    @given(mixed_edges())
    def test_mixed_band_edges_give_the_float64_report(self, case):
        s = mixed_edge_set(**case)
        assert moment_match_test(s, 2) == float64_report(s, 2)

    def test_mixed_edge_construction(self):
        # x_0 x_1 sits on its band's edge and is the only monomial out of
        # its band, so the property test above reaches the cases where
        # rounding decides.
        for side in (-1, 1):
            s = mixed_edge_set(5001, 3, side, 0, 500, 7)
            mean = np.mean(s.points[:, 0] * s.points[:, 1])
            assert mean == pytest.approx(side * SLACK / math.sqrt(5001),
                                         rel=1e-12)
            report = moment_match_test(s, 2)
            assert all(v.monomial == (1, 1, 0)
                       for v in report.worst_violations)
            assert moment_match_test(mixed_edge_set(5001, 3, side, -4096,
                                                    500, 7), 2).certified

    @pytest.mark.parametrize("values", [1e20, 1e-30, 1e-40, 1e-320])
    @pytest.mark.parametrize("rows", [slice(0, 10), slice(None)])
    def test_extreme_coordinates_give_the_float64_report(self, values, rows):
        # 1e20 overflows float32 when squared; 1e-30 underflows it when
        # squared, 1e-40 is a float32 subnormal and 1e-320 a float64 one.
        # RuntimeWarnings are errors here.
        s = with_coordinates(gaussian_set(5000, 3, 0), rows, 1, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, calls = report_and_kernel_calls(s, 4)
            want = float64_report(s, 4)
        assert report == want
        assert len(calls) == 1 + (not want.certified)
        if values > 1:
            assert not want.certified

    def test_kernel_calls(self):
        report, calls = report_and_kernel_calls(gaussian_set(20_000, 5, 1), 4)
        assert report.certified and calls == [True]
        report, calls = report_and_kernel_calls(rademacher_set(20_000, 5, 1),
                                                4)
        assert not report.certified and calls == [True, False]

    @pytest.mark.parametrize("d", [3, 4])
    def test_large_low_dimensional_samples_certify_in_one_pass(self, d):
        # A block holds 32,768 rows at d <= 4. Summed in one float32
        # product, its bound on a degree-1 mean would be most of the band
        # at this n, and every such test would run both passes.
        report, calls = report_and_kernel_calls(
            gaussian_set(1_250_000, d, 2), 4)
        assert report.certified and calls == [True]

    @pytest.mark.parametrize("bound", [np.inf, np.nan])
    def test_inf_or_nan_bounds_prove_nothing(self, bound):
        # An overflow turns the bounds inf or NaN, which never certifies,
        # even where every single-precision mean is inside its band.
        report, calls = report_and_kernel_calls(gaussian_set(20_000, 5, 1),
                                                4, bound=bound)
        assert report.certified and calls == [True, False]

    def test_reports_independent_of_blas_threads(self):
        script = (
            "import numpy as np\n"
            "from halflearn import LabeledSampleSet\n"
            "from halflearn.moment_test import moment_match_test\n"
            "rng = np.random.default_rng(3)\n"
            "for n, d, k, scale in ((30_001, 12, 4, 1.0),\n"
            "                       (20_000, 20, 4, 1.0),\n"
            "                       (20_000, 5, 6, 1.0),\n"
            "                       (20_000, 8, 4, 1.3)):\n"
            "    points = scale * rng.standard_normal((n, d))\n"
            "    print(moment_match_test(LabeledSampleSet(\n"
            "        points, np.ones(n, dtype=int)), k))\n")
        one, two = (stdout_with_blas_threads(script, t) for t in (1, 2))
        assert one.count(b"MomentTestReport") == 4
        assert b"worst_violations=()" in one and b"MomentViolation" in one
        assert one == two
