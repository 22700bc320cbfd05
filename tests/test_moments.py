import itertools
import math
import sys
import threading
import time
import weakref
from math import comb

import numpy as np
import pytest
from conftest import stdout_with_blas_threads
from hypothesis import given
from hypothesis import strategies as st

from halflearn import LabeledSampleSet, RunConfig, testable_learn
from halflearn.moments import (MonomialExponent, batch_empirical_moments,
                               enumerate_monomials, gaussian_moments,
                               monomial_exponents)
from halflearn import moments
from reference import monomial_values

EPS = np.finfo(np.float64).eps


TWO_POINTS = np.array([[1.0, 2.0], [-1.0, 0.0]])


class TestEnumerate:
    def test_degree_one_pair(self):
        assert [m.exponents for m in enumerate_monomials(2, 1)] == \
            [(1, 0), (0, 1)]

    def test_degree_two_listing(self):
        assert [m.exponents for m in enumerate_monomials(2, 2)] == \
            [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_count_d3_k4(self):
        # Oracle: brute-force enumeration over the exponent box.
        brute = sum(1 for exps in itertools.product(range(5), repeat=3)
                    if 1 <= sum(exps) <= 4)
        monos = enumerate_monomials(3, 4)
        assert len(monos) == brute == comb(7, 4) - 1

    def test_duplicate_free_and_graded(self):
        monos = enumerate_monomials(4, 3)
        seen = [m.exponents for m in monos]
        assert len(set(seen)) == len(seen)
        degrees = [m.degree for m in monos]
        assert degrees == sorted(degrees)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            enumerate_monomials(0, 2)
        with pytest.raises(ValueError):
            enumerate_monomials(2, 0)
        with pytest.raises(ValueError):
            enumerate_monomials(2, 2.5)

    @given(st.integers(1, 5), st.integers(1, 5))
    def test_array_matches_brute_force(self, d, k):
        # Oracle: every exponent vector in the box, sorted by degree and
        # then in descending-lex order.
        brute = sorted((exps for exps in itertools.product(range(k + 1),
                                                           repeat=d)
                        if 1 <= sum(exps) <= k),
                       key=lambda exps: (sum(exps), [-a for a in exps]))
        exponents = monomial_exponents(d, k)
        assert exponents.dtype == np.int64
        assert exponents.tolist() == [list(exps) for exps in brute]
        points = np.random.default_rng(d * 10 + k).standard_normal((50, d))
        as_objects = [MonomialExponent(exps) for exps in brute]
        assert batch_empirical_moments(points, exponents).tobytes() == \
            batch_empirical_moments(points, as_objects).tobytes()


class TestMonomialExponent:
    def test_refuses_non_integer_exponents(self):
        # int() would truncate these to (1, 0).
        for exps in ((1.5, 0.7), (np.float64(2.0), 1), ("1", 0)):
            with pytest.raises(ValueError):
                MonomialExponent(exps)

    @pytest.mark.parametrize("exps, message", [
        ((), "at least one variable"), ((0, 0), "degree must be at least 1")])
    def test_refuses_an_empty_or_constant_monomial(self, exps, message):
        with pytest.raises(ValueError, match=message):
            MonomialExponent(exps)

    def test_accepts_numpy_integers(self):
        m = MonomialExponent((np.int64(2), np.int32(0), 1))
        assert m.exponents == (2, 0, 1)
        assert all(type(a) is int for a in m.exponents)


def double_factorial(a):
    return math.prod(range(a, 0, -2))


class TestGaussianMoment:
    def test_unit_variance(self):
        assert gaussian_moments([(2, 0)])[0].tolist() == [1.0]

    def test_odd_exponent_vanishes(self):
        assert gaussian_moments([(1, 1)])[0].tolist() == [0.0]

    def test_mixed_quartic(self):
        # E[x^4 y^2] = 3!! * 1!! = 3; cross-checked by Monte Carlo in the
        # acceptance suite at N = 1e7.
        assert gaussian_moments([(4, 2)])[0].tolist() == [3.0]

    def test_permutation_invariance(self):
        perms = list(itertools.permutations((4, 2, 0)))
        assert gaussian_moments(perms)[0].tolist() == [3.0] * len(perms)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            gaussian_moments([(22, 0)])

    def test_variance_from_oracle(self):
        # Var[x^2] = E[x^4] - 1 = 2; Var[xy] = E[x^2 y^2] = 1
        assert gaussian_moments([(2, 0), (1, 1)])[1].tolist() == [2.0, 1.0]

    def test_exact_above_two_to_the_53(self):
        # Var[x^20] = 39!! - (19!!)^2 and Var[x^10 y^10] = (19!!)^2 - (9!!)^4
        # exceed 2^53; each is the exact integer rounded once.
        want = [float(double_factorial(39) - double_factorial(19) ** 2),
                float(double_factorial(19) ** 2 - double_factorial(9) ** 4)]
        assert want[1] > 2.0 ** 53
        assert gaussian_moments([(20, 0), (10, 10)])[1].tolist() == want


class TestEmpiricalMoment:
    def test_symmetric_first_coordinate(self):
        m = MonomialExponent((1, 0))
        assert batch_empirical_moments(TWO_POINTS, [m])[0] == 0.0

    def test_squares(self):
        m = MonomialExponent((2, 0))
        assert batch_empirical_moments(TWO_POINTS, [m])[0] == 1.0

    def test_cross_term(self):
        # (1*2 + (-1)*0) / 2 = 1
        m = MonomialExponent((1, 1))
        assert batch_empirical_moments(TWO_POINTS, [m])[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            batch_empirical_moments(TWO_POINTS, [MonomialExponent((1, 0, 0))])

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros(2)],
                             ids=["no-rows", "1-d"])
    def test_refuses_points_that_are_not_rows(self, points):
        with pytest.raises(ValueError, match="non-empty"):
            batch_empirical_moments(points, [MonomialExponent((1, 0))])

    @pytest.mark.parametrize("monomials", [[], np.zeros((0, 2), np.int64)],
                             ids=["list", "array"])
    def test_no_monomials_gives_no_moments(self, monomials):
        out = batch_empirical_moments(TWO_POINTS, monomials)
        assert out.dtype == np.float64 and out.shape == (0,)

    def test_batch_matches_naive(self, rng):
        points = rng.standard_normal((500, 3))
        monos = enumerate_monomials(3, 4)
        batch = batch_empirical_moments(points, monos)
        for naive, value in zip(naive_moments(points, monos)[0], batch):
            assert value == pytest.approx(naive, rel=1e-12, abs=1e-12)

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    def test_single_matches_naive(self, a, b, c):
        if a + b + c == 0:
            return
        rng = np.random.default_rng(7)
        points = rng.standard_normal((200, 3))
        m = MonomialExponent((a, b, c))
        naive = naive_moments(points, [m])[0][0]
        assert batch_empirical_moments(points, [m])[0] == pytest.approx(
            naive, rel=1e-12, abs=1e-12)


def test_gaussian_concentration_at_desk_scale():
    # Fixed-seed draw of 1e6 standard Gaussians: every degree <= 4 moment
    # sits within 5 standard errors of the exact value.
    rng = np.random.default_rng(2024)
    n = 1_000_000
    points = rng.standard_normal((n, 5))
    exponents = monomial_exponents(5, 4)
    emp = batch_empirical_moments(points, exponents)
    reference, variance = gaussian_moments(exponents)
    band = 5.0 * np.sqrt(variance / n)
    assert np.all(np.abs(emp - reference) <= band)


def naive_moments(points, monomials):
    """Product-of-powers mean of each monomial, and the mean of its
    absolute value, which scales the rounding error of any summation."""
    values = monomial_values(points, [m.exponents for m in monomials])
    return values.mean(axis=1), np.abs(values).mean(axis=1)


def assert_matches_naive(got, points, monomials):
    want, scale = naive_moments(points, monomials)
    # Summing n terms in any order errs by at most about n * eps times
    # their absolute sum (Higham, Accuracy and Stability, ch. 4); 64 more
    # ulps cover the rounding of the products of degree <= 20.
    bound = (points.shape[0] + 64) * EPS * scale
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want)
                                                       / bound)


class CountingEvent(threading.Event):
    """An Event that counts how often it is read."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def is_set(self):
        self.checks += 1
        return super().is_set()


class TestGramEngine:
    def test_matches_naive_products(self, rng):
        for d, k in ((4, 3), (3, 5), (3, 6)):
            points = rng.standard_normal((1000, d))
            monos = enumerate_monomials(d, k)
            assert_matches_naive(batch_empirical_moments(points, monos),
                                 points, monos)

    def test_mixed_degrees_in_any_order(self, rng):
        points = rng.standard_normal((700, 4))
        monos = enumerate_monomials(4, 4) + [
            MonomialExponent((3, 0, 2, 2)), MonomialExponent((0, 9, 0, 0)),
            MonomialExponent((1, 1, 1, 0))]
        monos = [monos[i] for i in rng.permutation(len(monos))]
        got = batch_empirical_moments(points, monos)
        assert_matches_naive(got, points, monos)
        # Each value agrees with a call that asks for that monomial alone.
        for m, value in zip(monos[:10], got):
            single = batch_empirical_moments(points, [m])[0]
            assert abs(single - value) <= 2 * points.shape[0] * EPS * \
                naive_moments(points, [m])[1][0]

    def test_single_degree_twenty_monomial_is_fast(self, rng):
        # Each request builds every monomial of degree <= 10 as a column:
        # 66 at d = 2, 286 at d = 3.
        for exps in ((20, 0), (11, 9), (7, 6, 7)):
            points = rng.standard_normal((20_000, len(exps)))
            monos = [MonomialExponent(exps)]
            start = time.perf_counter()
            got = batch_empirical_moments(points, monos)
            assert time.perf_counter() - start < 1.0
            assert_matches_naive(got, points, monos)

    def test_single_row(self, rng):
        points = rng.standard_normal((1, 3))
        monos = enumerate_monomials(3, 4)
        assert_matches_naive(batch_empirical_moments(points, monos),
                             points, monos)

    def test_rows_not_a_multiple_of_the_block(self, rng):
        # d = 3, k = 4 needs 10 columns (the constant, 3 linear, 6
        # quadratic), padded to one width multiple.
        rows_per_block = moments._BLOCK_DOUBLES // moments._WIDTH_MULTIPLE
        points = rng.standard_normal((2 * rows_per_block + 17, 3))
        monos = enumerate_monomials(3, 4)
        assert_matches_naive(batch_empirical_moments(points, monos),
                             points, monos)

    def test_block_size_invariant(self, rng, monkeypatch):
        points = rng.standard_normal((1000, 3))
        monos = enumerate_monomials(3, 4)
        whole = batch_empirical_moments(points, monos)
        scale = naive_moments(points, monos)[1]
        # The table is 16 wide, so 1, 70 and 999 doubles per block give
        # 1, 4 and 62 rows per block. The kernel reads the stop once per
        # block, so the count shows that each call sized its own blocks.
        for doubles, blocks in ((1, 1000), (70, 250), (999, 17)):
            monkeypatch.setattr(moments, "_BLOCK_DOUBLES", doubles)
            stop = CountingEvent()
            blocked = batch_empirical_moments(points, monos, stop)
            assert stop.checks == blocks
            assert np.all(np.abs(blocked - whole)
                          <= 2 * points.shape[0] * EPS * scale)

    def test_bytes_independent_of_blas_threads(self):
        # 231 columns at d = 20, k = 4, and a partial last block.
        script = (
            "import sys, numpy as np\n"
            "from halflearn.moments import batch_empirical_moments, "
            "enumerate_monomials\n"
            "points = np.random.default_rng(5).standard_normal((30_001, 20))\n"
            "sys.stdout.buffer.write(batch_empirical_moments(\n"
            "    points, enumerate_monomials(20, 4)).tobytes())\n")
        one, two = (stdout_with_blas_threads(script, t) for t in (1, 2))
        assert len(one) == 8 * (comb(24, 4) - 1)
        assert one == two

    def test_sums_stay_accurate_at_ten_million_rows(self):
        n, chunk = 10_000_000, 1_000_000
        points = np.random.default_rng(99).standard_normal((n, 3))
        monos = [MonomialExponent(e) for e in
                 ((4, 0, 0), (2, 2, 0), (0, 1, 3))]
        got = batch_empirical_moments(points, monos)
        for m, value in zip(monos, got):
            parts = [monomial_values(points[i:i + chunk], [m.exponents])[0]
                     for i in range(0, n, chunk)]
            exact = math.fsum(itertools.chain.from_iterable(
                part.tolist() for part in parts)) / n
            scale = sum(float(np.abs(part).sum()) for part in parts) / n
            # A running sum of these rows errs by up to ~1000 ulps of the
            # mean absolute value on the even monomials; the blocked Gram
            # sum stays within a few.
            assert abs(value - exact) <= 16 * EPS * scale, m.exponents


class TestGramPlanCache:
    @pytest.mark.parametrize("d, k", [(3, 2), (8, 4), (12, 4), (20, 4),
                                      (5, 8), (3, 12)])
    def test_warm_call_matches_a_cold_one(self, d, k):
        points = np.random.default_rng(d * 100 + k).standard_normal((300, d))
        exponents = monomial_exponents(d, k)
        batch_empirical_moments(points, exponents)
        hits = moments._gram_plan.cache_info().hits
        warm = batch_empirical_moments(points, exponents.copy())
        assert moments._gram_plan.cache_info().hits == hits + 1
        moments._gram_plan.cache_clear()
        cold = batch_empirical_moments(points, exponents)
        assert warm.tobytes() == cold.tobytes()

    def test_keyed_by_the_table_not_its_shape(self, rng):
        points = rng.standard_normal((300, 4))
        exponents = monomial_exponents(4, 4)
        order = rng.permutation(len(exponents))
        want = batch_empirical_moments(points, exponents)[order]
        got = batch_empirical_moments(points, exponents[order])
        assert got.tobytes() == want.tobytes()

    def test_plan_is_read_only(self):
        exponents = monomial_exponents(4, 4)
        rows, cols, width, steps = moments._gram_plan(
            moments._ExponentTable(exponents))
        assert not rows.flags.writeable and not cols.flags.writeable
        assert isinstance(steps, tuple)
        assert width % moments._WIDTH_MULTIPLE == 0

    def test_cache_keeps_no_table_alive(self, rng):
        exponents = monomial_exponents(6, 4)
        table = weakref.ref(exponents)
        batch_empirical_moments(rng.standard_normal((300, 6)), exponents)
        del exponents
        assert table() is None

    def test_threads_on_an_empty_cache_agree(self, rng):
        points = rng.standard_normal((20_000, 12))
        exponents = monomial_exponents(12, 4)
        want = batch_empirical_moments(points, exponents).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                moments._gram_plan.cache_clear()
                start = threading.Barrier(4)
                got = []

                def run():
                    table = exponents.copy()
                    start.wait()
                    got.append(batch_empirical_moments(points, table)
                               .tobytes())

                threads = [threading.Thread(target=run) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert got == [want] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_accepted_call_builds_its_plan_once(self):
        rng = np.random.default_rng(12)
        points = rng.standard_normal((600_000, 12))
        labels = np.where(points @ np.full(12, 12 ** -0.5) >= 0, 1, -1)
        cfg = RunConfig(epsilon=0.05, tau=0.05, seed=0)
        moments._gram_plan.cache_clear()
        report = testable_learn(LabeledSampleSet(points, labels), 0.05, 0.05,
                                cfg)
        assert report.hypothesis is not None
        info = moments._gram_plan.cache_info()
        assert info.misses == 1 and info.hits >= 1
