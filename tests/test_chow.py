import numpy as np
import pytest

from halflearn import Halfspace, LabeledSampleSet, UnitVector
from halflearn.chow import default_batch_count, estimate_chow
from halflearn.core import predict_batch

from conftest import basis_vector

ROOT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def planted_set(n, d, seed, v=None):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    if v is None:
        v = UnitVector(basis_vector(d, 0))
    return LabeledSampleSet(points, predict_batch(Halfspace(v), points))


class TestChowIdentity:
    def test_clean_halfspace_direction(self):
        # Under N(0, I) with labels sign(e1 . x), E[y x] = sqrt(2/pi) e1.
        s = planted_set(200_000, 5, 42)
        est = estimate_chow(s, 9, np.random.default_rng(0))
        target = ROOT_2_OVER_PI * basis_vector(5, 0)
        assert np.linalg.norm(est.vector - target) <= 0.02

    def test_label_negation_equivariance(self):
        s = planted_set(5000, 4, 7)
        flipped = LabeledSampleSet(s.points, -s.labels)
        a = estimate_chow(s, 7, np.random.default_rng(3))
        b = estimate_chow(flipped, 7, np.random.default_rng(3))
        assert np.array_equal(a.vector, -b.vector)


class TestHandComputed:
    def test_median_of_batch_means_semantics(self):
        # Coordinate-wise medians of batch means such as {1, -1, 0} -> 0 and
        # {0, 0, -1} -> 0: verified by replicating the documented seeded
        # shuffle and computing the batch means by hand.
        n, batches, seed = 30, 3, 17
        rng = np.random.default_rng(5)
        points = rng.standard_normal((n, 2))
        labels = rng.choice([-1, 1], size=n)
        s = LabeledSampleSet(points, labels)

        perm = np.random.default_rng(seed).permutation(n)
        signed = labels[:, None] * points
        means = signed[perm[: batches * (n // batches)]].reshape(
            batches, n // batches, 2).mean(axis=1)
        expected = np.median(means, axis=0)

        est = estimate_chow(s, batches, np.random.default_rng(seed))
        assert np.array_equal(est.vector, expected)

    def test_median_zero_on_balanced_batches(self):
        # The documented worked example: batch means (1,0), (-1,0), (0,-1)
        # give coordinate medians (0, 0).
        means = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(np.median(means, axis=0), [0.0, 0.0])

    def test_batch_means_match_signed_product(self, rng):
        # Zeros of both signs and both labels: the batch means, and so the
        # median and spread, are byte-equal to those of labels * points.
        n, batches, seed = 330, 11, 4
        points = rng.standard_normal((n, 3))
        points[rng.random((n, 3)) < 0.2] = 0.0
        points[rng.random((n, 3)) < 0.1] = -0.0
        labels = rng.choice([-1, 1], size=n)
        used = np.random.default_rng(seed).permutation(n)
        means = (labels[used, None] * points[used]).reshape(
            batches, n // batches, 3).mean(axis=1)
        vector = np.median(means, axis=0)

        est = estimate_chow(LabeledSampleSet(points, labels), batches,
                            np.random.default_rng(seed))
        assert est.vector.tobytes() == vector.tobytes()
        assert est.per_coordinate_spread.tobytes() \
            == np.median(np.abs(means - vector), axis=0).tobytes()

    def test_single_batch_is_plain_mean(self, rng):
        points = rng.standard_normal((40, 3))
        labels = rng.choice([-1, 1], size=40)
        s = LabeledSampleSet(points, labels)
        est = estimate_chow(s, 1, np.random.default_rng(0))
        # The shuffle reorders the sum, which moves the last bits.
        exact = np.mean(labels[:, None] * points, axis=0)
        np.testing.assert_allclose(est.vector, exact, rtol=0, atol=1e-15)
        assert np.array_equal(est.per_coordinate_spread, np.zeros(3))


class TestRobustness:
    def test_noise_bound_square_root_shape(self):
        # Flipping an opt fraction of labels moves the estimate by at most
        # c sqrt(opt) plus sampling error; c = 2 is the documented fit.
        from halflearn.datagen import MarginalFamily, generate, make_noise
        n, d = 200_000, 5
        v = UnitVector(basis_vector(d, 0))
        sampling_allowance = 0.01
        for kind in ("random-flip", "boundary-flip", "wedge-flip"):
            for opt in (0.01, 0.05, 0.1):
                s = generate(d, n, MarginalFamily("gaussian"), v,
                             make_noise(kind, opt), 31)
                est = estimate_chow(s, 11, np.random.default_rng(31))
                err = np.linalg.norm(est.vector
                                     - ROOT_2_OVER_PI * basis_vector(d, 0))
                assert err <= 2.0 * np.sqrt(opt) + sampling_allowance, \
                    (kind, opt, err)

    def test_corrupted_batches_stay_in_clean_range(self):
        # Replicate the documented seeded shuffle to know batch membership,
        # then corrupt strictly fewer than half the batches with wild values.
        n, d, batches, seed = 330, 3, 11, 99
        base = planted_set(n, d, 5)
        perm = np.random.default_rng(seed).permutation(n)
        size = n // batches
        used = perm[:batches * size].reshape(batches, size)

        signed = base.labels[:, None] * base.points
        clean_means = signed[used].mean(axis=1)

        points = base.points.copy()
        corrupt_batches = [0, 3, 4, 7, 10]  # 5 < 11/2 rounded up? no: 5 < 5.5
        for b in corrupt_batches:
            points[used[b]] = 1e9
        corrupted = LabeledSampleSet(points, base.labels)
        est = estimate_chow(corrupted, batches, np.random.default_rng(seed))

        lo = clean_means.min(axis=0)
        hi = clean_means.max(axis=0)
        assert np.all(est.vector >= lo - 1e-12)
        assert np.all(est.vector <= hi + 1e-12)


class TestContract:
    def test_requires_odd_batches(self):
        s = planted_set(100, 3, 0)
        with pytest.raises(ValueError):
            estimate_chow(s, 4, np.random.default_rng(0))

    def test_requires_enough_samples(self):
        s = planted_set(50, 3, 0)
        with pytest.raises(ValueError):
            estimate_chow(s, 7, np.random.default_rng(0))

    def test_spread_is_nonnegative(self):
        est = estimate_chow(planted_set(1000, 3, 1), 5,
                            np.random.default_rng(2))
        assert np.all(est.per_coordinate_spread >= 0.0)

    def test_default_batch_count_odd(self):
        for d in (2, 8, 50):
            for tau in (0.5, 0.05, 0.001):
                count = default_batch_count(d, tau, 10_000)
                assert count % 2 == 1 and count >= 3
