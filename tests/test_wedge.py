import numpy as np
import pytest

from halflearn import UnitVector
from halflearn.core import normalize
from halflearn.wedge import (_decompose, min_sample_count,
                             slab_band_count, smallest_testable_eta,
                             tail_threshold, verify_wedge_certificate,
                             wedge_bound_test)

from conftest import basis_vector


def gaussian_points(n, d, seed):
    return np.random.default_rng(seed).standard_normal((n, d))


def e(d, axis=0):
    return UnitVector(basis_vector(d, axis))


class TestDecompose:
    def test_twenty_point_ladder(self):
        # Points at 0, 0.05, ..., 0.95 along e1 with eta = 0.5: ten in
        # [0, 0.5), ten in [0.5, 1), all below the tail threshold.
        points = np.array([[0.05 * j, 0.0] for j in range(20)])
        dec = _decompose(points, e(2), 0.5)[0]
        assert tail_threshold(0.5) > 0.95
        offset = dec.b + 1  # slab index 0
        assert dec.slab_masses[offset] == pytest.approx(0.5)
        assert dec.slab_masses[offset + 1] == pytest.approx(0.5)

    def test_left_closed_boundary(self):
        # v.x exactly eta lands in slab index 1.
        points = np.array([[0.1, 0.0]])
        dec = _decompose(points, e(2), 0.1)[0]
        assert dec.slab_masses[dec.b + 2] == 1.0

    def test_masses_sum_to_one(self):
        dec = _decompose(gaussian_points(10_000, 3, 0), e(3), 0.1)[0]
        assert abs(dec.slab_masses.sum() - 1.0) <= 1e-9
        assert abs(dec.reference_masses.sum() - 1.0) <= 1e-9

    def test_central_slabs_concentrate(self):
        # Every slab's empirical mass sits within 0.005 of its reference.
        worst = 0.0
        for seed in range(20):
            dec = _decompose(gaussian_points(100_000, 3, seed), e(3), 0.1)[0]
            worst = max(worst, np.max(np.abs(
                dec.slab_masses - dec.reference_masses)))
        assert worst <= 0.005

    def test_band_count_formula(self):
        eta = 0.1
        assert slab_band_count(eta) == int(np.ceil(tail_threshold(eta) / eta))
        assert len(_decompose(gaussian_points(100, 2, 0), e(2),
                              eta)[0].slab_masses) \
            == 2 * slab_band_count(eta) + 3


class TestWedgeBound:
    def test_gaussian_certified_over_20_seeds(self):
        hits = 0
        for seed in range(20):
            verdict = wedge_bound_test(gaussian_points(100_000, 5, seed),
                                       e(5), 0.1)
            hits += verdict.certified
        assert hits >= 19

    def test_scaled_coordinate_fails_moment_check(self):
        points = gaussian_points(100_000, 5, 1)
        points[:, 1] *= 3.0
        verdict = wedge_bound_test(points, e(5), 0.1)
        assert not verdict.certified
        assert verdict.rejected_by == "slab_moment_check"
        # Projected second moment along the scaled axis is ~9.
        assert verdict.worst_slab_eigenvalue >= 7.0

    def test_two_point_margin_fails_tv_check(self):
        rng = np.random.default_rng(2)
        n = 100_000
        points = rng.standard_normal((n, 4))
        points[:, 0] = rng.choice([-1.0, 1.0], size=n)
        verdict = wedge_bound_test(points, e(4), 0.1)
        assert not verdict.certified
        assert verdict.rejected_by == "tv_check"

    def test_rotation_equivariance(self):
        points = gaussian_points(20_000, 4, 9)
        rot, _ = np.linalg.qr(np.random.default_rng(10).standard_normal(
            (4, 4)))
        v = normalize(np.random.default_rng(11).standard_normal(4))
        base = wedge_bound_test(points, v, 0.1)
        rotated = wedge_bound_test(points @ rot.T,
                                   normalize(rot @ v.coords), 0.1)
        assert base.rejected_by == rotated.rejected_by
        assert np.allclose(base.decomposition.slab_masses,
                           rotated.decomposition.slab_masses, atol=1e-12)

    def test_tv_invariant_under_permutation(self):
        points = gaussian_points(5000, 3, 3)
        perm = np.random.default_rng(4).permutation(5000)
        a = wedge_bound_test(points, e(3), 0.2)
        b = wedge_bound_test(points[perm], e(3), 0.2)
        assert a.tv_discrepancy == b.tv_discrepancy

    def test_sample_precondition(self):
        with pytest.raises(ValueError):
            wedge_bound_test(gaussian_points(900, 3, 0), e(3), 0.1)

    def test_smallest_testable_eta(self):
        eta = smallest_testable_eta(100_000)
        assert eta is not None
        assert min_sample_count(eta) <= 100_000
        assert min_sample_count(eta * 0.8) > 100_000
        assert smallest_testable_eta(100) is None


class TestCertificateStress:
    def test_identical_direction_trial(self):
        points = gaussian_points(2000, 3, 5)
        worst = verify_wedge_certificate(points, e(3), 0.05, 1,
                                         np.random.default_rng(0))
        assert worst == 0.0

    def test_certified_scale_bounds_disagreement(self):
        points = gaussian_points(100_000, 5, 6)
        for eta in (0.05, 0.1):
            worst = verify_wedge_certificate(points, e(5), eta, 100,
                                             np.random.default_rng(7))
            assert worst <= 10 * eta

    def test_antipodal_direction_disagrees_everywhere(self):
        points = gaussian_points(5000, 3, 8)
        rng = np.random.default_rng(9)
        # distance 2 reaches w = -v; disagreement approaches 1
        worst = verify_wedge_certificate(points, e(3), 2.0, 400, rng)
        assert worst >= 0.9
