import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from halflearn import UnitVector
from halflearn.core import SLACK, normalize
from halflearn.wedge import (EIGENVALUE_BOUND, MEAN_BOUND, SLAB_MOMENT_CHECK,
                             TV_CHECK, _CHECK_TOL, _decompose, _phi,
                             min_sample_count, slab_band_count,
                             slab_min_count, smallest_testable_eta,
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
        # Coverage counts the well-populated slabs up to the failing one.
        counts = np.rint(verdict.decomposition.slab_masses * 100_000)
        kept = np.flatnonzero(counts >= slab_min_count(5))
        offset = verdict.failed_slab_index + verdict.decomposition.b + 1
        assert verdict.slabs_checked == np.searchsorted(kept, offset) + 1
        assert verdict.mass_checked == pytest.approx(
            counts[kept[:verdict.slabs_checked]].sum() / 100_000)

    @pytest.mark.parametrize("value", [1e150, 1e200, 1e300])
    def test_huge_finite_coordinate_fails_moment_check(self, value):
        # The row's margin falls in a populated tail, whose second moment
        # is huge or overflows; with warnings as errors, no RuntimeWarning
        # escapes either.
        points = gaussian_points(100_000, 5, 3)
        points[17, 1] = value
        verdict = wedge_bound_test(points, normalize(np.ones(5)), 0.1)
        assert verdict.rejected_by == SLAB_MOMENT_CHECK

    def test_two_point_margin_fails_tv_check(self):
        rng = np.random.default_rng(2)
        n = 100_000
        points = rng.standard_normal((n, 4))
        points[:, 0] = rng.choice([-1.0, 1.0], size=n)
        verdict = wedge_bound_test(points, e(4), 0.1)
        assert not verdict.certified
        assert verdict.rejected_by == "tv_check"
        assert verdict.slabs_checked == 0 and verdict.mass_checked == 0.0

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


def reference_wedge_test(points, v, eta):
    """The slab check as a loop over every bin: sort the rows by bin, then
    project each well-populated slab's rows off v and take its moments.
    Returns (rejected_by, failed_slab_index, tv, worst eigenvalue,
    reference masses)."""
    n = points.shape[0]
    margins = points @ v.coords
    b, t = slab_band_count(eta), tail_threshold(eta)
    bins = np.clip(np.floor(margins / eta).astype(np.int64), -b - 1, b + 1)
    bins[margins >= t] = b + 1
    bins[margins <= -t] = -b - 1
    bins += b + 1
    ref = np.zeros(2 * b + 3)
    ref[0], ref[-1] = _phi(-t), 1.0 - _phi(t)
    for i in range(-b, b + 1):
        lo = min(max(i * eta, -t), t)
        hi = min(max((i + 1) * eta, -t), t)
        ref[i + b + 1] = max(0.0, _phi(hi) - _phi(lo))
    tv = float(np.abs(np.bincount(bins, minlength=2 * b + 3) / n
                      - ref).sum())
    if tv > eta + SLACK * math.sqrt((2 * b + 3) / n):
        return TV_CHECK, None, tv, 0.0, ref
    worst = 0.0
    order = np.argsort(bins, kind="stable")
    boundaries = np.searchsorted(bins[order], np.arange(2 * b + 4))
    for offset in range(2 * b + 3):
        members = order[boundaries[offset]:boundaries[offset + 1]]
        if members.shape[0] < slab_min_count(v.d):
            continue
        projected = points[members] - np.multiply.outer(margins[members],
                                                        v.coords)
        top = float(np.linalg.eigvalsh(
            projected.T @ projected / members.shape[0])[-1])
        worst = max(worst, top)
        if (top > EIGENVALUE_BOUND + _CHECK_TOL or np.linalg.norm(
                projected.mean(axis=0)) > MEAN_BOUND + _CHECK_TOL):
            return SLAB_MOMENT_CHECK, offset - b - 1, tv, worst, ref
    return None, None, tv, worst, ref


class TestReferenceEquivalence:
    @given(d=st.integers(2, 6),
           eta=st.floats(0.002, 0.2),
           shape=st.sampled_from(["gaussian", "boundary", "shifted"]),
           factor=st.floats(0.3, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_slab_loop(self, d, eta, shape, factor, seed):
        rng = np.random.default_rng(seed)
        v = normalize(rng.standard_normal(d))
        points = rng.standard_normal((max(20_000, min_sample_count(eta)), d))
        margins = points @ v.coords
        orthogonal = points - np.multiply.outer(margins, v.coords)
        if shape == "boundary":
            # Scale the part orthogonal to v inside a band around the
            # boundary, where the slabs are thin.
            near = np.abs(margins) < 5 * eta
            points[near] += (factor - 1.0) * orthogonal[near]
        elif shape == "shifted":
            points += factor * rng.standard_normal(d) / math.sqrt(d)
        verdict = wedge_bound_test(points, v, eta)
        rejected_by, failed, tv, worst, ref = reference_wedge_test(points, v,
                                                                   eta)
        assert verdict.rejected_by == rejected_by
        assert verdict.failed_slab_index == failed
        assert verdict.tv_discrepancy == tv
        assert verdict.decomposition.reference_masses.tobytes() \
            == ref.tobytes()
        assert verdict.worst_slab_eigenvalue == pytest.approx(worst,
                                                              rel=1e-12)


class TestCoverage:
    def test_own_scale_checks_no_slab_and_coarse_scale_most_mass(self):
        # At d=12 a slab needs 660 points; with 60k rows no slab of width
        # 0.01 holds that many, while at 0.05 the central slabs do.
        points = gaussian_points(60_000, 12, 0)
        fine = wedge_bound_test(points, e(12), 0.01)
        coarse = wedge_bound_test(points, e(12), 0.05)
        assert fine.certified and coarse.certified
        assert fine.slabs_checked == 0 and fine.mass_checked == 0.0
        assert fine.worst_slab_eigenvalue == 0.0
        assert coarse.slabs_checked > 0
        assert coarse.mass_checked > 0.5


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
