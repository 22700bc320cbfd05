import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halflearn import LabeledSampleSet, UnitVector, empirical_error
from halflearn.core import normalize
from halflearn.datagen import MarginalFamily, NoiseModel, generate
from halflearn.localize import (EmptyLocalizationError,
                                acceptance_probabilities,
                                check_unwhitening_error_bound,
                                rejection_sample, stretch, unwhiten_direction,
                                whiten)

from conftest import basis_vector


def gaussian_set(n, d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    return LabeledSampleSet(pts, np.ones(n, dtype=int))


def unit(coords):
    return normalize(np.asarray(coords, dtype=float))


class TestTransform:
    @given(sigma=st.floats(0.01, 0.99), seed=st.integers(0, 10_000))
    def test_round_trip(self, sigma, seed):
        rng = np.random.default_rng(seed)
        v = normalize(rng.standard_normal(4))
        u = normalize(rng.standard_normal(4))
        back = stretch(stretch(u.coords, v, sigma), v, 1.0 / sigma)
        assert np.linalg.norm(back - u.coords) <= 1e-9

    def test_shrink_scales_along_v(self):
        v = unit(basis_vector(3, 0))
        x = np.array([2.0, 1.0, -1.0])
        assert stretch(x, v, 0.25) == pytest.approx([0.5, 1.0, -1.0])

    def test_sigma_range(self):
        v = unit([1, 0])
        for sigma in (1.0, 0.0):
            with pytest.raises(ValueError):
                whiten(gaussian_set(10, 2, 0), v, sigma)
            with pytest.raises(ValueError):
                unwhiten_direction(unit([0, 1]), v, sigma)


class TestAcceptance:
    def test_zero_margin_always_accepted(self):
        probs = acceptance_probabilities(np.array([0.0]), 0.01)
        assert probs[0] == 1.0

    def test_near_one_sigma_accepts_everything(self):
        # exponent factor (sigma^-2 - 1)/2 ~ 1e-3 at sigma = 0.999
        margins = np.linspace(-3, 3, 100)
        probs = acceptance_probabilities(margins, 0.999)
        assert probs.min() >= np.exp(-9 * 0.0011)

    def test_depends_only_on_margin(self):
        # Equal v.x means equal acceptance probability.
        probs = acceptance_probabilities(np.array([1.5, 1.5, -1.5]), 0.3)
        assert probs[0] == probs[1] == probs[2]

    def test_rate_and_conditional_spread(self):
        # Acceptance rate ~ sigma and the margin of survivors ~ N(0, sigma^2).
        v = unit(basis_vector(5, 0))
        sigma = 0.2
        rates, stds = [], []
        for seed in range(20):
            s = gaussian_set(100_000, 5, seed)
            accepted, rate = rejection_sample(
                s, v, sigma, np.random.default_rng(seed + 1000))
            rates.append(rate)
            stds.append(np.std(accepted.points @ v.coords))
        assert max(abs(r - sigma) for r in rates) <= 0.01
        assert max(abs(s - sigma) for s in stds) <= 0.01

    def test_empty_acceptance_raises(self):
        # A point far out along v has acceptance probability ~ 0.
        s = LabeledSampleSet(np.array([[50.0, 0.0]]), np.array([1]))
        with pytest.raises(EmptyLocalizationError):
            rejection_sample(s, unit([1, 0]), 0.01, np.random.default_rng(0))


class TestWhiten:
    def test_along_v_scaling(self):
        v = unit(basis_vector(2, 0))
        s = LabeledSampleSet(np.array([[1.0, 0.0]]), np.array([1]))
        out = whiten(s, v, 0.5)
        assert out.points[0] == pytest.approx([2.0, 0.0])

    def test_orthogonal_unchanged(self):
        v = unit(basis_vector(2, 0))
        s = LabeledSampleSet(np.array([[0.0, 3.0]]), np.array([1]))
        out = whiten(s, v, 0.5)
        assert out.points[0] == pytest.approx([0.0, 3.0])

    def test_whitened_localized_gaussian_is_standard(self):
        # Localize at sigma = 0.2 then whiten: moments up to degree 4 match
        # N(0, I) again.
        from halflearn.moment_test import moment_match_test
        v = unit(basis_vector(4, 0))
        hits_k2 = hits_k4 = 0
        for seed in range(20):
            s = gaussian_set(50_000, 4, seed)
            accepted, _ = rejection_sample(s, v, 0.2,
                                           np.random.default_rng(seed))
            whitened = whiten(accepted, v, 0.2)
            hits_k2 += moment_match_test(whitened, 2).certified
            hits_k4 += moment_match_test(whitened, 4).certified
        assert hits_k2 >= 19
        assert hits_k4 >= 19


class TestUnwhitenDirection:
    def test_v_is_fixed_point(self):
        v = unit([0.6, 0.8])
        out = unwhiten_direction(v, v, 0.3)
        assert np.linalg.norm(out.coords - v.coords) <= 1e-12

    def test_orthogonal_fixed(self):
        v = unit(basis_vector(3, 0))
        w = unit(basis_vector(3, 1))
        out = unwhiten_direction(w, v, 0.3)
        assert np.linalg.norm(out.coords - w.coords) <= 1e-12

    def test_exact_round_trip_recovers_target(self):
        # Shrink the optimum, normalize, unwhiten: lands back on the optimum.
        delta = 0.005
        v = unit(basis_vector(2, 0))
        v_star = unit([1.0, 0.005])
        w = normalize(stretch(v_star.coords, v, delta))
        out = unwhiten_direction(w, v, delta)
        assert np.linalg.norm(out.coords - v_star.coords) <= 1e-9

    @given(sigma=st.floats(0.01, 0.99), seed=st.integers(0, 10_000))
    def test_round_trip_any_direction(self, sigma, seed):
        rng = np.random.default_rng(seed)
        v = normalize(rng.standard_normal(5))
        u = normalize(rng.standard_normal(5))
        w = normalize(stretch(u.coords, v, sigma))
        out = unwhiten_direction(w, v, sigma)
        assert np.linalg.norm(out.coords - u.coords) <= 1e-9


class TestGeometryBound:
    def test_exact_w_case(self):
        delta = 0.008
        v = unit(basis_vector(3, 0))
        v_star = normalize(np.array([1.0, 0.006, 0.0]))
        w = normalize(stretch(v_star.coords, v, delta))
        assert check_unwhitening_error_bound(v_star, v, w, delta, 0.0)

    def test_random_tuples_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ok, *_ = _random_bound_case(rng, d=5)
            assert ok

    def test_orthogonal_configuration_rejected(self):
        v = unit(basis_vector(3, 0))
        v_star = unit(basis_vector(3, 1))
        with pytest.raises(ValueError):
            check_unwhitening_error_bound(v_star, v, v_star, 0.01, 0.0)

    def test_orthogonal_unwhitening_never_improves(self):
        # With v orthogonal to the target, rescaling through the inverse map
        # cannot decrease the distance: 2 - 2b/sqrt((a/xi)^2 + b^2) >= 2 - 2b.
        v = unit(basis_vector(2, 0))
        v_star = unit(basis_vector(2, 1))
        for a in np.arange(0.1, 0.95, 0.1):
            b = np.sqrt(1.0 - a * a)
            w = unit([a, b])
            base_sq = 2.0 - 2.0 * b
            for xi in np.arange(0.1, 1.0, 0.1):
                out = unwhiten_direction(w, v, xi)
                dist_sq = np.sum((out.coords - v_star.coords) ** 2)
                formula = 2.0 - 2.0 * b / np.sqrt((a / xi) ** 2 + b * b)
                assert dist_sq == pytest.approx(formula, abs=1e-12)
                assert dist_sq >= base_sq - 1e-12


def _random_bound_case(rng, d):
    """Random tuple satisfying the geometry-bound hypotheses exactly."""
    from halflearn import random_unit_vector

    delta = rng.uniform(1e-3, 0.01)
    zeta = rng.uniform(0.0, 0.01)
    v_star = random_unit_vector(d, rng)
    u = _orthogonal_unit(v_star, rng)
    kappa = rng.uniform(0.0, delta)
    angle = 2.0 * np.arcsin(kappa / 2.0)
    v = normalize(np.cos(angle) * v_star.coords + np.sin(angle) * u.coords)

    target = normalize(stretch(v_star.coords, v, delta))
    e = _orthogonal_unit(target, rng)
    dist = rng.uniform(0.0, zeta) if zeta > 0 else 0.0
    angle_w = 2.0 * np.arcsin(dist / 2.0)
    w = normalize(np.cos(angle_w) * target.coords
                  + np.sin(angle_w) * e.coords)
    ok = check_unwhitening_error_bound(v_star, v, w, delta, zeta)
    return ok, delta, zeta


def _orthogonal_unit(v, rng):
    g = rng.standard_normal(v.d)
    g -= (g @ v.coords) * v.coords
    return normalize(g)


# Each call relies on another owner for its dimension check: core.margins,
# an einsum that refuses mismatched shapes, for empirical_error and the
# localization maps, and v_star's own dimension (a UnitVector has d >= 2)
# for generate.
@pytest.mark.parametrize("call", [
    lambda s, v: empirical_error(v, s),
    lambda s, v: rejection_sample(s, v, 0.5, np.random.default_rng(0)),
    lambda s, v: whiten(s, v, 0.5),
    lambda s, v: unwhiten_direction(v, UnitVector(basis_vector(2, 0)), 0.5),
    lambda s, v: generate(1, 10, MarginalFamily("gaussian"), v,
                          NoiseModel("clean"), 0),
], ids=["empirical_error", "rejection_sample", "whiten",
        "unwhiten_direction", "generate_d1"])
def test_mismatched_dimensions_raise(call):
    s = gaussian_set(20, 2, 0)
    with pytest.raises(ValueError):
        call(s, UnitVector(basis_vector(3, 0)))
