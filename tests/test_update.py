import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halflearn import LabeledSampleSet, UnitVector, empirical_error
from halflearn.core import Rejected, normalize, predict_batch
from halflearn.datagen import MarginalFamily, NoiseModel, generate
from halflearn.moment_test import moment_match_test
from halflearn.update import (RATE_CHECK, acceptance_probabilities,
                              check_unwhitening_error_bound,
                              localized_update, rejection_sample, stretch,
                              unwhiten_direction, whiten)

from conftest import (basis_vector, bound_case, cfg, gaussian_set,
                      planted_e1)


def unit(coords):
    return normalize(np.asarray(coords, dtype=float))


def update(s, v, delta, c):
    """localized_update seeded from c.seed, with Chow failure budget c.tau
    (the pipeline gives it a per-tester share of tau)."""
    return localized_update(s, v, delta, c, np.random.default_rng(c.seed),
                            c.tau)


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
        with pytest.raises(Rejected) as rejected:
            rejection_sample(s, unit([1, 0]), 0.01, np.random.default_rng(0))
        assert rejected.value.tester == RATE_CHECK


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
            assert check_unwhitening_error_bound(*bound_case(rng, 5))

    def test_orthogonal_configuration_rejected(self):
        v = unit(basis_vector(3, 0))
        v_star = unit(basis_vector(3, 1))
        with pytest.raises(ValueError):
            check_unwhitening_error_bound(v_star, v, v_star, 0.01, 0.0)

    @pytest.mark.parametrize("delta, zeta, w_offset, message", [
        (0.0, 0.0, 0.0, "delta must lie"), (0.02, 0.0, 0.0, "delta must lie"),
        (0.008, -0.001, 0.0, "zeta must lie"),
        (0.008, 0.02, 0.0, "zeta must lie"),
        (0.008, 0.001, 0.01, "w is farther than zeta")])
    def test_hypotheses_are_checked(self, delta, zeta, w_offset, message):
        v = unit(basis_vector(3, 0))
        v_star = normalize(np.array([1.0, 0.006, 0.0]))
        w = normalize(stretch(v_star.coords, v, 0.008) + [0.0, 0.0, w_offset])
        with pytest.raises(ValueError, match=message):
            check_unwhitening_error_bound(v_star, v, w, delta, zeta)

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


class TestHalvingStep:
    def test_noiseless_update_halves_distance(self):
        # Start 0.008 away from the target at scale delta = 0.01: the
        # refreshed direction lands within delta / 2 of the target.
        v_star = UnitVector(basis_vector(8, 0))
        start = normalize(basis_vector(8, 0) + 0.008 * basis_vector(8, 1))
        hits = 0
        for seed in range(20):
            s, _ = planted_e1(400_000, 8, seed)
            out = update(s, start, 0.01, cfg(seed))
            assert isinstance(out, UnitVector)
            hits += np.linalg.norm(out.coords - v_star.coords) <= 0.005
        assert hits >= 19

    def test_wide_delta_rate_matches(self):
        # The round's rate: rejection_sample takes the first draws from
        # the round's rng.
        rates = []
        v = UnitVector(basis_vector(4, 0))
        for seed in range(20):
            s, _ = planted_e1(50_000, 4, seed)
            assert isinstance(update(s, v, 0.5, cfg(seed)), UnitVector)
            rates.append(rejection_sample(s, v, 0.5,
                                          np.random.default_rng(seed))[1])
        assert max(abs(r - 0.5) for r in rates) <= 0.01


class TestRateCheck:
    def test_uniform_margin_rejected(self):
        # Margin uniform on [-3, 3]: acceptance mass integrates to about
        # delta * sqrt(2 pi) / 6 ~ 0.42 delta, below the delta/2 floor.
        rng = np.random.default_rng(5)
        n, d, delta = 400_000, 4, 0.01
        points = rng.standard_normal((n, d))
        points[:, 0] = rng.uniform(-3.0, 3.0, size=n)
        v = UnitVector(basis_vector(d, 0))
        s = LabeledSampleSet(points, predict_batch(v, points))
        with pytest.raises(Rejected) as rejected:
            update(s, v, delta, cfg())
        assert rejected.value.tester == "rate_check"
        rate = rejection_sample(s, v, delta,
                                np.random.default_rng(cfg().seed))[1]
        assert rate < delta / 2
        # closed form: (1/6) integral of the acceptance curve over [-3, 3]
        # ~ delta sqrt(2 pi) / 6 for small delta
        expected = delta * np.sqrt(2 * np.pi) / 6
        assert rate == pytest.approx(expected, abs=5e-4)

    def test_inner_moment_rejection_reported(self):
        # Survivors whose orthogonal coordinates are +-1 pass the rate check
        # but fail the inner moment test after whitening.
        rng = np.random.default_rng(8)
        n, d = 200_000, 4
        points = rng.standard_normal((n, d))
        points[:, 1:] = rng.choice([-1.0, 1.0], size=(n, d - 1))
        v = UnitVector(basis_vector(d, 0))
        s = LabeledSampleSet(points, predict_batch(v, points))
        with pytest.raises(Rejected) as rejected:
            update(s, v, 0.02, cfg())
        assert rejected.value.tester == "moment_test"


class TestErrorAmplification:
    def test_boundary_noise_amplifies_at_most_two_over_delta(self):
        # Flipping minimum-margin labels concentrates noise exactly where
        # localization samples; the accepted-set error stays within
        # 2 opt / delta plus sampling slack.
        d, n, opt, delta = 6, 300_000, 0.02, 0.1
        v_star = UnitVector(basis_vector(d, 0))
        s = generate(d, n, MarginalFamily("gaussian"), v_star,
                     NoiseModel("boundary-flip", opt), 11)
        opt_emp = empirical_error(v_star, s)
        accepted, _ = rejection_sample(s, v_star, delta,
                                       np.random.default_rng(0))
        accepted_err = empirical_error(v_star, accepted)
        slack = 5.0 / np.sqrt(accepted.n)
        assert accepted_err <= 2.0 * opt_emp / delta + slack


class TestContract:
    def test_delta_range(self):
        s, _ = planted_e1(10_000, 3, 0)
        with pytest.raises(ValueError):
            update(s, UnitVector(basis_vector(3, 0)), 0.6, cfg())

    def test_expected_accept_precondition(self):
        s, _ = planted_e1(10_000, 3, 0)
        with pytest.raises(ValueError):
            update(s, UnitVector(basis_vector(3, 0)), 0.01, cfg())

    def test_deterministic_given_seed(self):
        s, _ = planted_e1(50_000, 4, 3)
        v = UnitVector(basis_vector(4, 0))
        a = update(s, v, 0.1, cfg(7))
        b = update(s, v, 0.1, cfg(7))
        rates = [rejection_sample(s, v, 0.1, np.random.default_rng(7))[1]
                 for _ in range(2)]
        assert rates[0] == rates[1]
        assert np.array_equal(a.coords, b.coords)


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
