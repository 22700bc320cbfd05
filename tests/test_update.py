import numpy as np
import pytest

from halflearn import (LabeledSampleSet, RunConfig, UnitVector,
                       empirical_error)
from halflearn.core import Rejected, normalize, predict_batch
from halflearn.datagen import MarginalFamily, NoiseModel, generate
from halflearn.update import localized_update, rejection_sample

from conftest import basis_vector


def cfg(seed=0):
    return RunConfig(epsilon=0.05, tau=0.05, seed=seed)


def update(s, v, delta, c):
    """localized_update seeded from c.seed, with Chow failure budget c.tau
    (the pipeline gives it a per-tester share of tau)."""
    return localized_update(s, v, delta, c, np.random.default_rng(c.seed),
                            c.tau)


def planted_gaussian(n, d, seed):
    v_star = UnitVector(basis_vector(d, 0))
    s = generate(d, n, MarginalFamily("gaussian"), v_star,
                 NoiseModel("clean"), seed)
    return s, v_star


class TestHalvingStep:
    def test_noiseless_update_halves_distance(self):
        # Start 0.008 away from the target at scale delta = 0.01: the
        # refreshed direction lands within delta / 2 of the target.
        v_star = UnitVector(basis_vector(8, 0))
        start = normalize(basis_vector(8, 0) + 0.008 * basis_vector(8, 1))
        hits = 0
        for seed in range(20):
            s, _ = planted_gaussian(400_000, 8, seed)
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
            s, _ = planted_gaussian(50_000, 4, seed)
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
        s, _ = planted_gaussian(10_000, 3, 0)
        with pytest.raises(ValueError):
            update(s, UnitVector(basis_vector(3, 0)), 0.6, cfg())

    def test_expected_accept_precondition(self):
        s, _ = planted_gaussian(10_000, 3, 0)
        with pytest.raises(ValueError):
            update(s, UnitVector(basis_vector(3, 0)), 0.01, cfg())

    def test_deterministic_given_seed(self):
        s, _ = planted_gaussian(50_000, 4, 3)
        v = UnitVector(basis_vector(4, 0))
        a = update(s, v, 0.1, cfg(7))
        b = update(s, v, 0.1, cfg(7))
        rates = [rejection_sample(s, v, 0.1, np.random.default_rng(7))[1]
                 for _ in range(2)]
        assert rates[0] == rates[1]
        assert np.array_equal(a.coords, b.coords)
