import numpy as np
import pytest

from halflearn import LabeledSampleSet, RunConfig, UnitVector, weak
from halflearn.core import Rejected, predict_batch
from halflearn.datagen import MarginalFamily, NoiseModel, generate
from halflearn.moment_test import moment_match_test
from halflearn.weak import ChowEstimate, weak_proper_learn

from conftest import basis_vector


def cfg(seed=0, k_cap=4):
    return RunConfig(epsilon=0.05, tau=0.05, seed=seed, k_cap=k_cap)


def learn(s, c):
    """weak_proper_learn seeded from c.seed, with Chow failure budget
    c.tau; the pipeline gives it a per-tester share of tau instead."""
    return weak_proper_learn(s, c, np.random.default_rng(c.seed), c.tau)


def planted(n, d, seed, flip=0.0):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    v = UnitVector(basis_vector(d, 0))
    labels = predict_batch(v, points)
    if flip > 0.0:
        mask = rng.random(n) < flip
        labels = np.where(mask, -labels, labels)
    return LabeledSampleSet(points, labels), v


class TestLearnBranch:
    def test_clean_direction_close(self):
        angles = []
        for seed in range(20):
            s, v = planted(200_000, 5, seed)
            out = learn(s, cfg(seed))
            assert isinstance(out, UnitVector)
            angles.append(np.arccos(np.clip(out.coords @ v.coords, -1, 1)))
        assert max(angles) <= 0.05

    def test_flipped_labels_within_calibrated_bound(self):
        # Random flips at opt in {0, 0.02, 0.05}: every accepting run stays
        # within 2 sqrt(opt + eta) of the target, eta = 0.01. The distance
        # constant 2 was calibrated once and is frozen.
        eta = 0.01
        for opt in (0.0, 0.02, 0.05):
            for seed in range(20):
                s, v = planted(200_000, 8, seed, flip=opt)
                out = learn(s, cfg(seed))
                assert isinstance(out, UnitVector)
                dist = np.linalg.norm(out.coords - v.coords)
                assert dist <= 2.0 * np.sqrt(opt + eta), (opt, seed, dist)

    def test_direction_scale_invariant(self):
        # Chow scaling cannot change the normalized output.
        s, _ = planted(5000, 3, 1)
        a = learn(s, cfg(5))
        b = learn(s, cfg(5))
        assert np.array_equal(a.coords, b.coords)


class TestRejectBranch:
    def test_rademacher_rejected_before_chow(self):
        rng = np.random.default_rng(0)
        points = rng.integers(0, 2, size=(50_000, 5)).astype(float) * 2 - 1
        v = UnitVector(basis_vector(5, 0))
        s = LabeledSampleSet(points, predict_batch(v, points))
        with pytest.raises(Rejected) as rejected:
            learn(s, cfg())
        assert rejected.value.tester == "moment_test"
        assert not moment_match_test(s, cfg().k_cap).certified

    def test_degenerate_chow_reported(self, monkeypatch):
        # An all-zero Chow estimate on a marginal that passes the moment
        # test: the direction degenerates after certification.
        def zero_chow(s, batch_count, rng):
            return ChowEstimate(np.zeros(s.d), batch_count, np.zeros(s.d))

        monkeypatch.setattr(weak, "estimate_chow", zero_chow)
        s, _ = planted(4000, 3, 3)
        with pytest.raises(Rejected) as rejected:
            learn(s, cfg())
        assert rejected.value.tester == "degenerate_chow"
        assert moment_match_test(s, cfg().k_cap).certified


class TestMomentDegree:
    def test_degree_is_k_cap(self):
        # A unit-variance uniform cube matches every Gaussian moment up to
        # degree 3; its fourth moments are 9/5 against 3.
        v = UnitVector(basis_vector(3, 0))
        s = generate(3, 20_000, MarginalFamily("uniform-cube"), v,
                     NoiseModel("clean"), 4)
        assert isinstance(learn(s, cfg(k_cap=3)), UnitVector)
        with pytest.raises(Rejected) as rejected:
            learn(s, cfg(k_cap=4))
        assert rejected.value.tester == "moment_test"


class TestContract:
    def test_min_samples(self):
        s, _ = planted(999, 3, 0)
        with pytest.raises(ValueError):
            learn(s, cfg())
