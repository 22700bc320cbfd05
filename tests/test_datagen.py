import numpy as np
import pytest

from halflearn import UnitVector, empirical_error, random_unit_vector
from halflearn.core import margins, predict_batch
from halflearn.datagen import (MarginalFamily, NoiseModel, _nearest,
                               generate, make_noise)
from halflearn.moment_test import moment_match_test

from conftest import basis_vector


def v_star(d=5):
    return UnitVector(basis_vector(d, 0))


class TestNoiseModels:
    def test_clean_labels_consistent(self):
        s = generate(4, 5000, MarginalFamily("gaussian"), v_star(4),
                     NoiseModel("clean"), 0)
        assert empirical_error(v_star(4), s) == 0.0

    def test_random_flip_rate(self):
        s = generate(5, 100_000, MarginalFamily("gaussian"), v_star(),
                     NoiseModel("random-flip", 0.1), 1)
        assert empirical_error(v_star(), s) == \
            pytest.approx(0.1, abs=0.005)

    def test_boundary_flip_exact_count(self):
        n, opt = 100_000, 0.1
        s = generate(5, n, MarginalFamily("gaussian"), v_star(),
                     NoiseModel("boundary-flip", opt), 2)
        clean = predict_batch(v_star(), s.points)
        assert int(np.sum(clean != s.labels)) == int(opt * n)

    def test_boundary_flip_targets_small_margins(self):
        s = generate(5, 20_000, MarginalFamily("gaussian"), v_star(),
                     NoiseModel("boundary-flip", 0.05), 3)
        clean = predict_batch(v_star(), s.points)
        margins = np.abs(s.points @ v_star().coords)
        flipped = clean != s.labels
        assert margins[flipped].max() <= margins[~flipped].min() + 1e-12

    def test_wedge_flip_bounded_by_opt(self):
        s = generate(5, 50_000, MarginalFamily("gaussian"), v_star(),
                     NoiseModel("wedge-flip", 0.05), 4)
        err = empirical_error(v_star(), s)
        assert err <= 0.05 + 1e-9

    @pytest.mark.parametrize("n, opt", [(3000, 0.05), (50_000, 0.1)])
    def test_wedge_flip_is_a_wedge_in_the_double_band(self, n, opt):
        # Same seed, same points: the two kinds differ only in which
        # labels they flip. Wedge-flip flips as many, all within the
        # 2 opt n rows nearest the boundary, but not the nearest ones.
        wedge = generate(5, n, MarginalFamily("gaussian"), v_star(),
                         NoiseModel("wedge-flip", opt), 3)
        boundary = generate(5, n, MarginalFamily("gaussian"), v_star(),
                            NoiseModel("boundary-flip", opt), 3)
        assert np.array_equal(wedge.points, boundary.points)
        assert np.any(wedge.labels != boundary.labels)
        flipped = predict_batch(v_star(), wedge.points) != wedge.labels
        assert int(flipped.sum()) == int(opt * n)
        margins = np.abs(wedge.points @ v_star().coords)
        band = np.sort(margins)[int(2 * opt * n) - 1]
        assert margins[flipped].max() <= band

    @pytest.mark.parametrize("k", [0, 1, 1000, 2000, 3999, 4000])
    def test_nearest_rows_match_a_stable_sort(self, k):
        # Rademacher rows give |margin| 0, 1 or 2 along (1, 1, 1, 1) / 2,
        # so every cut inside the sample falls in a run of exact ties.
        points = generate(4, 4000, MarginalFamily("rademacher"), v_star(4),
                          NoiseModel("clean"), 6).points
        distance = np.abs(margins(points, UnitVector(np.full(4, 0.5))))
        stable = np.argsort(distance, kind="stable")[:k]
        nearest = _nearest(distance, k)
        assert np.array_equal(nearest, np.sort(stable))
        assert np.array_equal(
            nearest[np.argsort(distance[nearest], kind="stable")], stable)
        if 0 < k < 4000:
            assert np.count_nonzero(distance == distance[stable[-1]]) > 1

    def test_wedge_flip_breaks_ties_as_a_stable_sort(self):
        # Rademacher rows tie in |margin| at the pool's cut and in the
        # wedge direction at the flip count's cut; a stable sort breaks
        # both ties by row.
        d, n, opt, seed = 4, 4000, 0.3, 6
        v = UnitVector(np.full(d, 0.5))
        s = generate(d, n, MarginalFamily("rademacher"), v,
                     NoiseModel("wedge-flip", opt), seed)
        rng = np.random.default_rng(seed)
        rng.integers(0, 2, size=(n, d))  # the points' draws
        along = margins(s.points, random_unit_vector(d, rng))
        pool = np.argsort(np.abs(margins(s.points, v)),
                          kind="stable")[:int(2 * opt * n)]
        flipped = pool[np.argsort(-along[pool], kind="stable")[:int(opt * n)]]
        assert np.count_nonzero(along[pool] == along[flipped[-1]]) > 1
        clean = predict_batch(v, s.points)
        assert np.array_equal(np.flatnonzero(clean != s.labels),
                              np.sort(flipped))

    def test_every_model_witnesses_opt(self):
        for kind, opt in (("random-flip", 0.08), ("boundary-flip", 0.08),
                          ("wedge-flip", 0.08)):
            s = generate(5, 50_000, MarginalFamily("gaussian"), v_star(),
                         make_noise(kind, opt), 5)
            assert empirical_error(v_star(), s) <= opt + 0.01

    def test_make_noise_collapses_to_clean(self):
        assert make_noise("random-flip", 0.0).kind == "clean"

    def test_invariants(self):
        with pytest.raises(ValueError):
            NoiseModel("clean", 0.1)
        with pytest.raises(ValueError):
            NoiseModel("random-flip", 0.0)


class TestDeterminism:
    def test_bit_identical_regeneration(self):
        a = generate(4, 1000, MarginalFamily("student-t", dof=3), v_star(4),
                     NoiseModel("random-flip", 0.05), 123)
        b = generate(4, 1000, MarginalFamily("student-t", dof=3), v_star(4),
                     NoiseModel("random-flip", 0.05), 123)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)


class TestMarginalFamilies:
    def test_unit_variance_scaling(self):
        for family in (MarginalFamily("uniform-cube"),
                       MarginalFamily("student-t", dof=3),
                       MarginalFamily("gaussian-mixture", separation=3.0)):
            s = generate(3, 400_000, family, v_star(3), NoiseModel("clean"),
                         9)
            second = (s.points ** 2).mean(axis=0)
            tol = 0.2 if family.kind == "student-t" else 0.02
            assert np.allclose(second, 1.0, atol=tol), family.kind

    def test_rademacher_values(self):
        s = generate(3, 1000, MarginalFamily("rademacher"), v_star(3),
                     NoiseModel("clean"), 10)
        assert set(np.unique(s.points)) == {-1.0, 1.0}

    def test_detection_degrees(self):
        # Gaussian passes at degree 4; each non-Gaussian family fails at its
        # documented degree, in >= 19/20 seeded runs.
        n, d = 100_000, 5
        cases = [
            (MarginalFamily("gaussian"), 4, True),
            (MarginalFamily("rademacher"), 4, False),
            (MarginalFamily("uniform-cube"), 4, False),
            (MarginalFamily("scaled-gaussian", axis=0, factor=1.5), 2, False),
            (MarginalFamily("student-t", dof=3), 4, False),
        ]
        for family, degree, should_pass in cases:
            hits = 0
            for seed in range(20):
                s = generate(d, n, family, v_star(), NoiseModel("clean"),
                             seed)
                certified = moment_match_test(s, degree).certified
                hits += certified == should_pass
            assert hits >= 19, (family.kind, hits)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MarginalFamily("student-t", dof=2)
        with pytest.raises(ValueError):
            MarginalFamily("scaled-gaussian", factor=0.0)
        with pytest.raises(ValueError):
            MarginalFamily("no-such-family")
        for separation in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="separation"):
                MarginalFamily("gaussian-mixture", separation=separation)
        for factor in (np.nan, np.inf):
            with pytest.raises(ValueError, match="factor"):
                MarginalFamily("scaled-gaussian", factor=factor)
        with pytest.raises(ValueError):
            MarginalFamily("scaled-gaussian", axis=1.5, factor=2.0)
        with pytest.raises(ValueError):
            generate(3, 10, MarginalFamily("scaled-gaussian", axis=5,
                                           factor=2.0),
                     v_star(3), NoiseModel("clean"), 0)
        # A float n or a bool d is refused before NumPy sees it.
        for d, n in ((8, 1.5), (5, 10.0), (True, 10)):
            with pytest.raises(ValueError, match="must be an integer"):
                generate(d, n, MarginalFamily("gaussian"), v_star(max(d, 2)),
                         NoiseModel("clean"), 0)


# The fields each marginal kind's draw reads, and for each field a value
# other than its default.
READS = {"gaussian": (), "rademacher": (), "uniform-cube": (),
         "scaled-gaussian": ("axis", "factor"), "student-t": ("dof",),
         "gaussian-mixture": ("separation",)}
OTHER_VALUE = {"axis": 1, "factor": 2.0, "dof": 5, "separation": 1.0}
UNREAD = [(kind, field) for kind, reads in READS.items()
          for field in OTHER_VALUE if field not in reads]


class TestMarginalFields:
    @pytest.mark.parametrize("kind, field", UNREAD)
    def test_unread_field_must_keep_its_default(self, kind, field):
        with pytest.raises(ValueError, match=f"{kind} does not read {field}"):
            MarginalFamily(kind, **{field: OTHER_VALUE[field]})
        default = MarginalFamily(kind, **{field: getattr(MarginalFamily,
                                                         field)})
        assert default == MarginalFamily(kind)

    @pytest.mark.parametrize("kind", READS)
    def test_read_fields_are_set_and_recorded(self, kind):
        values = {field: OTHER_VALUE[field] for field in READS[kind]}
        family = MarginalFamily(kind, **values)
        assert family.to_json_dict() == {"kind": kind, **values}
        s = generate(3, 50, family, v_star(3), NoiseModel("clean"), 0)
        assert s.n == 50
