from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from halflearn import (LabeledSampleSet, RunConfig, UnitVector,
                       empirical_error, random_unit_vector)
from halflearn.core import (DegenerateVectorError, Rejected, margins,
                            normalize, predict_batch)

from conftest import basis_vector, stdout_with_blas_threads

TESTS = Path(__file__).resolve().parent


def e1_normal(d=2):
    return UnitVector(basis_vector(d, 0))


def gaussian_rows_and_direction():
    """200,003 standard Gaussian rows at d = 12 and a random direction."""
    x = np.random.default_rng(5).standard_normal((200_003, 12))
    return x, normalize(np.random.default_rng(6).standard_normal(12))


class TestUnitVector:
    def test_validates_norm(self):
        with pytest.raises(ValueError):
            UnitVector(np.array([1.0, 1.0]))

    def test_requires_two_dimensions(self):
        with pytest.raises(ValueError):
            UnitVector(np.array([1.0]))

    @pytest.mark.parametrize("coords, message", [
        ([[1.0, 0.0]], "one-dimensional"), ([np.nan, 1.0], "finite"),
        ([np.inf, 0.0], "finite")])
    def test_rejects_a_matrix_or_non_finite_coords(self, coords, message):
        with pytest.raises(ValueError, match=message):
            UnitVector(np.array(coords))

    def test_is_read_only(self):
        v = UnitVector(np.array([0.6, 0.8]))
        with pytest.raises(ValueError):
            v.coords[0] = 0.0


class TestPredict:
    # predict_batch on one-row arrays.
    def test_positive_projection(self):
        assert predict_batch(e1_normal(), np.array([[2.0, 0.0]])) == [1]

    def test_boundary_is_positive(self):
        # sign(0) = +1 keeps boundary points deterministic
        assert predict_batch(e1_normal(), np.array([[0.0, 5.0]])) == [1]

    def test_negative_projection(self):
        assert predict_batch(e1_normal(), np.array([[-0.1, 99.0]])) == [-1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_batch(e1_normal(), np.array([[1.0, 2.0, 3.0]]))

    def test_overflowing_margin_keeps_its_sign(self):
        # The margins overflow to +inf and -inf, with no RuntimeWarning.
        diagonal = normalize(np.ones(2))
        points = np.array([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]])
        assert predict_batch(diagonal, points).tolist() == [1, -1]

    @given(scale=st.floats(min_value=1e-6, max_value=1e6),
           x=arrays(np.float64, (3,),
                    elements=st.floats(-100, 100, allow_nan=False,
                                       allow_subnormal=False)))
    def test_scale_invariance(self, scale, x):
        # subnormal inputs could underflow to signed zero under scaling,
        # which is outside the positive-rescaling contract
        h = e1_normal(3)
        assert predict_batch(h, x[None]) == predict_batch(h, scale * x[None])


class TestMargins:
    def test_matches_the_product(self, rng):
        v = random_unit_vector(4, rng)
        points = rng.standard_normal((7, 4))
        assert np.array_equal(margins(points, v), points @ v.coords)
        assert margins(points[0], v) == points[0] @ v.coords

    def test_overflow_stays_infinite(self):
        v = normalize(np.ones(2))
        points = np.array([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]])
        assert margins(points, v).tolist() == [np.inf, -np.inf]

    def test_nan_becomes_positive_infinity(self):
        # inf - inf is NaN whatever order the product sums in.
        v = normalize(np.ones(3))
        points = np.array([[np.inf, -np.inf, 0.0], [-np.inf, 1.0, np.inf]])
        assert margins(points, v).tolist() == [np.inf, np.inf]
        assert margins(points[0], v) == np.inf

    def test_each_row_depends_on_that_row_alone(self):
        # A BLAS product over these rows rounded some of them differently
        # when the rows were shifted, split into blocks, or summed on 2
        # threads instead of 1.
        x, v = gaussian_rows_and_direction()
        whole = margins(x, v)
        for k in (1, 3, 7, 100_002):
            assert np.array_equal(whole[k:], margins(x[k:], v))
        edges = [0, 1, 998, 65_537, 65_540, 199_999, 200_003]
        assert np.array_equal(whole, np.concatenate(
            [margins(x[lo:hi], v) for lo, hi in zip(edges, edges[1:])]))
        script = (f"import sys; sys.path.insert(0, {str(TESTS)!r}); "
                  "import hashlib; from test_core import *; "
                  "m = margins(*gaussian_rows_and_direction()); "
                  "print(hashlib.sha256(m.tobytes()).hexdigest())")
        assert stdout_with_blas_threads(script, 1) \
            == stdout_with_blas_threads(script, 2)


class TestEmpiricalError:
    def test_consistent_labels(self, rng):
        h = e1_normal(4)
        points = rng.standard_normal((50, 4))
        s = LabeledSampleSet(points, predict_batch(h, points))
        assert empirical_error(h, s) == 0.0

    def test_all_flipped(self, rng):
        h = e1_normal(4)
        points = rng.standard_normal((50, 4))
        s = LabeledSampleSet(points, -predict_batch(h, points))
        assert empirical_error(h, s) == 1.0

    def test_three_of_ten_flipped(self):
        # Hand-built 10-point set: labels from e1, rows 2, 5, 8 flipped.
        xs = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, -1.0], [-1.0, 2.0],
                       [-2.0, 0.5], [0.5, 3.0], [-0.5, -3.0], [1.5, 1.5],
                       [-1.5, 0.0], [2.5, -2.0]])
        labels = np.where(xs[:, 0] >= 0, 1, -1)
        labels[[2, 5, 8]] *= -1
        s = LabeledSampleSet(xs, labels)
        assert empirical_error(e1_normal(), s) == pytest.approx(0.3)

    def test_complement_rule(self, rng):
        # No point sits on the boundary, so errors of h and -h sum to 1.
        h = e1_normal(3)
        points = rng.standard_normal((101, 3))
        labels = rng.choice([-1, 1], size=101)
        s = LabeledSampleSet(points, labels)
        negated = UnitVector(-h.coords)
        total = empirical_error(h, s) + empirical_error(negated, s)
        assert total == pytest.approx(1.0)


class TestNormalize:
    def test_pythagorean(self):
        v = normalize(np.array([3.0, 4.0]))
        assert np.allclose(v.coords, [0.6, 0.8])

    def test_already_unit(self):
        v = normalize(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(v.coords, [0.0, 0.0, 1.0])

    def test_below_floor(self):
        with pytest.raises(DegenerateVectorError):
            normalize(np.array([1e-15, 0.0]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e300])
    def test_non_finite_norm(self, value):
        # 1e300's squares overflow; no RuntimeWarning escapes.
        with pytest.raises(DegenerateVectorError):
            normalize(np.array([value, 1.0]))

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariant(self, scale):
        v = np.array([1.0, -2.0, 0.5])
        a = normalize(v)
        b = normalize(scale * v)
        assert np.allclose(a.coords, b.coords, atol=1e-12)


class TestRejected:
    def test_names_the_tester_and_is_not_a_value_error(self):
        # cli.main maps ValueError to exit 1; a rejection is a verdict.
        rejected = Rejected("rate_check")
        assert rejected.tester == "rate_check"
        assert isinstance(rejected, Exception)
        assert not isinstance(rejected, ValueError)


class TestRandomUnitVector:
    @pytest.mark.parametrize("d", [0, 1])
    def test_rejects_dimension_below_two(self, rng, d):
        # At d = 0 every draw has norm 0, so the redraw loop never ended.
        with pytest.raises(ValueError, match="at least 2"):
            random_unit_vector(d, rng)


class TestLabeledSampleSet:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledSampleSet(np.zeros((2, 2)), np.array([0, 1]))

    def test_rejects_fractional_labels(self):
        # An int64 cast would truncate these to 1 and -1.
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            LabeledSampleSet(np.zeros((2, 2)), np.array([1.7, -1.2]))

    def test_accepts_float_labels(self):
        s = LabeledSampleSet(np.zeros((2, 2)), np.array([1.0, -1.0]))
        assert s.labels.dtype == np.int8
        assert s.labels.tolist() == [1, -1]

    @pytest.mark.parametrize("labels", [[True, True], [True, False],
                                        [1 + 0j, -1]])
    def test_rejects_boolean_and_complex_labels(self, labels):
        # True == 1 and 1+0j == 1, so these passed the value check.
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            LabeledSampleSet(np.zeros((2, 2)), labels)

    def test_rejects_complex_points(self):
        # The float cast stored these as [[1, 2], [3, 0]].
        with pytest.raises(ValueError, match="points must be real"):
            LabeledSampleSet([[1 + 5j, 2], [3, 4j]], [1, -1])

    @pytest.mark.parametrize("value", [1 + 1j, np.complex128(1 + 1j)],
                             ids=["python", "numpy"])
    def test_rejects_complex_object_points(self, value):
        # The float cast raised TypeError on a Python complex, and dropped
        # the imaginary part of a NumPy one.
        points = np.array([[value, 2], [3, 4]], dtype=object)
        with pytest.raises(ValueError, match="points must be real"):
            LabeledSampleSet(points, [1, -1])

    def test_accepts_real_object_points(self):
        s = LabeledSampleSet(np.array([[1, 2.5], [3, 4]], dtype=object),
                             [1, -1])
        assert s.points.dtype == np.float64
        assert s.points.tolist() == [[1.0, 2.5], [3.0, 4.0]]

    @pytest.mark.parametrize("d", [0, 1])
    def test_rejects_dimension_below_two(self, d):
        # d = 1 ran the weak stage's moment test before failing in
        # UnitVector; d = 0 failed in the Chow batch count's log(0).
        with pytest.raises(ValueError, match="d >= 2"):
            LabeledSampleSet(np.zeros((3, d)), np.ones(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LabeledSampleSet(np.array([[np.inf, 0.0]]), np.array([1]))

    @pytest.mark.parametrize("points, labels, message", [
        (np.zeros(4), np.ones(4), "an \\(n, d\\) array"),
        (np.zeros((3, 2)), np.ones(2), "one per point"),
        (np.zeros((3, 2)), np.ones((3, 1)), "one per point")])
    def test_rejects_unmatched_shapes(self, points, labels, message):
        with pytest.raises(ValueError, match=message):
            LabeledSampleSet(points, labels)

    def test_subset_slice(self, rng):
        # A read-only view of the parent, not a copy.
        s = LabeledSampleSet(rng.standard_normal((10, 2)),
                             np.ones(10, dtype=int))
        part = s.subset(slice(2, 7))
        assert part.n == 5
        for mine, parent in [(part.points, s.points),
                             (part.labels, s.labels)]:
            assert np.shares_memory(mine, parent)
            assert not mine.flags.writeable

    def test_subset_mask_is_a_read_only_copy(self, rng):
        s = LabeledSampleSet(rng.standard_normal((10, 2)),
                             rng.choice([-1, 1], size=10))
        keep = s.points[:, 0] > 0
        part = s.subset(keep)
        assert np.array_equal(part.points, s.points[keep])
        assert np.array_equal(part.labels, s.labels[keep])
        assert part.labels.dtype == np.int8
        assert not part.points.flags.writeable
        assert not part.labels.flags.writeable

    @pytest.mark.parametrize("index", [slice(4, 4), np.zeros(10, dtype=bool)],
                             ids=["slice", "mask"])
    def test_empty_subset_raises(self, rng, index):
        s = LabeledSampleSet(rng.standard_normal((10, 2)),
                             np.ones(10, dtype=int))
        with pytest.raises(ValueError, match="at least one sample"):
            s.subset(index)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig(epsilon=0.05, tau=0.05, seed=0)
        assert cfg.k_cap == 4

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0}, {"epsilon": 1.0}, {"tau": 0.0}, {"k_cap": 1},
        {"tau": 1.0}, {"k_cap": 4.5}, {"seed": -1}, {"k_cap": 21},
        {"seed": 1.5}, {"epsilon": 0.5}, {"epsilon": "0.05"}, {"tau": None},
        {"seed": True},
    ])
    def test_rejects_out_of_range(self, kwargs):
        base = {"epsilon": 0.05, "tau": 0.05, "seed": 0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            RunConfig(**base)
