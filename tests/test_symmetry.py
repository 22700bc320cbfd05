"""testable_learn keeps the problem's symmetries.

The standard Gaussian is invariant under signed permutations of the
coordinates, and the agnostic problem maps to itself under y -> -y with
v* -> -v*. The pipeline keeps the label flip and the sign flips exactly:
an odd-count median commutes with negation, the keep probabilities read
only m^2, stretch is even in v, and an einsum of negated terms is the
negated sum. A permutation reorders sums, so directions match to within
rounding. Wedge bins are half-open, so a margin on a multiple of eta may
change slab under v -> -v: these tests compare wedge verdicts, never
wedge statistics.
"""

import numpy as np
import pytest
from conftest import cfg
from test_learner import _widen_wedge_orthogonals, staged

from halflearn import (LabeledSampleSet, generate, make_noise,
                       random_unit_vector, testable_learn)
from halflearn.datagen import MarginalFamily


def _random_flip(marginal):
    v = random_unit_vector(8, np.random.default_rng(0))
    return generate(8, 600_000, MarginalFamily(marginal), v,
                    make_noise("random-flip", 0.05), 0)


def _shifted_mean():
    # Coordinate 0 has mean 0.05: only odd-degree moments leave their
    # bands, so the verdict rests on two-sided odd-moment bands.
    s = _random_flip("gaussian")
    return LabeledSampleSet(s.points + 0.05 * np.eye(8)[0], s.labels)


INPUTS = {
    "learned": lambda: _random_flip("gaussian"),
    "weak_uniform_cube": lambda: _random_flip("uniform-cube"),
    "weak_shifted_mean": _shifted_mean,
    "wedge_slab_moments": lambda: staged(_widen_wedge_orthogonals),
}
STAGES = {
    "learned": None,
    "weak_uniform_cube": "weak_learner.moment_test",
    "weak_shifted_mean": "weak_learner.moment_test",
    "wedge_slab_moments": "wedge.candidate_0.slab_moment_check",
}


@pytest.fixture(scope="module", params=INPUTS)
def case(request):
    """An input and its report, kept for the three maps."""
    s = INPUTS[request.param]()
    report = testable_learn(s, 0.05, 0.05, cfg())
    assert report.rejection_stage == STAGES[request.param]
    return s, report


def _directions(report):
    """Every round's direction, then the hypothesis if there is one."""
    found = [c.direction.coords for c in report.candidates]
    if report.hypothesis is not None:
        found.append(report.hypothesis.coords)
    return found


def _assert_same_verdict(mapped, report):
    # Everything a report holds apart from its directions and errors.
    a, b = mapped.to_json_dict(), report.to_json_dict()
    for key in ("verdict", "rejection_stage", "samples_consumed",
                "stage_slices", "config"):
        assert a[key] == b[key], key
    assert [c.round_index for c in mapped.candidates] \
        == [c.round_index for c in report.candidates]
    assert [c.delta for c in mapped.candidates] \
        == [c.delta for c in report.candidates]


def _errors(report):
    return [c.empirical_error for c in report.candidates]


def _learn(points, labels):
    return testable_learn(LabeledSampleSet(points, labels), 0.05, 0.05,
                          cfg())


def test_label_flip_negates_every_direction(case):
    s, report = case
    mapped = _learn(s.points, -s.labels)
    _assert_same_verdict(mapped, report)
    for got, want in zip(_directions(mapped), _directions(report),
                         strict=True):
        assert np.array_equal(got, -want)
    assert _errors(mapped) == _errors(report)


def test_sign_flip_negates_those_coordinates(case):
    s, report = case
    signs = np.where(np.arange(s.d) % 2 == 0, -1.0, 1.0)  # coordinate 0 too
    mapped = _learn(s.points * signs, s.labels)
    _assert_same_verdict(mapped, report)
    for got, want in zip(_directions(mapped), _directions(report),
                         strict=True):
        assert np.array_equal(got, want * signs)
    assert _errors(mapped) == _errors(report)


def test_permutation_permutes_every_direction(case):
    s, report = case
    perm = np.roll(np.arange(s.d), -1)  # moves every coordinate
    mapped = _learn(s.points[:, perm], s.labels)
    _assert_same_verdict(mapped, report)
    for got, want in zip(_directions(mapped), _directions(report),
                         strict=True):
        assert np.max(np.abs(got - want[perm])) <= 1e-15
