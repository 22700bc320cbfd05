"""Shared numeric types and halfspace primitives.

Everything here is immutable after construction and safe to share
read-only across threads; the operations are pure functions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Vectors with norm at or below this cannot be meaningfully normalized.
NORM_FLOOR = 1e-12

_UNIT_TOL = 1e-9

# Highest moment degree. The Gaussian references up to here are exact
# integers, at most 39!! (above int64), each rounded to float once.
MAX_MOMENT_DEGREE = 20

# Elements per block of a row-wise pass (512 KB of doubles), so a pass's
# temporaries stay in cache and do not grow with the number of rows.
_BLOCK_ELEMENTS = 1 << 16

# Width of every tester tolerance, in z-score units: each moment band is
# SLACK * sqrt(Var[m] / n) and the wedge TV allowance SLACK * sqrt(bins / n).
SLACK = 6.0


class DegenerateVectorError(ValueError):
    """Vector norm is at or below the normalization floor."""


def _frozen_view(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.setflags(write=False)
    return view


def _row_blocks(n: int, width: int = 1):
    """Slices of consecutive rows that cover rows 0..n-1, each holding at
    most ``_BLOCK_ELEMENTS`` elements of rows ``width`` wide."""
    rows = max(1, _BLOCK_ELEMENTS // max(1, width))
    return (slice(lo, lo + rows) for lo in range(0, n, rows))


def _all_finite(points: np.ndarray) -> bool:
    """Whether every entry of an (n, d) array is finite, scanned one block
    of rows at a time."""
    return all(np.isfinite(points[rows]).all()
               for rows in _row_blocks(points.shape[0], points.shape[1]))


@dataclass(frozen=True, eq=False)
class UnitVector:
    """Direction in d >= 2 dimensions with unit Euclidean norm."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if coords.ndim != 1:
            raise ValueError("coords must be one-dimensional")
        if coords.shape[0] < 2:
            raise ValueError("dimension must be at least 2")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        norm = float(np.linalg.norm(coords))
        if abs(norm - 1.0) > _UNIT_TOL:
            raise ValueError(f"not a unit vector (norm {norm!r})")
        object.__setattr__(self, "coords", _frozen_view(coords))

    @property
    def d(self) -> int:
        return self.coords.shape[0]

    def distance_to(self, other: "UnitVector") -> float:
        return float(np.linalg.norm(self.coords - other.coords))


@dataclass(frozen=True, eq=False)
class LabeledSampleSet:
    """n >= 1 real, finite points in R^d, d >= 2, with labels -1 or +1;
    read-only float64 points and int8 labels, checked here once."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        points, labels = np.asarray(self.points), np.asarray(self.labels)
        if points.dtype == object:
            # The float cast raises TypeError on a complex element, and
            # drops the imaginary part of a NumPy complex scalar.
            points = np.array(points.tolist())
        if np.iscomplexobj(points):  # the float cast would drop 5j
            raise ValueError("points must be real")
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        if labels.ndim != 1 or labels.shape[0] != points.shape[0]:
            raise ValueError("labels must be one per point")
        if points.shape[0] < 1 or points.shape[1] < 2:
            raise ValueError("need at least one sample, and d >= 2")
        if not _all_finite(points):
            raise ValueError("points must be finite")
        # Before the cast, which truncates 1.7 to 1; True and 1+0j equal 1.
        if labels.dtype.kind in "bc" or not all(
                np.all((labels[rows] == 1) | (labels[rows] == -1))
                for rows in _row_blocks(labels.shape[0])):
            raise ValueError("labels must be -1 or +1")
        labels = np.ascontiguousarray(labels, dtype=np.int8)
        object.__setattr__(self, "points", _frozen_view(points))
        object.__setattr__(self, "labels", _frozen_view(labels))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def subset(self, index) -> "LabeledSampleSet":
        """Rows of this set, unchecked since they are valid: a slice gives
        a read-only view, an index array or mask a read-only copy."""
        points = self.points[index]
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("need at least one sample")
        out = object.__new__(LabeledSampleSet)
        object.__setattr__(out, "points", _frozen_view(points))
        object.__setattr__(out, "labels", _frozen_view(self.labels[index]))
        return out


@dataclass(frozen=True)
class RunConfig:
    """Knobs of the full learner; k_cap is the degree of the moment test."""

    epsilon: float
    tau: float
    seed: int
    k_cap: int = 4

    def __post_init__(self):
        # numbers.Real refuses "0.05" and None, whose comparison would
        # raise TypeError; numbers.Integral admits NumPy integers and
        # refuses 1.5, but admits True, which would be recorded as a seed.
        if not (isinstance(self.epsilon, numbers.Real)
                and 0.0 < self.epsilon < 0.5):
            raise ValueError("epsilon must lie in (0, 1/2)")
        if not (isinstance(self.tau, numbers.Real) and 0.0 < self.tau < 1.0):
            raise ValueError("tau must lie in (0, 1)")
        if not (isinstance(self.seed, numbers.Integral)
                and not isinstance(self.seed, bool)
                and 0 <= self.seed < 2**64):
            raise ValueError("seed must be an integer in [0, 2^64)")
        if not (isinstance(self.k_cap, numbers.Integral)
                and 2 <= self.k_cap <= MAX_MOMENT_DEGREE):
            raise ValueError(
                f"k_cap must be an integer in [2, {MAX_MOMENT_DEGREE}]")


def margins(x: np.ndarray, v: UnitVector) -> np.ndarray:
    """v . x for each row of an (n, d) array x, or for one vector x.

    Each margin is summed from its own row alone (einsum without optimize
    never calls BLAS), so its bytes do not depend on the other rows or on
    the BLAS thread count, and a stage may take margins block by block.
    A margin beyond the float range stays +-inf. A NaN, which inf - inf
    inside the sum makes, becomes +inf, so every stage puts such a point
    past its farthest slab.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # 0-d for one vector, so it is writable.
        m = np.asarray(np.einsum("...j,j->...", x, v.coords))
    m[np.isnan(m)] = np.inf
    return m


def predict_batch(normal: UnitVector, points: np.ndarray) -> np.ndarray:
    """Label sign(normal . x) of each row of an (n, d) array of points,
    the halfspace through the origin with that normal; a point on the
    boundary maps to +1."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != normal.d:
        raise ValueError("points must be (n, d) with d matching the normal")
    return np.where(margins(points, normal) >= 0.0, 1, -1).astype(np.int64)


def empirical_error(normal: UnitVector, s: LabeledSampleSet) -> float:
    """Fraction of samples where the halfspace with this normal disagrees
    with the label, counted one block of rows at a time."""
    wrong = sum(np.count_nonzero((margins(s.points[rows], normal) >= 0.0)
                                 != (s.labels[rows] > 0))
                for rows in _row_blocks(s.n, s.d))
    return int(wrong) / s.n


def normalize(v: np.ndarray) -> UnitVector:
    """v / ||v||; raises DegenerateVectorError at or below the norm floor."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if not norm > NORM_FLOOR:
        raise DegenerateVectorError(f"norm {norm!r} is at or below {NORM_FLOOR}")
    return UnitVector(v / norm)


def random_unit_vector(d: int, rng: np.random.Generator) -> UnitVector:
    """Uniformly random direction on the unit sphere in R^d."""
    if d < 2:  # at d = 0 the loop below would never end
        raise ValueError("dimension must be at least 2")
    while True:
        try:
            return normalize(rng.standard_normal(d))
        except DegenerateVectorError:
            continue
