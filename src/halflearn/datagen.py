"""Seeded synthetic data: planted halfspaces under several label-noise
adversaries, plus non-Gaussian marginal families for soundness runs.

Noise touches labels only; the x-marginal is whatever the family says.
All non-Gaussian families are scaled to unit per-coordinate variance where
possible so that detection happens at the documented moment degree rather
than trivially at degree 2 (the axis-scaled family is the deliberate
degree-2 exception).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .core import LabeledSampleSet, UnitVector, margins, random_unit_vector

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
UNIFORM_CUBE = "uniform-cube"
SCALED_GAUSSIAN = "scaled-gaussian"
STUDENT_T = "student-t"
GAUSSIAN_MIXTURE = "gaussian-mixture"

# The MarginalFamily fields each marginal kind's draw reads; every other
# field must keep its default, since no value of it would change a row.
_READS = {GAUSSIAN: (), RADEMACHER: (), UNIFORM_CUBE: (),
          SCALED_GAUSSIAN: ("axis", "factor"), STUDENT_T: ("dof",),
          GAUSSIAN_MIXTURE: ("separation",)}
MARGINAL_KINDS = tuple(_READS)

CLEAN = "clean"
RANDOM_FLIP = "random-flip"
BOUNDARY_FLIP = "boundary-flip"
WEDGE_FLIP = "wedge-flip"

NOISE_KINDS = (CLEAN, RANDOM_FLIP, BOUNDARY_FLIP, WEDGE_FLIP)


@dataclass(frozen=True)
class MarginalFamily:
    kind: str
    axis: int = 0
    factor: float = 1.0
    dof: int = 3
    separation: float = 0.0

    def __post_init__(self):
        if self.kind not in _READS:
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        for field in fields(self)[1:]:
            if (field.name not in _READS[self.kind]
                    and getattr(self, field.name) != field.default):
                raise ValueError(f"{self.kind} does not read {field.name}")
        if not 0.0 < self.factor < math.inf:  # written so that NaN fails
            raise ValueError("factor must be positive and finite")
        # A float axis would pass here and fail as an IndexError later.
        if not (isinstance(self.axis, numbers.Integral) and self.axis >= 0):
            raise ValueError("axis must be a non-negative integer")
        if self.dof < 3:
            raise ValueError("dof must be at least 3")
        if not 0.0 <= self.separation < math.inf:
            raise ValueError("separation must be non-negative and finite")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind,
                **{name: getattr(self, name) for name in _READS[self.kind]}}


@dataclass(frozen=True)
class NoiseModel:
    kind: str
    opt: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.opt < 0.5:
            raise ValueError("opt must lie in [0, 1/2)")
        if (self.opt == 0.0) != (self.kind == CLEAN):
            raise ValueError("opt is zero exactly for clean noise")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "opt": self.opt}


def make_noise(kind: str, opt: float) -> NoiseModel:
    """Noise model for a requested level; opt = 0 collapses to clean."""
    if opt == 0.0:
        return NoiseModel(CLEAN)
    return NoiseModel(kind, opt)


def _draw_points(d: int, n: int, marginal: MarginalFamily,
                 rng: np.random.Generator) -> np.ndarray:
    if marginal.kind == GAUSSIAN:
        return rng.standard_normal((n, d))
    if marginal.kind == RADEMACHER:
        return rng.integers(0, 2, size=(n, d)).astype(np.float64) * 2.0 - 1.0
    if marginal.kind == UNIFORM_CUBE:
        half_width = math.sqrt(3.0)  # unit variance
        return rng.uniform(-half_width, half_width, size=(n, d))
    if marginal.kind == SCALED_GAUSSIAN:
        points = rng.standard_normal((n, d))
        points[:, marginal.axis] *= marginal.factor
        return points
    if marginal.kind == STUDENT_T:
        scale = math.sqrt((marginal.dof - 2.0) / marginal.dof)
        return rng.standard_t(marginal.dof, size=(n, d)) * scale
    if marginal.kind == GAUSSIAN_MIXTURE:
        points = rng.standard_normal((n, d))
        signs = rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
        s = marginal.separation
        points[:, 0] = (points[:, 0] + signs * s) / math.sqrt(1.0 + s * s)
        return points
    raise AssertionError(marginal.kind)


def _nearest(distance: np.ndarray, k: int) -> np.ndarray:
    """The rows a stable argsort of distance puts first k, in ascending
    row order: every row below the k-th smallest distance, then the
    lowest rows equal to it."""
    if k == 0:
        return np.zeros(0, dtype=np.intp)
    cut = np.partition(distance, k - 1)[k - 1]
    keep = distance < cut
    ties = np.flatnonzero(distance == cut)
    keep[ties[:k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def check_draw(d: int, n: int, marginal: MarginalFamily) -> None:
    """Raise ValueError unless generate can draw n rows of marginal in d
    dimensions: integers (not bools) d >= 2 and n >= 1, and an axis below
    d. The CLI calls it before it creates any output or runs any task."""
    for name, value, least in (("d", d, 2), ("n", n, 1)):
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < least):
            raise ValueError(f"{name} must be an integer of at least {least}")
    if marginal.axis >= d:
        raise ValueError("axis out of range")


def generate(d: int, n: int, marginal: MarginalFamily, v_star: UnitVector,
             noise: NoiseModel, seed: int) -> LabeledSampleSet:
    """Draw n labeled samples with planted normal v_star.

    Base labels are sign(v_star . x); the noise model then flips a
    controlled subset, so the planted halfspace always witnesses error at
    most opt (exactly opt for the deterministic flip counts).
    """
    check_draw(d, n, marginal)
    if v_star.d != d:
        raise ValueError("v_star dimension mismatch")
    rng = np.random.default_rng(seed)
    points = _draw_points(d, n, marginal, rng)
    m = margins(points, v_star)
    labels = np.where(m >= 0.0, 1, -1)

    if noise.kind == CLEAN:
        return LabeledSampleSet(points, labels)

    if noise.kind == RANDOM_FLIP:
        flip = rng.random(n) < noise.opt
    else:
        flip = np.zeros(n, dtype=bool)
        distance = np.abs(m)
        count = int(noise.opt * n)
        if noise.kind == BOUNDARY_FLIP:
            flip[_nearest(distance, count)] = True
        else:  # WEDGE_FLIP
            # The rows of a band twice as wide that lie furthest along a
            # random direction: a wedge at the boundary.
            pool = _nearest(distance, int(min(2.0 * noise.opt, 1.0) * n))
            # In a stable sort's order, which the tie-break below reads.
            pool = pool[np.argsort(distance[pool], kind="stable")]
            along = margins(points[pool], random_unit_vector(d, rng))
            flip[pool[np.argsort(-along, kind="stable")[:count]]] = True
    labels = np.where(flip, -labels, labels)
    return LabeledSampleSet(points, labels)
