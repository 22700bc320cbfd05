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
from dataclasses import dataclass

import numpy as np

from .core import Halfspace, LabeledSampleSet, UnitVector, predict_batch, \
    random_unit_vector

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
UNIFORM_CUBE = "uniform-cube"
SCALED_GAUSSIAN = "scaled-gaussian"
STUDENT_T = "student-t"
GAUSSIAN_MIXTURE = "gaussian-mixture"

MARGINAL_KINDS = (GAUSSIAN, RADEMACHER, UNIFORM_CUBE, SCALED_GAUSSIAN,
                  STUDENT_T, GAUSSIAN_MIXTURE)

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
        if self.kind not in MARGINAL_KINDS:
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        if self.kind == SCALED_GAUSSIAN:
            if self.factor <= 0.0:
                raise ValueError("factor must be positive")
            if self.axis < 0:
                raise ValueError("axis must be non-negative")
        if self.kind == STUDENT_T and self.dof < 3:
            raise ValueError("dof must be at least 3")
        if self.kind == GAUSSIAN_MIXTURE and self.separation < 0.0:
            raise ValueError("separation must be non-negative")

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == SCALED_GAUSSIAN:
            out["axis"] = self.axis
            out["factor"] = self.factor
        elif self.kind == STUDENT_T:
            out["dof"] = self.dof
        elif self.kind == GAUSSIAN_MIXTURE:
            out["separation"] = self.separation
        return out


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
        if marginal.axis >= d:
            raise ValueError("axis out of range")
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


def generate(d: int, n: int, marginal: MarginalFamily, v_star: UnitVector,
             noise: NoiseModel, seed: int) -> LabeledSampleSet:
    """Draw n labeled samples with planted normal v_star.

    Base labels are sign(v_star . x); the noise model then flips a
    controlled subset, so the planted halfspace always witnesses error at
    most opt (exactly opt for the deterministic flip counts).
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    if v_star.d != d:
        raise ValueError("v_star dimension mismatch")
    rng = np.random.default_rng(seed)
    points = _draw_points(d, n, marginal, rng)
    labels = predict_batch(Halfspace(v_star), points)

    if noise.kind == CLEAN:
        return LabeledSampleSet(points, labels)

    margins = points @ v_star.coords
    if noise.kind == RANDOM_FLIP:
        flip = rng.random(n) < noise.opt
    elif noise.kind == BOUNDARY_FLIP:
        flip = np.zeros(n, dtype=bool)
        count = int(noise.opt * n)
        flip[np.argsort(np.abs(margins), kind="stable")[:count]] = True
    else:  # WEDGE_FLIP
        direction = random_unit_vector(d, rng)
        count = int(noise.opt * n)
        quantile = np.quantile(np.abs(margins), noise.opt)
        pool = np.flatnonzero(np.abs(margins) <= quantile)
        along = points[pool] @ direction.coords
        chosen = pool[np.argsort(-along, kind="stable")[:count]]
        flip = np.zeros(n, dtype=bool)
        flip[chosen] = True
    labels = np.where(flip, -labels, labels)
    return LabeledSampleSet(points, labels)
