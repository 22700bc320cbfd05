"""Moment-matching certifier against the standard Gaussian.

Each monomial up to degree k gets a per-monomial tolerance band
``SLACK * sqrt(Var[m] / n)`` with the frozen ``SLACK = 6``: the scale at
which even truly Gaussian samples fluctuate, so completeness is testable
at realistic sample sizes. (The theory's uniform tolerance,
``(1 / (k d^k)) * (1 / (C sqrt(k)))^(k+1)``, is far below sampling noise
at any feasible n and would reject true Gaussians too.)
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MAX_MOMENT_DEGREE, SLACK, LabeledSampleSet
from .moments import (batch_empirical_moments, gaussian_moments,
                      monomial_exponents)

MIN_SAMPLES = 100
MAX_REPORTED_VIOLATIONS = 10


@dataclass(frozen=True)
class MomentViolation:
    monomial: tuple[int, ...]  # exponent of each coordinate
    empirical: float
    reference: float
    tolerance: float

    @property
    def ratio(self) -> float:
        return abs(self.empirical - self.reference) / self.tolerance


@dataclass(frozen=True)
class MomentTestReport:
    """Certified iff every monomial sits inside its tolerance band, that
    is, iff no violation is reported."""

    worst_violations: tuple[MomentViolation, ...]

    @property
    def certified(self) -> bool:
        return not self.worst_violations


@lru_cache(maxsize=16)
def _reference_table(d: int, k: int):
    """Exponents of the monomials of degree 1..k over d variables with
    their exact Gaussian moments and variances, as read-only arrays."""
    exponents = monomial_exponents(d, k)
    reference, variance = gaussian_moments(exponents)
    for table in (exponents, reference, variance):
        table.setflags(write=False)
    return exponents, reference, variance


def moment_match_test(s: LabeledSampleSet, k: int) -> MomentTestReport:
    """Certify that all sample moments up to degree k match N(0, I), each
    within SLACK standard errors.

    Labels are ignored; the test concerns the x-marginal only.
    """
    if s.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {s.n}")
    if not (isinstance(k, numbers.Integral) and 1 <= k <= MAX_MOMENT_DEGREE):
        raise ValueError(f"k must be an integer in [1, {MAX_MOMENT_DEGREE}]")

    exponents, reference, variance = _reference_table(s.d, k)
    empirical = batch_empirical_moments(s.points, exponents)
    tolerance = SLACK * np.sqrt(variance / s.n)

    gap = np.abs(empirical - reference)
    violated = np.flatnonzero(gap > tolerance)
    # Worst ratio first; ties fall back to graded-lex enumeration order.
    ratio = gap[violated] / tolerance[violated]
    worst = violated[np.argsort(-ratio, kind="stable")]
    return MomentTestReport(tuple(
        MomentViolation(tuple(exponents[idx].tolist()),
                        float(empirical[idx]), float(reference[idx]),
                        float(tolerance[idx]))
        for idx in worst[:MAX_REPORTED_VIOLATIONS].tolist()))
