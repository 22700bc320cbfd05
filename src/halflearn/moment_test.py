"""Moment-matching certifier against the standard Gaussian.

Each monomial up to degree k gets a per-monomial tolerance band
``SLACK * sqrt(Var[m] / n)`` with the frozen ``SLACK = 6``: the scale at
which even truly Gaussian samples fluctuate, so completeness is testable
at realistic sample sizes. (The theory's uniform tolerance,
``(1 / (k d^k)) * (1 / (C sqrt(k)))^(k+1)``, is far below sampling noise
at any feasible n and would reject true Gaussians too.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MAX_MOMENT_DEGREE, SLACK, LabeledSampleSet
from .moments import (MonomialExponent, batch_empirical_moments,
                      enumerate_monomials, gaussian_moment,
                      gaussian_moment_variance)

MIN_SAMPLES = 100
MAX_REPORTED_VIOLATIONS = 10


@dataclass(frozen=True)
class MomentViolation:
    monomial: MonomialExponent
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
    """Monomials of degree 1..k over d variables with their exact Gaussian
    moments and variances, as read-only arrays."""
    monomials = tuple(enumerate_monomials(d, k))
    reference = np.array([gaussian_moment(m) for m in monomials])
    variance = np.array([gaussian_moment_variance(m) for m in monomials])
    reference.setflags(write=False)
    variance.setflags(write=False)
    return monomials, reference, variance


def moment_match_test(s: LabeledSampleSet, k: int) -> MomentTestReport:
    """Certify that all sample moments up to degree k match N(0, I), each
    within SLACK standard errors.

    Labels are ignored; the test concerns the x-marginal only.
    """
    if s.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {s.n}")
    if not 1 <= k <= MAX_MOMENT_DEGREE:
        raise ValueError(f"k must lie in [1, {MAX_MOMENT_DEGREE}]")

    monomials, reference, variance = _reference_table(s.d, k)
    empirical = batch_empirical_moments(s.points, monomials)
    tolerance = SLACK * np.sqrt(variance / s.n)

    violations = [
        (idx, MomentViolation(monomials[idx], float(empirical[idx]),
                              float(reference[idx]), float(tolerance[idx])))
        for idx in np.flatnonzero(np.abs(empirical - reference)
                                  > tolerance).tolist()
    ]
    # Worst first; ties fall back to graded-lex enumeration order.
    violations.sort(key=lambda pair: (-pair[1].ratio, pair[0]))
    return MomentTestReport(tuple(
        v for _, v in violations[:MAX_REPORTED_VIOLATIONS]))
