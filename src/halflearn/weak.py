"""Weak proper learner: certify moments, then normalize a robust Chow
estimate.

Either rejects the x-marginal as non-Gaussian or returns a unit vector
within O(sqrt(opt + eta)) of the best halfspace's normal, where eta is the
moment-matching accuracy that degree cfg.k_cap certifies. The returned
direction only needs small constant accuracy; the localization loop does
the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chow import estimate_chow
from .core import (DegenerateVectorError, LabeledSampleSet, RunConfig,
                   UnitVector, normalize)
from .moment_test import MomentTestReport, moment_match_test

MIN_SAMPLES = 1000

# Values of WeakLearnOutcome.rejected_by.
MOMENT_TEST = "moment_test"
DEGENERATE_CHOW = "degenerate_chow"


@dataclass(frozen=True)
class WeakLearnOutcome:
    direction: UnitVector | None
    moment_report: MomentTestReport
    rejected_by: str | None  # MOMENT_TEST or DEGENERATE_CHOW

    @property
    def learned(self) -> bool:
        return self.rejected_by is None


def weak_proper_learn(s: LabeledSampleSet, cfg: RunConfig,
                      rng: np.random.Generator,
                      batch_count: int) -> WeakLearnOutcome:
    """Moment certification followed by a normalized robust Chow estimate.

    Moments are matched up to degree cfg.k_cap; a rejection short-circuits
    before any Chow estimation. A Chow vector with norm at the degeneracy
    floor is itself rejection evidence: an actual halfspace problem under
    Gaussian marginals yields norm near sqrt(2/pi) (shrunk by label noise),
    far above the floor.
    """
    if s.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {s.n}")

    report = moment_match_test(s, cfg.k_cap)
    if not report.certified:
        return WeakLearnOutcome(direction=None, moment_report=report,
                                rejected_by=MOMENT_TEST)

    estimate = estimate_chow(s, batch_count, rng)
    try:
        return WeakLearnOutcome(direction=normalize(estimate.vector),
                                moment_report=report, rejected_by=None)
    except DegenerateVectorError:
        return WeakLearnOutcome(direction=None, moment_report=report,
                                rejected_by=DEGENERATE_CHOW)
