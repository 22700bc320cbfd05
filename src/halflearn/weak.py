"""Weak proper learner: certify moments, then normalize a robust Chow
estimate.

Either raises Rejected, naming the tester that rejected the x-marginal
as non-Gaussian, or returns a unit vector within O(sqrt(opt + eta)) of
the best halfspace's normal, where eta is the moment-matching accuracy
that degree cfg.k_cap certifies. The returned direction only needs small
constant accuracy; the localization loop does the rest.
"""

from __future__ import annotations

import numpy as np

from .chow import estimate_chow
from .core import (DegenerateVectorError, LabeledSampleSet, Rejected,
                   RunConfig, UnitVector, normalize)
from .moment_test import moment_match_test

MIN_SAMPLES = 1000

# Values of Rejected.tester from this learner.
MOMENT_TEST = "moment_test"
DEGENERATE_CHOW = "degenerate_chow"


def weak_proper_learn(s: LabeledSampleSet, cfg: RunConfig,
                      rng: np.random.Generator,
                      batch_count: int) -> UnitVector:
    """Moment certification followed by a normalized robust Chow estimate.

    Moments are matched up to degree cfg.k_cap; a rejection, raised as
    Rejected(MOMENT_TEST), short-circuits before any Chow estimation. A
    Chow vector with norm at the degeneracy floor is itself rejection
    evidence, raised as Rejected(DEGENERATE_CHOW): an actual halfspace
    problem under Gaussian marginals yields norm near sqrt(2/pi) (shrunk
    by label noise), far above the floor.
    """
    if s.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {s.n}")
    if not moment_match_test(s, cfg.k_cap).certified:
        raise Rejected(MOMENT_TEST)
    estimate = estimate_chow(s, batch_count, rng)
    try:
        return normalize(estimate.vector)
    except DegenerateVectorError:
        raise Rejected(DEGENERATE_CHOW) from None
