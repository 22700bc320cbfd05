"""Weak proper learner: certify moments, then normalize a robust Chow
estimate.

Either raises Rejected, naming the tester that rejected the x-marginal
as non-Gaussian, or returns a unit vector within O(sqrt(opt + eta)) of
the best halfspace's normal, where eta is the moment-matching accuracy
that degree cfg.k_cap certifies. The returned direction only needs small
constant accuracy; the localization loop does the rest.

The Chow direction does not read the moment verdict, so the two steps are
also callable apart.
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


def certify_moments(s: LabeledSampleSet, cfg: RunConfig) -> None:
    """Raise Rejected(MOMENT_TEST) unless the moments of s match N(0, I)
    up to degree cfg.k_cap."""
    if not moment_match_test(s, cfg.k_cap).certified:
        raise Rejected(MOMENT_TEST)


def chow_direction(s: LabeledSampleSet, rng: np.random.Generator,
                   batch_count: int) -> UnitVector:
    """The normalized robust Chow estimate of s.

    A Chow vector with norm at the degeneracy floor is itself rejection
    evidence, raised as Rejected(DEGENERATE_CHOW): an actual halfspace
    problem under Gaussian marginals yields norm near sqrt(2/pi) (shrunk
    by label noise), far above the floor. So is a norm beyond the float
    range, which only coordinates that the moment test rejects can give.
    """
    vector = estimate_chow(s, batch_count, rng).vector
    try:
        if np.isfinite(np.linalg.norm(vector)):
            return normalize(vector)
    except DegenerateVectorError:
        pass
    raise Rejected(DEGENERATE_CHOW)


def weak_proper_learn(s: LabeledSampleSet, cfg: RunConfig,
                      rng: np.random.Generator,
                      batch_count: int) -> UnitVector:
    """Moment certification followed by a normalized robust Chow estimate.

    A moment rejection short-circuits before any Chow estimation.
    """
    if s.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {s.n}")
    certify_moments(s, cfg)
    return chow_direction(s, rng, batch_count)
