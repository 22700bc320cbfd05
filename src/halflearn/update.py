"""One localization round: sample toward the current direction, validate
the acceptance rate, whiten, run the weak learner, transport back."""

from __future__ import annotations

import numpy as np

from .core import LabeledSampleSet, Rejected, RunConfig, UnitVector
from .localize import RATE_CHECK, rejection_sample, whiten, \
    unwhiten_direction
from .weak import MIN_SAMPLES as WEAK_MIN_SAMPLES
from .weak import weak_proper_learn

# Expected accepted count must be twice the inner learner's minimum: any
# rate passing the [delta/2, 3 delta/2] check then yields at least that
# minimum, so the round can never strand the inner learner.
EXPECTED_ACCEPT_MIN = 2 * WEAK_MIN_SAMPLES


def localized_update(s: LabeledSampleSet, v: UnitVector, delta: float,
                     cfg: RunConfig, rng: np.random.Generator,
                     batch_count: int) -> UnitVector:
    """Refine v at scale delta, or reject the marginal.

    Localizes with sigma = delta. Under a Gaussian marginal the acceptance
    rate concentrates at delta, so a rate outside [delta/2, 3 delta/2] is
    rejection evidence, raised as Rejected(RATE_CHECK) (the interval is
    taken verbatim; the accepted-count precondition keeps binomial noise
    well inside it). Otherwise the accepted samples are whitened, handed
    to the weak learner, whose Rejected passes through, and the learned
    direction is transported back through the inverse map.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    if s.n * delta < EXPECTED_ACCEPT_MIN:
        raise ValueError(
            f"expected accepted count {s.n * delta:.0f} below "
            f"{EXPECTED_ACCEPT_MIN}; supply more samples or a larger delta")

    accepted, rate = rejection_sample(s, v, delta, rng)
    if not delta / 2.0 <= rate <= 3.0 * delta / 2.0:
        raise Rejected(RATE_CHECK)
    inner = weak_proper_learn(whiten(accepted, v, delta), cfg, rng,
                              batch_count)
    return unwhiten_direction(inner, v, delta)
