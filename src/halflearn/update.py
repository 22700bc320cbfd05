"""One localization round: sample toward the current direction, validate
the acceptance rate, whiten, run the weak learner, transport back."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledSampleSet, RunConfig, UnitVector
from .localize import EmptyLocalizationError, rejection_sample, whiten, \
    unwhiten_direction
from .weak import MIN_SAMPLES as WEAK_MIN_SAMPLES
from .weak import weak_proper_learn

# UpdateOutcome.rejected_by when the acceptance rate is off; a rejection by
# the inner learner carries that learner's value instead.
RATE_CHECK = "rate_check"

# Expected accepted count must be twice the inner learner's minimum: any
# rate passing the [delta/2, 3 delta/2] check then yields at least that
# minimum, so the round can never strand the inner learner.
EXPECTED_ACCEPT_MIN = 2 * WEAK_MIN_SAMPLES


@dataclass(frozen=True)
class UpdateOutcome:
    new_direction: UnitVector | None
    acceptance_rate: float
    rejected_by: str | None

    @property
    def updated(self) -> bool:
        return self.rejected_by is None


def localized_update(s: LabeledSampleSet, v: UnitVector, delta: float,
                     cfg: RunConfig, rng: np.random.Generator,
                     batch_count: int) -> UpdateOutcome:
    """Refine v at scale delta, or reject the marginal.

    Localizes with sigma = delta. Under a Gaussian marginal the acceptance
    rate concentrates at delta, so a rate outside [delta/2, 3 delta/2] is
    rejection evidence (the interval is taken verbatim; the accepted-count
    precondition keeps binomial noise well inside it). Otherwise the
    accepted samples are whitened, handed to the weak learner, and the
    learned direction is transported back through the inverse map.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    if s.n * delta < EXPECTED_ACCEPT_MIN:
        raise ValueError(
            f"expected accepted count {s.n * delta:.0f} below "
            f"{EXPECTED_ACCEPT_MIN}; supply more samples or a larger delta")

    try:
        accepted, rate = rejection_sample(s, v, delta, rng)
    except EmptyLocalizationError:
        return UpdateOutcome(new_direction=None, acceptance_rate=0.0,
                             rejected_by=RATE_CHECK)
    if not delta / 2.0 <= rate <= 3.0 * delta / 2.0:
        return UpdateOutcome(new_direction=None, acceptance_rate=rate,
                             rejected_by=RATE_CHECK)

    inner = weak_proper_learn(whiten(accepted, v, delta), cfg, rng,
                              batch_count)
    if not inner.learned:
        return UpdateOutcome(new_direction=None, acceptance_rate=rate,
                             rejected_by=inner.rejected_by)
    assert inner.direction is not None
    return UpdateOutcome(new_direction=unwhiten_direction(inner.direction, v,
                                                          delta),
                         acceptance_rate=rate, rejected_by=None)
