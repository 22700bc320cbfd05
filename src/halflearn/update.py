"""One localization round: sample toward the current direction, validate
the acceptance rate, whiten, run the weak learner, transport back.

Soft localization accepts a point with probability
exp(-(v.x)^2 (sigma^-2 - 1) / 2). That turns a standard Gaussian marginal
into N(0, Sigma) with Sigma = I - (1 - sigma^2) v v^T: variance sigma^2
along v, untouched orthogonal directions, and overall acceptance rate
sigma. The maps Sigma^{+-1/2} are applied in closed form (never
materializing a d x d matrix): Sigma^{1/2} x = x - (1 - sigma)(v.x) v and
Sigma^{-1/2} x = x + (1/sigma - 1)(v.x) v.
"""

from __future__ import annotations

import threading

import numpy as np

from .core import (LabeledSampleSet, Rejected, RunConfig, UnitVector,
                   _row_blocks, margins, normalize)
from .moments import Stopped
from .weak import MIN_SAMPLES as WEAK_MIN_SAMPLES
from .weak import weak_proper_learn

# Rejected.tester when the acceptance rate leaves [sigma/2, 3 sigma/2].
RATE_CHECK = "rate_check"

# Expected accepted count must be twice the inner learner's minimum: any
# rate passing the [delta/2, 3 delta/2] check then yields at least that
# minimum, so the round can never strand the inner learner.
EXPECTED_ACCEPT_MIN = 2 * WEAK_MIN_SAMPLES


def _check_sigma(sigma: float) -> float:
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    return sigma


def stretch(x: np.ndarray, v: UnitVector, factor: float) -> np.ndarray:
    """x + (factor - 1)(v.x) v for a point or each row of an array: scales
    the component along v by factor (sigma for Sigma^{1/2}, 1/sigma for
    Sigma^{-1/2})."""
    return x + (factor - 1.0) * np.multiply.outer(margins(x, v), v.coords)


def acceptance_probabilities(margins: np.ndarray, sigma: float) -> np.ndarray:
    """Per-point keep probability; depends on the point only through v.x."""
    _check_sigma(sigma)
    margins = np.asarray(margins, dtype=np.float64)
    # A huge margin's square overflows to inf, and exp(-inf) = 0 is its
    # probability in the limit.
    with np.errstate(over="ignore"):
        return np.exp(-margins * margins * (sigma**-2 - 1.0) / 2.0)


def rejection_sample(s: LabeledSampleSet, v: UnitVector, sigma: float,
                     rng: np.random.Generator
                     ) -> tuple[LabeledSampleSet, float]:
    """Keep each sample independently with the localization probability.

    Returns the accepted subset and the acceptance rate. Acceptance
    randomness is drawn in sample order from ``rng``, so runs are
    reproducible. Raises Rejected(RATE_CHECK) if nothing survives, since
    a rate of 0 fails the rate check at every sigma.
    Margins, probabilities and draws are taken one block of rows at a time.
    """
    kept = []
    for rows in _row_blocks(s.n, s.d):
        probs = acceptance_probabilities(margins(s.points[rows], v), sigma)
        kept.append(np.flatnonzero(rng.random(probs.size) < probs)
                    + rows.start)
    keep = np.concatenate(kept)
    if keep.size == 0:
        raise Rejected(RATE_CHECK)
    return s.subset(keep), keep.size / s.n


def whiten(s: LabeledSampleSet, v: UnitVector, sigma: float) -> LabeledSampleSet:
    """Map accepted points through Sigma^{-1/2}; labels unchanged."""
    return LabeledSampleSet(stretch(s.points, v, 1.0 / _check_sigma(sigma)),
                            s.labels)


def unwhiten_direction(w: UnitVector, v: UnitVector, sigma: float) -> UnitVector:
    """Transport a direction learned in whitened space back: normalize
    Sigma^{-1/2} w.

    Cannot degenerate for unit w: the map never shrinks norms.
    """
    return normalize(stretch(w.coords, v, 1.0 / _check_sigma(sigma)))


def check_unwhitening_error_bound(v_star: UnitVector, v: UnitVector,
                                  w: UnitVector, delta: float,
                                  zeta: float) -> bool:
    """Numeric check of the localization geometry bound.

    Hypotheses: ||v - v_star|| <= delta <= 1/100 and w within zeta <= 1/100
    of the whitened optimum normalize(Sigma^{1/2} v_star). Verifies that
    unwhitening w lands within 5 (delta^2 + delta zeta) of v_star.
    """
    if not 0.0 < delta <= 0.01:
        raise ValueError("delta must lie in (0, 1/100]")
    if not 0.0 <= zeta <= 0.01:
        raise ValueError("zeta must lie in [0, 1/100]")
    slack = 1e-12  # constructed inputs sit exactly on the hypothesis edge
    if v.distance_to(v_star) > delta + slack:
        raise ValueError("v is farther than delta from v_star")
    whitened_opt = normalize(stretch(v_star.coords, v, delta))
    if w.distance_to(whitened_opt) > zeta + slack:
        raise ValueError("w is farther than zeta from the whitened optimum")
    recovered = unwhiten_direction(w, v, delta)
    return recovered.distance_to(v_star) <= 5.0 * (delta**2 + delta * zeta)


def localized_update(s: LabeledSampleSet, v: UnitVector, delta: float,
                     cfg: RunConfig, rng: np.random.Generator,
                     tau: float,
                     stop: threading.Event | None = None) -> UnitVector:
    """Refine v at scale delta, or reject the marginal.

    Localizes with sigma = delta. Under a Gaussian marginal the acceptance
    rate concentrates at delta, so a rate outside [delta/2, 3 delta/2] is
    rejection evidence, raised as Rejected(RATE_CHECK) (the interval is
    taken verbatim; the accepted-count precondition keeps binomial noise
    well inside it). Otherwise the accepted samples are whitened, handed
    to the weak learner with the Chow failure budget tau, whose Rejected
    passes through, and the learned direction is transported back through
    the inverse map. Once ``stop`` is set, a round that passes its rate
    check raises moments.Stopped instead of running the weak learner.
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
    if stop is not None and stop.is_set():
        raise Stopped
    inner = weak_proper_learn(whiten(accepted, v, delta), cfg, rng, tau)
    return unwhiten_direction(inner, v, delta)
