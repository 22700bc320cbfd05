"""Soft localization: rejection sampling toward a halfspace boundary plus
the rank-one whitening maps.

Accepting a point with probability exp(-(v.x)^2 (sigma^-2 - 1) / 2) turns
a standard Gaussian marginal into N(0, Sigma) with
Sigma = I - (1 - sigma^2) v v^T: variance sigma^2 along v, untouched
orthogonal directions, and overall acceptance rate sigma. The maps
Sigma^{+-1/2} are applied in closed form (never materializing a d x d
matrix): Sigma^{1/2} x = x - (1 - sigma)(v.x) v and
Sigma^{-1/2} x = x + (1/sigma - 1)(v.x) v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledSampleSet, UnitVector, normalize


class EmptyLocalizationError(RuntimeError):
    """Rejection sampling accepted nothing; callers treat this as evidence
    against the Gaussian marginal."""


@dataclass(frozen=True)
class LocalizationTransform:
    """The pair of inverse rank-one maps attached to (v, sigma)."""

    v: UnitVector
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")

    def shrink(self, x: np.ndarray) -> np.ndarray:
        """Sigma^{1/2}: scales the component along v by sigma."""
        v = self.v.coords
        margins = np.asarray(x, dtype=np.float64) @ v
        return x - (1.0 - self.sigma) * np.multiply.outer(margins, v)

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Sigma^{-1/2}: scales the component along v by 1/sigma."""
        v = self.v.coords
        margins = np.asarray(x, dtype=np.float64) @ v
        return x + (1.0 / self.sigma - 1.0) * np.multiply.outer(margins, v)


def acceptance_probabilities(margins: np.ndarray, sigma: float) -> np.ndarray:
    """Per-point keep probability; depends on the point only through v.x."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
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
    reproducible. Raises EmptyLocalizationError if nothing survives.
    """
    if v.d != s.d:
        raise ValueError("dimension mismatch between direction and samples")
    probs = acceptance_probabilities(s.points @ v.coords, sigma)
    keep = rng.random(s.n) < probs
    accepted = int(keep.sum())
    if accepted == 0:
        raise EmptyLocalizationError(
            f"no samples accepted at sigma={sigma} (n={s.n})")
    return s.subset(keep), accepted / s.n


def whiten(s: LabeledSampleSet, v: UnitVector, sigma: float) -> LabeledSampleSet:
    """Map accepted points through Sigma^{-1/2}; labels unchanged."""
    if v.d != s.d:
        raise ValueError("dimension mismatch between direction and samples")
    transform = LocalizationTransform(v, sigma)
    return LabeledSampleSet(transform.expand(s.points), s.labels)


def unwhiten_direction(w: UnitVector, v: UnitVector, sigma: float) -> UnitVector:
    """Transport a direction learned in whitened space back: normalize
    Sigma^{-1/2} w.

    Cannot degenerate for unit w: the map never shrinks norms.
    """
    if w.d != v.d:
        raise ValueError("dimension mismatch between directions")
    transform = LocalizationTransform(v, sigma)
    return normalize(transform.expand(w.coords))


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
    transform = LocalizationTransform(v, delta)
    whitened_opt = normalize(transform.shrink(v_star.coords))
    if w.distance_to(whitened_opt) > zeta + slack:
        raise ValueError("w is farther than zeta from the whitened optimum")
    recovered = unwhiten_direction(w, v, delta)
    return recovered.distance_to(v_star) <= 5.0 * (delta**2 + delta * zeta)
