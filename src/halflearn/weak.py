"""Weak proper learner: certify moments, then normalize a robust Chow
estimate of the degree-1 Chow vector E[y x].

Either raises Rejected, naming the tester that rejected the x-marginal
as non-Gaussian, or returns a unit vector within O(sqrt(opt + eta)) of
the best halfspace's normal, where eta is the moment-matching accuracy
that degree cfg.k_cap certifies. The returned direction only needs small
constant accuracy; the localization loop does the rest.

The Chow estimate is the coordinate-wise median of batch means: a
constant fraction of wild batches moves each coordinate no further than
the clean batches' range, which is what makes the estimate stable under
adversarial label noise. An estimate is given its failure budget tau
(the pipeline's per-tester share of the run's tau) and sizes itself from
the rows it reads: 2 ceil(ln(d / tau)) + 1 batches, clamped so that
every batch keeps at least 10 rows.

The Chow direction does not read the moment verdict, so the two steps are
also callable apart.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import (DegenerateVectorError, LabeledSampleSet, Rejected,
                   RunConfig, UnitVector, _frozen_view, normalize)
from .moment_test import moment_match_test

MIN_SAMPLES = 1000

# Values of Rejected.tester from this learner.
MOMENT_TEST = "moment_test"
DEGENERATE_CHOW = "degenerate_chow"


@dataclass(frozen=True, eq=False)
class ChowEstimate:
    vector: np.ndarray
    batch_count: int
    per_coordinate_spread: np.ndarray  # inter-batch median absolute deviation

    def __post_init__(self):
        object.__setattr__(self, "vector", _frozen_view(
            np.asarray(self.vector, dtype=np.float64)))
        object.__setattr__(self, "per_coordinate_spread", _frozen_view(
            np.asarray(self.per_coordinate_spread, dtype=np.float64)))


def default_batch_count(d: int, tau: float, n: int) -> int:
    """2 * ceil(log(d / tau)) + 1, clamped to an odd value with >= 10
    samples per batch."""
    count = 2 * max(1, math.ceil(math.log(d / tau))) + 1
    limit = n // 10
    if count > limit:
        count = max(1, limit if limit % 2 == 1 else limit - 1)
    return count


def estimate_chow(s: LabeledSampleSet, batch_count: int,
                  rng: np.random.Generator) -> ChowEstimate:
    """Median-of-means estimate of E[y x].

    Samples are shuffled by ``rng`` and split into ``batch_count``
    contiguous equal batches, dropping the remainder; each coordinate is
    the median of the batch means. ``batch_count`` must be odd. One batch
    of rows is gathered at a time. A batch whose sum leaves the float
    range gives a non-finite estimate, which chow_direction refuses.
    """
    if batch_count < 1 or batch_count % 2 == 0:
        raise ValueError("batch_count must be odd and positive")
    if s.n < 10 * batch_count:
        raise ValueError(f"need at least {10 * batch_count} samples "
                         f"for {batch_count} batches, got {s.n}")

    # Seeded shuffle guards against pre-sorted inputs while staying
    # reproducible.
    perm = rng.permutation(s.n)
    batch_size = s.n // batch_count
    batches = perm[: batch_count * batch_size].reshape(batch_count, batch_size)
    batch_means = np.empty((batch_count, s.d))
    signed = np.empty((batch_size, s.d))
    with np.errstate(over="ignore", invalid="ignore"):
        for mean, rows in zip(batch_means, batches):
            # Gather one batch into the shared buffer, then sign its rows
            # in place: multiplying by -1 or +1 is exact. Every index is
            # in range; mode="clip" only skips the copy of ``out`` that
            # the default mode makes.
            np.take(s.points, rows, axis=0, out=signed, mode="clip")
            signed *= s.labels[rows, None]
            np.mean(signed, axis=0, out=mean)
        # The count is odd, so a median is the middle order statistic.
        # np.median gives the same bytes but imports numpy.ma (1 MiB) on
        # its first call.
        middle = batch_count // 2
        vector = np.partition(batch_means, middle, axis=0)[middle]
        spread = np.partition(np.abs(batch_means - vector), middle,
                              axis=0)[middle]
    return ChowEstimate(vector=vector, batch_count=batch_count,
                        per_coordinate_spread=spread)


def certify_moments(s: LabeledSampleSet, cfg: RunConfig,
                    stop: threading.Event | None = None) -> None:
    """Raise Rejected(MOMENT_TEST) unless the moments of s match N(0, I)
    up to degree cfg.k_cap; raise moments.Stopped once ``stop`` is set."""
    if not moment_match_test(s, cfg.k_cap, stop).certified:
        raise Rejected(MOMENT_TEST)


def chow_direction(s: LabeledSampleSet, rng: np.random.Generator,
                   tau: float) -> UnitVector:
    """The normalized robust Chow estimate of s, with failure budget tau.

    A Chow vector with norm at the degeneracy floor is itself rejection
    evidence, raised as Rejected(DEGENERATE_CHOW): an actual halfspace
    problem under Gaussian marginals yields norm near sqrt(2/pi) (shrunk
    by label noise), far above the floor. So is a norm beyond the float
    range, which only coordinates that the moment test rejects can give.
    """
    estimate = estimate_chow(s, default_batch_count(s.d, tau, s.n), rng)
    try:
        return normalize(estimate.vector)
    except DegenerateVectorError:
        raise Rejected(DEGENERATE_CHOW) from None


def weak_proper_learn(s: LabeledSampleSet, cfg: RunConfig,
                      rng: np.random.Generator, tau: float) -> UnitVector:
    """Moment certification followed by a normalized robust Chow estimate
    with failure budget tau.

    A moment rejection short-circuits before any Chow estimation.
    """
    if s.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {s.n}")
    certify_moments(s, cfg)
    return chow_direction(s, rng, tau)
