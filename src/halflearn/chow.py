"""Robust estimation of the degree-1 Chow vector E[y x].

Coordinate-wise median of batch means: a constant fraction of wild
batches moves each coordinate no further than the clean batches' range,
which is what makes the estimate stable under adversarial label noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabeledSampleSet, _frozen_view


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
    of rows is gathered at a time.
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
    # A batch whose sum leaves the float range gets an inf or NaN mean
    # without a warning; the weak learner refuses a non-finite estimate.
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
