"""Moment-matching certifier against the standard Gaussian.

Each monomial up to degree k gets a per-monomial tolerance band
``SLACK * sqrt(Var[m] / n)`` with the frozen ``SLACK = 6``: the scale at
which even truly Gaussian samples fluctuate, so completeness is testable
at realistic sample sizes. (The theory's uniform tolerance,
``(1 / (k d^k)) * (1 / (C sqrt(k)))^(k+1)``, is far below sampling noise
at any feasible n and would reject true Gaussians too.)

``even_powers_reject`` is a cheap screen for the common rejection. It
checks only the even pure powers x_i^m, 2 <= m <= k, against the same
bands, widened by a rounding margin, so it reports a rejection only when
``moment_match_test`` rejects too. Its bands come from gaussian_moments
of the one-variable powers, bit for bit the full test's. testable_learn
runs it on its calling thread while the full test runs beside it; a
proven rejection is the call's verdict, and the full test's Gram then
raises Stopped at its next block.

``moment_match_test`` first runs the Gram in single precision
(``batch_empirical_moments(..., single=True)``). It certifies from that
pass only where, for every monomial, the gap plus a proven bound on its
distance from the float64 Gram's mean is inside the band. Otherwise it
runs the float64 Gram and reports as that alone would, so the report,
every verdict and every byte are the float64 test's.

The bound (Higham, Accuracy and Stability, ch. 3-4). Let u = 2^-24 and
e = 2^-52, k the top degree, c = ceil(k/2), K <= 8192 the rows that one
float32 product sums (moments._SINGLE_ROWS), z the exact table columns
of the float64 points and G the sums of the single-precision Gram. Each
float32 operation returns v (1 + r) + t with |r| <= u and |t| <= 2^-126,
the smallest normal, with or without flush to zero.
- Relative: a term z_a z_b of degree g <= k takes g roundings of its
  coordinates, at most g - 1 table products and the Gram's product,
  then at most K - 1 additions in its product's sum, in any order, so
  for any BLAS and thread count. The float64 sums over products, each
  of at least one row, and the division by n take at most n + 1
  roundings of e / 2, and the float64 test's own mean at most n + k + 1.
  An m-fold rounding of unit w errs by under 4/3 m w while m w <= 1/4,
  so gamma = 2 (K + 2k + 4) u + 2 (n + 64) e covers the distance of
  both means from the exact one, with room to spare. It multiplies
  sum |z_a z_b| / n <= S = (G_aa + G_bb) / (2n), read off the Gram's
  own diagonal, whose rounding the room also covers.
- Absolute: a term takes at most 2k + 1 of the t, each multiplied by
  the term's later factors, at most max(1, B)^(2c) <= 2 max(1, G_max)
  for the largest coordinate B and the largest diagonal G_max, since
  x_i^c is a column. A product's sum adds at most one t per row. So the
  mean errs by under A = 16 (k + 2) 2^-126 max(1, G_max), which also
  covers float64's far smaller underflow.
So |mean32 - mean64| <= gamma (S + A) + 2A. The test certifies only if
gap + bound <= band (1 - 4e) for every monomial, which keeps the
float64 gap inside the band through the rounding of both comparisons.
An overflow turns a diagonal, and so every bound, inf or NaN, which
fails every comparison: it proves nothing.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MAX_MOMENT_DEGREE, SLACK, LabeledSampleSet, _row_blocks
from .moments import (_frozen_exponents, batch_empirical_moments,
                      gaussian_moments)

MIN_SAMPLES = 100
MAX_REPORTED_VIOLATIONS = 10

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class MomentViolation:
    monomial: tuple[int, ...]  # exponent of each coordinate
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
    """Exponents of the monomials of degree 1..k over d variables with
    their exact Gaussian moments and variances, as read-only arrays."""
    exponents = _frozen_exponents(d, k)
    reference, variance = gaussian_moments(exponents)
    for table in (reference, variance):
        table.setflags(write=False)
    return exponents, reference, variance


def _check_arguments(s: LabeledSampleSet, k: int) -> None:
    if s.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {s.n}")
    if not (isinstance(k, numbers.Integral) and 1 <= k <= MAX_MOMENT_DEGREE):
        raise ValueError(f"k must be an integer in [1, {MAX_MOMENT_DEGREE}]")


def moment_match_test(s: LabeledSampleSet, k: int,
                      stop: threading.Event | None = None) -> MomentTestReport:
    """Certify that all sample moments up to degree k match N(0, I), each
    within SLACK standard errors.

    Labels are ignored; the test concerns the x-marginal only. ``stop``
    is passed to batch_empirical_moments, which raises Stopped once it is
    set. A single-precision pass certifies where its rounding bound
    proves the float64 test would; any other case runs the float64 test.
    """
    _check_arguments(s, k)
    exponents, reference, variance = _reference_table(s.d, k)
    tolerance = SLACK * np.sqrt(variance / s.n)
    means, bounds = batch_empirical_moments(s.points, exponents, stop,
                                            single=True)
    if (np.abs(means - reference) + bounds
            <= tolerance * (1 - 4 * _EPS)).all():
        return MomentTestReport(())

    empirical = batch_empirical_moments(s.points, exponents, stop)
    gap = np.abs(empirical - reference)
    violated = np.flatnonzero(gap > tolerance)
    # Worst ratio first; ties fall back to graded-lex enumeration order.
    ratio = gap[violated] / tolerance[violated]
    worst = violated[np.argsort(-ratio, kind="stable")]
    return MomentTestReport(tuple(
        MomentViolation(tuple(exponents[idx].tolist()),
                        float(empirical[idx]), float(reference[idx]),
                        float(tolerance[idx]))
        for idx in worst[:MAX_REPORTED_VIOLATIONS].tolist()))


def even_powers_reject(s: LabeledSampleSet, k: int) -> bool:
    """Whether an even pure power x_i^m, 2 <= m <= k, proves that
    ``moment_match_test(s, k)`` rejects.

    Each mean is compared with the full test's band for x_i^m, widened by
    a margin. The mean of n nonnegative products of m factors, summed in
    any order, with or without BLAS, errs by at most about (n + m) eps
    times itself (Higham, Accuracy and Stability, ch. 4), and this mean
    and the Gram's are both such means of the same terms. The margin,
    2 (n + 64) eps times the sum of the mean, the reference and the band,
    is at least twice that bound (m <= 20), and its reference and band
    terms cover the rounding of both comparisons. A gap beyond band plus
    margin is therefore one the Gram finds beyond the band, and a proven
    rejection is one the full test gives. A mean that overflows to inf
    widens its margin to inf and proves nothing.
    """
    _check_arguments(s, k)
    # E[x^m] and Var[x^m] for m = 2, 4, ..., k, the same floats as the
    # full test's x_i^m rows, since each is an exact integer rounded once.
    reference, variance = gaussian_moments(np.arange(2, k + 1, 2)[:, None])
    reference, variance = reference[:, None], variance[:, None]
    sums = np.zeros((k // 2, s.d))
    # Buffers for the first block, the largest, reused by every block.
    rows = len(s.points[next(_row_blocks(s.n, s.d))])
    ones = np.ones(rows)
    squares, powers = np.empty((2, rows, s.d))
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _row_blocks(s.n, s.d):
            x = s.points[block]
            m = len(x)
            square = np.multiply(x, x, out=squares[:m])
            power = square
            for j, total in enumerate(sums):  # total of x^(2j + 2)
                if j:
                    power = np.multiply(power, square, out=powers[:m])
                total += ones[:m] @ power
        mean = sums / s.n
        band = SLACK * np.sqrt(variance / s.n)
        margin = 2 * (s.n + 64) * _EPS * (mean + reference + band)
        return bool((np.abs(mean - reference) > band + margin).any())
