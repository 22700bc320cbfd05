"""Wedge-bound certifier: every halfspace whose normal is within eta of a
known v disagrees with v on O(eta) mass, or the marginal is not Gaussian.

The line along v is cut into slabs of width eta out to a tail threshold
T = sqrt(2 log(1/eta)) (Gaussian mass beyond T is about eta, so the tails
can be lumped). Two checks back the certificate: the slab-mass histogram
must match the Gaussian discretization in total variation (within eta
plus SLACK = 6 sampling standard errors), and inside each well-populated
slab the points projected off v must have second moment bounded by 2 and
mean bounded by 1. Together these dominate the disagreement mass of every
nearby halfspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (SLACK, UnitVector, _all_finite, margins, normalize,
                   random_unit_vector)

MEAN_BOUND = 1.0
EIGENVALUE_BOUND = 2.0
_CHECK_TOL = 1e-8

# Values of WedgeVerdict.rejected_by.
TV_CHECK = "tv_check"
SLAB_MOMENT_CHECK = "slab_moment_check"


def tail_threshold(eta: float) -> float:
    return math.sqrt(2.0 * math.log(1.0 / eta))


def slab_band_count(eta: float) -> int:
    """B such that slabs i = -B-1 .. B plus two tails tile the line."""
    return math.ceil(tail_threshold(eta) / eta)


def min_sample_count(eta: float) -> int:
    """Enough samples that each of the 2B+3 bins is populated in
    expectation."""
    return max(1000, 50 * (2 * slab_band_count(eta) + 3))


def slab_min_count(d: int) -> int:
    """Minimum slab occupancy for the projected-moment check.

    Below roughly 60 samples per orthogonal dimension, the top eigenvalue
    of an empirical second moment overshoots 2 purely by sampling noise,
    so smaller slabs only feed the TV check.
    """
    return max(30, 60 * (d - 1))


def smallest_testable_eta(n: int) -> float | None:
    """Smallest eta in (0, 1/2] whose sample precondition n suffices for."""
    if n < min_sample_count(0.5):
        return None
    lo, hi = 1e-6, 0.5
    if n >= min_sample_count(lo):
        return lo
    for _ in range(80):
        mid = math.sqrt(lo * hi)  # eta spans orders of magnitude
        if n >= min_sample_count(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _as_points(points: np.ndarray, v: UnitVector) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != v.d:
        raise ValueError("points must be (n, d) matching the direction")
    if not _all_finite(points):
        raise ValueError("points must be finite")
    return points


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _reference_masses(eta: float, b: int, t: float) -> np.ndarray:
    """Standard-normal mass of each bin under the same tail clamping.

    Offsets 0 and 2B+2 are the tails (the outermost slabs lie entirely
    beyond the threshold, so their interior mass is zero); interior bins
    i = -B .. B get the clipped slab mass, and the whole vector sums to 1.
    """
    edges = np.clip(np.arange(-b, b + 2) * eta, -t, t)
    cdf = np.array([_phi(x) for x in edges.tolist()])
    ref = np.empty(2 * b + 3, dtype=np.float64)
    ref[0] = _phi(-t)
    ref[-1] = 1.0 - _phi(t)
    np.maximum(0.0, cdf[1:] - cdf[:-1], out=ref[1:-1])
    return ref


@dataclass(frozen=True, eq=False)
class SlabDecomposition:
    v: UnitVector
    eta: float
    b: int
    slab_masses: np.ndarray        # empirical bin probabilities, sum to 1
    reference_masses: np.ndarray   # standard-Gaussian bin probabilities


@dataclass(frozen=True, eq=False)
class WedgeVerdict:
    rejected_by: str | None            # TV_CHECK or SLAB_MOMENT_CHECK
    failed_slab_index: int | None      # slab index i for moment failures
    tv_discrepancy: float
    worst_slab_eigenvalue: float
    slabs_checked: int                 # slabs the moment check examined
    mass_checked: float                # their share of the points
    decomposition: SlabDecomposition

    @property
    def certified(self) -> bool:
        return self.rejected_by is None


def _decompose(points: np.ndarray, v: UnitVector, eta: float):
    """Slab decomposition of checked points, with each point's bin offset
    and the bin counts.

    Interior bin i holds v.x in [i eta, (i+1) eta) at offset i + B + 1;
    offsets 0 and 2B+2 are the lower/upper tails |v.x| >= T.
    """
    m = margins(points, v)
    b = slab_band_count(eta)
    t = tail_threshold(eta)
    idx = np.floor(np.clip(m, -t, t) / eta).astype(np.int64)
    idx[m >= t] = b + 1
    idx[m <= -t] = -b - 1
    bins = idx + b + 1
    counts = np.bincount(bins, minlength=2 * b + 3)
    decomposition = SlabDecomposition(
        v=v, eta=eta, b=b,
        slab_masses=counts / points.shape[0],
        reference_masses=_reference_masses(eta, b, t),
    )
    return decomposition, bins, counts


def _slab_moments(points: np.ndarray, v: UnitVector, bins: np.ndarray,
                  counts: np.ndarray, kept: np.ndarray):
    """Top eigenvalue of the projected second moment and norm of the
    projected mean, for each kept bin in ascending order.

    The rows of the kept bins are ordered by one stable sort on their rank
    among the kept bins (a small unsigned key, so NumPy radix-sorts it);
    each slab is gathered in turn, and its raw sums X^T X and sum x are
    then projected off v as P S P and P m with P = I - v v^T. A slab whose
    second moment is not finite gets top eigenvalue inf.
    """
    rank = np.full(counts.size, kept.size,
                   dtype=np.min_scalar_type(kept.size))
    rank[kept] = np.arange(kept.size)
    sizes = counts[kept]
    order = np.argsort(rank[bins], kind="stable")[:int(sizes.sum())]
    ones = np.ones(int(sizes.max()))
    sums = np.empty((kept.size, v.d))
    scatter = np.empty((kept.size, v.d, v.d))
    proj = np.eye(v.d) - np.multiply.outer(v.coords, v.coords)
    # Squares of a huge finite coordinate overflow to inf, and inf times a
    # zero of the projection is NaN; such a slab fails the check.
    with np.errstate(over="ignore", invalid="ignore"):
        for j, rows in enumerate(np.split(order, np.cumsum(sizes)[:-1])):
            slab = np.take(points, rows, axis=0)
            # A product with a ones vector sums rows faster than
            # np.add.reduce.
            sums[j] = ones[:rows.size] @ slab
            scatter[j] = slab.T @ slab
        second_moments = proj @ scatter @ proj / sizes[:, None, None]
        mean_norms = np.linalg.norm(sums @ proj / sizes[:, None], axis=1)
    # eigvalsh may not converge on, or may miss, a matrix that is not finite.
    finite = np.isfinite(second_moments).all(axis=(1, 2))
    tops = np.full(kept.size, np.inf)
    tops[finite] = np.linalg.eigvalsh(second_moments[finite])[:, -1]
    return tops, mean_norms


def wedge_bound_test(points: np.ndarray, v: UnitVector,
                     eta: float) -> WedgeVerdict:
    """Certify the wedge bound at scale eta or reject the marginal.

    Checks, in order: (a) total variation between empirical and reference
    slab masses within eta plus a finite-sample allowance of
    SLACK * sqrt((2B+3)/n); (b) per slab with enough points, the
    projection onto the orthogonal complement of v has top second-moment
    eigenvalue <= 2 and mean norm <= 1. The first failing check is named
    in rejected_by, slabs in ascending index order. The worst eigenvalue
    and the coverage count the slabs up to and including a failing one.
    """
    if not 0.0 < eta <= 0.5:
        raise ValueError("eta must lie in (0, 1/2]")
    points = _as_points(points, v)
    n = points.shape[0]
    needed = min_sample_count(eta)
    if n < needed:
        raise ValueError(f"need at least {needed} samples at eta={eta}, "
                         f"got {n}")

    decomposition, bins, counts = _decompose(points, v, eta)
    b = decomposition.b
    tv = float(np.abs(decomposition.slab_masses
                      - decomposition.reference_masses).sum())
    allowance = SLACK * math.sqrt((2 * b + 3) / n)
    if tv > eta + allowance:
        return WedgeVerdict(rejected_by=TV_CHECK, failed_slab_index=None,
                            tv_discrepancy=tv, worst_slab_eigenvalue=0.0,
                            slabs_checked=0, mass_checked=0.0,
                            decomposition=decomposition)

    kept = np.flatnonzero(counts >= slab_min_count(v.d))
    tops = mean_norms = np.empty(0)
    if kept.size:
        tops, mean_norms = _slab_moments(points, v, bins, counts, kept)
    # Written so that a NaN fails.
    failing = np.flatnonzero(~((tops <= EIGENVALUE_BOUND + _CHECK_TOL)
                               & (mean_norms <= MEAN_BOUND + _CHECK_TOL)))
    failed = int(failing[0]) if failing.size else None
    checked = kept.size if failed is None else failed + 1
    return WedgeVerdict(
        rejected_by=None if failed is None else SLAB_MOMENT_CHECK,
        failed_slab_index=None if failed is None else int(kept[failed]) - b - 1,
        tv_discrepancy=tv,
        worst_slab_eigenvalue=float(tops[:checked].max(initial=0.0)),
        slabs_checked=checked,
        mass_checked=float(counts[kept[:checked]].sum() / n),
        decomposition=decomposition)


def verify_wedge_certificate(points: np.ndarray, v: UnitVector, eta: float,
                             trials: int, rng: np.random.Generator) -> float:
    """Empirical stress test of a certificate: max disagreement with
    sign(v . x) over random unit vectors within eta of v.

    Trial 0 uses w = v itself; each other trial draws a uniform direction
    in the orthogonal complement and a distance uniform in (0, eta].
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0.0 < eta <= 2.0:
        raise ValueError("eta must lie in (0, 2] (2 reaches the antipode)")
    points = _as_points(points, v)
    base_signs = margins(points, v) >= 0.0

    worst = 0.0
    for trial in range(trials):
        if trial == 0:
            w = v
        else:
            distance = rng.uniform(0.0, eta)
            distance = eta if distance == 0.0 else distance
            g = random_unit_vector(v.d, rng).coords
            u = normalize(g - margins(g, v) * v.coords)
            angle = 2.0 * math.asin(min(distance, 2.0) / 2.0)
            w = normalize(math.cos(angle) * v.coords
                          + math.sin(angle) * u.coords)
        signs = margins(points, w) >= 0.0
        worst = max(worst, float(np.mean(signs != base_signs)))
    return worst
