"""Slow twins of the fast layers, which the tests compare against.

Each twin is the plain form of what its layer computes, in NumPy with no
Gram, no row blocks and no caches, so that it is correct by inspection.
"""

import math

import numpy as np

from halflearn.core import SLACK
from halflearn.wedge import (EIGENVALUE_BOUND, MEAN_BOUND, SLAB_MOMENT_CHECK,
                             TV_CHECK, _CHECK_TOL, _phi, slab_band_count,
                             slab_min_count, tail_threshold)


def monomial_values(points, exponents):
    """The product of powers prod_a x_a ** e_a of each row x of an (n, d)
    array, for each row e of an (m, d) exponent array: an (m, n) array.

    Each axis's powers are built by repeated multiplication, one power at
    a time, and each monomial multiplies in one power per axis."""
    exponents = np.asarray(exponents, dtype=np.int64)
    values = np.ones((exponents.shape[0], points.shape[0]))
    for axis, column in enumerate(points.T):
        powers = np.ones((exponents[:, axis].max(initial=0) + 1,
                          points.shape[0]))
        for p in range(1, powers.shape[0]):
            np.multiply(powers[p - 1], column, out=powers[p])
        values *= powers[exponents[:, axis]]
    return values


def reference_wedge_test(points, v, eta):
    """The slab check as a loop over every bin: sort the rows by bin, then
    project each well-populated slab's rows off v and take its moments.
    Returns (rejected_by, failed_slab_index, tv, worst eigenvalue,
    reference masses)."""
    n = points.shape[0]
    margins = points @ v.coords
    b, t = slab_band_count(eta), tail_threshold(eta)
    bins = np.clip(np.floor(margins / eta).astype(np.int64), -b - 1, b + 1)
    bins[margins >= t] = b + 1
    bins[margins <= -t] = -b - 1
    bins += b + 1
    ref = np.zeros(2 * b + 3)
    ref[0], ref[-1] = _phi(-t), 1.0 - _phi(t)
    for i in range(-b, b + 1):
        lo = min(max(i * eta, -t), t)
        hi = min(max((i + 1) * eta, -t), t)
        ref[i + b + 1] = max(0.0, _phi(hi) - _phi(lo))
    tv = float(np.abs(np.bincount(bins, minlength=2 * b + 3) / n
                      - ref).sum())
    if tv > eta + SLACK * math.sqrt((2 * b + 3) / n):
        return TV_CHECK, None, tv, 0.0, ref
    worst = 0.0
    order = np.argsort(bins, kind="stable")
    boundaries = np.searchsorted(bins[order], np.arange(2 * b + 4))
    for offset in range(2 * b + 3):
        members = order[boundaries[offset]:boundaries[offset + 1]]
        if members.shape[0] < slab_min_count(v.d):
            continue
        projected = points[members] - np.multiply.outer(margins[members],
                                                        v.coords)
        top = float(np.linalg.eigvalsh(
            projected.T @ projected / members.shape[0])[-1])
        worst = max(worst, top)
        if (top > EIGENVALUE_BOUND + _CHECK_TOL or np.linalg.norm(
                projected.mean(axis=0)) > MEAN_BOUND + _CHECK_TOL):
            return SLAB_MOMENT_CHECK, offset - b - 1, tv, worst, ref
    return None, None, tv, worst, ref
