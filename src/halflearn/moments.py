"""Monomial enumeration and moments of the standard Gaussian.

The exact moments here are the reference side of every moment-matching
test. The empirical side rests on E[x^a x^b] = E[x^(a+b)]: every
monomial of degree <= k is one cell of the Gram matrix ``Z^T Z / n``,
where the columns of ``Z`` are monomials of degree <= ceil(k / 2), so a
single BLAS product per block of rows evaluates them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .core import MAX_MOMENT_DEGREE

# Doubles per block of the monomial table (4 MB). Rows per block follow
# from the table's width alone, so the summation order, and with it every
# report byte, does not depend on the machine. Small blocks stay in cache.
_BLOCK_DOUBLES = 1 << 19

# The table's width is padded with zero columns to a multiple of this.
# OpenBLAS splits a Gram product among its threads at multiples of its
# kernel tile, and a tile cut short by the matrix edge goes to an edge
# kernel that rounds differently. Unpadded widths above 96 that are not a
# multiple of 8 gave different bytes at 1 and 2 threads (OpenBLAS 0.3.31,
# x86-64 with AVX-512); padded ones keep the bytes thread-independent.
_WIDTH_MULTIPLE = 16


@dataclass(frozen=True)
class MonomialExponent:
    """Exponent vector of a d-variate monomial with degree >= 1."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(a) for a in self.exponents)
        if len(exps) < 1:
            raise ValueError("need at least one variable")
        if any(a < 0 for a in exps):
            raise ValueError("exponents must be non-negative")
        if sum(exps) < 1:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "exponents", exps)

    @property
    def d(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)


def _compositions(total: int, parts: int):
    """Weak compositions of ``total`` into ``parts``, lexicographically
    descending, e.g. (2,0), (1,1), (0,2)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_monomials(d: int, k: int) -> list[MonomialExponent]:
    """All monomials with 1 <= degree <= k, graded then descending-lex.

    The count is C(d + k, k) - 1.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    out = []
    for degree in range(1, k + 1):
        for exps in _compositions(degree, d):
            out.append(MonomialExponent(exps))
    assert len(out) == comb(d + k, k) - 1
    return out


def _double_factorial(a: int) -> int:
    # (-1)!! == 1 by convention
    result = 1
    while a > 1:
        result *= a
        a -= 2
    return result


def _gaussian_moment_unchecked(exponents: Sequence[int]) -> float:
    if any(a % 2 == 1 for a in exponents):
        return 0.0
    value = 1
    for a in exponents:
        value *= _double_factorial(a - 1)
    return float(value)


def gaussian_moment(m: MonomialExponent) -> float:
    """E[x^m] under N(0, I): product of (a_i - 1)!! if all a_i even, else 0."""
    if m.degree > MAX_MOMENT_DEGREE:
        raise ValueError(f"degree {m.degree} exceeds the exact-arithmetic cap "
                         f"of {MAX_MOMENT_DEGREE}")
    return _gaussian_moment_unchecked(m.exponents)


def gaussian_moment_variance(m: MonomialExponent) -> float:
    """Var[x^m] under N(0, I), computed from the moment oracle itself."""
    if m.degree > MAX_MOMENT_DEGREE:
        raise ValueError(f"degree {m.degree} exceeds the exact-arithmetic cap "
                         f"of {MAX_MOMENT_DEGREE}")
    second = _gaussian_moment_unchecked(tuple(2 * a for a in m.exponents))
    first = _gaussian_moment_unchecked(m.exponents)
    return second - first * first


def _split(exps: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Halves ``(a, b)`` with ``a + b == exps``: ``a`` takes the first
    ceil(degree / 2) units in coordinate order, ``b`` the rest."""
    left = (sum(exps) + 1) // 2
    a = []
    for e in exps:
        take = min(e, left)
        a.append(take)
        left -= take
    return tuple(a), tuple(e - t for e, t in zip(exps, a))


@lru_cache(maxsize=32)
def _gram_plan(requested: tuple[tuple[int, ...], ...]):
    """Columns of the monomial table and the Gram cell of each request.

    Column 0 is the constant 1. Every other column is its parent column
    times one coordinate (parent 0: the coordinate itself), and parents
    precede children. Only the halves the requests need, and their chain
    ancestors, become columns. Returns ``(steps, rows, cols)``: column j
    is built from ``steps[j - 1] == (parent, coord)``, and request i is
    Gram cell ``(rows[i], cols[i])`` (read-only arrays).
    """
    index: dict[tuple[int, ...], int] = {(0,) * len(requested[0]): 0}
    steps: list[tuple[int, int]] = []

    def ensure(exps: tuple[int, ...]) -> int:
        found = index.get(exps)
        if found is not None:
            return found
        last = max(i for i, a in enumerate(exps) if a > 0)
        parent = ensure(exps[:last] + (exps[last] - 1,) + exps[last + 1:])
        steps.append((parent, last))
        index[exps] = len(steps)
        return len(steps)

    cells = [tuple(map(ensure, _split(exps))) for exps in requested]
    rows, cols = np.array(cells, dtype=np.intp).T
    rows.setflags(write=False)
    cols.setflags(write=False)
    return tuple(steps), rows, cols


def batch_empirical_moments(points: np.ndarray,
                            monomials: Sequence[MonomialExponent]) -> np.ndarray:
    """Empirical mean of every monomial over the rows of ``points``.

    Each monomial x^(a+b) is read off the Gram matrix ``Z^T Z`` of a
    monomial table ``Z`` whose columns hold x^a and x^b. ``Z`` is built
    and multiplied one block of rows at a time.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a non-empty (n, d) array")
    n, d = points.shape
    for m in monomials:
        if m.d != d:
            raise ValueError(f"monomial over {m.d} variables, points have {d}")
    if not monomials:
        return np.zeros(0, dtype=np.float64)
    steps, rows, cols = _gram_plan(tuple(m.exponents for m in monomials))
    width = -(-(len(steps) + 1) // _WIDTH_MULTIPLE) * _WIDTH_MULTIPLE
    block = max(1, _BLOCK_DOUBLES // width)
    # Table and coordinates are stored transposed, one contiguous row per
    # column, so every product streams through memory.
    table = np.zeros((width, min(block, n)), dtype=np.float64)
    table[0] = 1.0
    xt = np.empty((d, table.shape[1]), dtype=np.float64)
    gram = np.zeros((width, width), dtype=np.float64)
    for start in range(0, n, block):
        chunk = points[start:start + block]
        size = chunk.shape[0]
        x = xt[:, :size]
        x[...] = chunk.T
        z = table[:, :size]
        for j, (parent, coord) in enumerate(steps, start=1):
            if parent == 0:
                z[j] = x[coord]
            else:
                np.multiply(z[parent], x[coord], out=z[j])
        gram += z @ z.T
    return gram[rows, cols] / n
