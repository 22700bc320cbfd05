"""Monomial enumeration and moments of the standard Gaussian.

A set of monomials is a ``(count, d)`` int64 array of exponents, one row
per monomial. The exact moments here are the reference side of every
moment-matching test. The empirical side rests on E[x^a x^b] =
E[x^(a+b)]: every monomial of degree <= k is one cell of the Gram matrix
``Z^T Z / n``, where the columns of ``Z`` are the monomials of degree <=
ceil(k / 2), so a single BLAS product per block of rows evaluates them
all. The plan of that product, which Gram cell holds each monomial and
how the table's columns are built, is made once per exponent table and
cached per process; the block size is read on every call. A table from
``_frozen_exponents`` whose width matches the points is keyed by its
(d, k) and taken unchecked; any other is checked and keyed by its
SHA-256 digest.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
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

# Rows per float32 product of the single-precision Gram. Its rounding
# bound grows with the rows one float32 sum adds, and a block holds
# 32,768 rows at d <= 4: summed in one product, that put the bound of a
# degree-1 mean past its band on 1.25M rows, so every such test ran both
# passes. Longer blocks are split into stacked products of this many rows,
# summed in float64, which keeps the bound's block term at 2^-10 (a fifth
# of a degree-1 band at n = 1.25M) and leaves whole the blocks of
# d >= 9 at k = 4.
_SINGLE_ROWS = 1 << 13

# The single-precision Gram's rounding: float32's unit roundoff and
# smallest normal, and float64's machine epsilon.
_U32 = float(np.finfo(np.float32).eps) / 2
_TINY32 = float(np.finfo(np.float32).tiny)
_EPS = float(np.finfo(np.float64).eps)

# (2j - 1)!! for j = 0..MAX_MOMENT_DEGREE as Python ints, with (-1)!! = 1:
# E[x^(2j)] = (2j - 1)!! for a standard Gaussian x. 39!! exceeds int64.
_ODD_DOUBLE_FACTORIAL = np.array(
    [math.prod(range(1, 2 * j, 2)) for j in range(MAX_MOMENT_DEGREE + 1)],
    dtype=object)


class Stopped(Exception):
    """batch_empirical_moments was stopped before it read every row."""


@dataclass(frozen=True)
class MonomialExponent:
    """Exponent vector of a d-variate monomial with degree >= 1."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        # Checked before the cast, which would truncate 1.5 to 1;
        # numbers.Integral admits NumPy integers.
        if not all(isinstance(a, numbers.Integral) and a >= 0
                   for a in self.exponents):
            raise ValueError("exponents must be non-negative integers")
        exps = tuple(int(a) for a in self.exponents)
        if len(exps) < 1:
            raise ValueError("need at least one variable")
        if sum(exps) < 1:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "exponents", exps)

    @property
    def degree(self) -> int:
        return sum(self.exponents)


def _monomial_tree(d: int, k: int):
    """Every monomial of degree <= k over d variables (k >= 1), the zero
    row first, then graded and descending-lex, with each row's recipe.

    The children of a row add one unit at each coordinate at or after the
    row's last nonzero coordinate, so every nonzero row has exactly one
    parent, and listing the children of each degree's rows in order keeps
    the order. Returns ``(exponents, parents, coords)``: row ``j >= 1`` is
    row ``parents[j - 1]`` plus one unit at ``coords[j - 1]``.
    """
    levels = [np.zeros((1, d), dtype=np.int64)]
    parents, coords = [], []
    last = np.zeros(1, dtype=np.int64)  # last nonzero coordinate per row
    start = 0
    for _ in range(k):
        counts = d - last
        parent = np.repeat(np.arange(len(last)), counts)
        first_child = np.cumsum(counts) - counts
        coord = np.arange(len(parent)) - first_child[parent] + last[parent]
        child = levels[-1][parent]
        child[np.arange(len(parent)), coord] += 1
        levels.append(child)
        parents.append(parent + start)
        coords.append(coord)
        start += len(last)
        last = coord
    return (np.concatenate(levels), np.concatenate(parents),
            np.concatenate(coords))


def monomial_exponents(d: int, k: int) -> np.ndarray:
    """Exponents of every monomial with 1 <= degree <= k, graded then
    descending-lex, as a ``(C(d + k, k) - 1, d)`` int64 array."""
    if not all(isinstance(v, numbers.Integral) and v >= 1 for v in (d, k)):
        raise ValueError("d and k must be positive integers")
    return _monomial_tree(d, k)[0][1:]


def enumerate_monomials(d: int, k: int) -> list[MonomialExponent]:
    """``monomial_exponents(d, k)`` as a list of ``MonomialExponent``."""
    return [MonomialExponent(tuple(row))
            for row in monomial_exponents(d, k).tolist()]


def gaussian_moments(exponents) -> tuple[np.ndarray, np.ndarray]:
    """E[x^a] and Var[x^a] under N(0, I) for each exponent row ``a``.

    E[x^a] is the product of (a_i - 1)!! if every a_i is even, else 0, and
    Var[x^a] = E[x^(2a)] - E[x^a]^2. Both are exact integers, each rounded
    to float once.
    """
    exponents = np.asarray(exponents)
    top = int(exponents.sum(axis=1).max(initial=0))
    if top > MAX_MOMENT_DEGREE:
        raise ValueError(f"degree {top} exceeds the exact-arithmetic cap "
                         f"of {MAX_MOMENT_DEGREE}")
    # A row of degree <= top has at most top nonzero exponents.
    largest = -np.sort(-exponents, axis=1)[:, :top]
    first = np.prod(np.where(largest % 2 == 0,
                             _ODD_DOUBLE_FACTORIAL[largest // 2], 0), axis=1)
    second = np.prod(_ODD_DOUBLE_FACTORIAL[largest], axis=1)
    return (first.astype(np.float64),
            (second - first * first).astype(np.float64))


def _rank(exponents: np.ndarray) -> np.ndarray:
    """Row index of each exponent row in ``_monomial_tree``'s order.

    Row e of degree g comes after every row of lower degree, and after
    each row of degree g that agrees with e up to coordinate i - 1 and is
    larger there, that is, puts fewer units than e on coordinates i..d-1.
    So the index sums, over i = 0..d-1, the monomials over the d - i
    coordinates i..d-1 whose degree is below ``suffix[i]``, the units e
    puts there (``suffix[0]`` is g).
    """
    d = exponents.shape[1]
    suffix = np.cumsum(exponents[:, ::-1], axis=1)[:, ::-1]
    # below[r, v] = C(r - 1 + v, v): monomials over v variables with
    # degree < r.
    below = np.array([[math.comb(r - 1 + v, v) if r else 0
                       for v in range(d + 1)]
                      for r in range(int(suffix[:, 0].max()) + 1)],
                     dtype=np.int64)
    return below[suffix, np.arange(d, 0, -1)].sum(axis=1)


class _ExponentTable:
    """A validated int64 exponent table as a key of ``_gram_plan``.

    Keys compare and hash by ``key``, by default the table's shape and
    SHA-256 digest, and hold the table only by weak reference, so the
    cache keeps no table alive: at d=48, k=4 one is 99 MB.
    """

    __slots__ = ("key", "exponents")

    def __init__(self, exponents: np.ndarray, key=None):
        self.key = key or (exponents.shape,
                           hashlib.sha256(exponents).digest())
        self.exponents = weakref.ref(exponents)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


@lru_cache(maxsize=16)
def _gram_plan(table: _ExponentTable):
    """Where each monomial sits in the Gram matrix, and how to build the
    monomial table whose Gram it is.

    Returns ``(rows, cols, width, steps)``: monomial i is Gram cell
    ``(rows[i], cols[i])``, the table has ``width`` rows (zero-padded),
    and each step ``(parent, coord, lo, hi)`` fills table rows lo..hi-1
    as row ``parent`` times rows coord..coord+hi-lo-1. The arrays are
    read-only; the block size is left to each call.
    """
    monomials = table.exponents()  # the caller holds the table
    d = monomials.shape[1]
    # x^(a+b) is Gram cell (a, b): a takes the first ceil(degree / 2)
    # units in coordinate order, b the rest.
    degree = monomials.sum(axis=1, keepdims=True)
    before = np.cumsum(monomials, axis=1) - monomials
    first = np.clip((degree + 1) // 2 - before, 0, monomials)
    rows, cols = _rank(first), _rank(monomials - first)
    half = (int(degree.max()) + 1) // 2
    del degree, before, first  # each as large as monomials; not kept
    _, parents, coords = _monomial_tree(d, half)
    width = -(-(len(parents) + 1) // _WIDTH_MULTIPLE) * _WIDTH_MULTIPLE
    # The table is stored transposed, one contiguous row per column, so
    # every product streams through memory. Rows 1..d are the coordinates,
    # and every later row is its parent times one of them. A row's
    # children are consecutive rows that take consecutive coordinates, so
    # one broadcast multiply per parent fills them. Fewer calls mean fewer
    # waits for the interpreter lock beside testable_learn's other thread.
    firsts = np.flatnonzero(np.diff(parents[d:], prepend=-1)) + d
    steps = tuple((int(parents[lo]), int(coords[lo]) + 1, lo + 1, hi + 1)
                  for lo, hi in zip(firsts.tolist(),
                                    firsts[1:].tolist() + [len(parents)]))
    for cells in (rows, cols):
        cells.setflags(write=False)
    return rows, cols, width, steps


def _checked_table(monomials, d: int) -> tuple[np.ndarray, int]:
    """``monomials`` as a C-contiguous int64 table and its top degree;
    ValueError unless it holds (m, d) exponents of degree >= 1."""
    if not isinstance(monomials, np.ndarray):
        monomials = np.array([m.exponents for m in monomials], dtype=np.int64)
    degree = (monomials.sum(axis=1)
              if np.issubdtype(monomials.dtype, np.signedinteger)
              and monomials.ndim == 2 and monomials.shape[1] == d
              and monomials.min() >= 0 else np.zeros(1))
    if degree.min() < 1:
        raise ValueError(f"monomials must be (m, {d}) exponents, degree >= 1")
    return (np.ascontiguousarray(monomials, dtype=np.int64),
            int(degree.max()))


# Tables made by _frozen_exponents, by id: a weak reference to the table,
# its plan key and its top degree. An entry leaves with its table.
_FROZEN: dict[int, tuple[weakref.ref, _ExponentTable, int]] = {}


def _frozen_exponents(d: int, k: int) -> np.ndarray:
    """``monomial_exponents(d, k)``, read-only. batch_empirical_moments
    knows it by identity and keys its plan by (d, k), with no digest and
    no checks."""
    table = monomial_exponents(d, k)
    table.setflags(write=False)
    ident = id(table)
    _FROZEN[ident] = (weakref.ref(table, lambda _: _FROZEN.pop(ident, None)),
                      _ExponentTable(table, ("monomial_exponents", d, k)), k)
    return table


def _single_gram(z: np.ndarray) -> np.ndarray:
    """``z @ z.T`` of a float32 table block: float32 products of at most
    ``_SINGLE_ROWS`` columns each, summed in float64."""
    width, length = z.shape
    whole = length - length % _SINGLE_ROWS
    tail = z[:, whole:]
    gram = tail @ tail.T
    if whole:
        parts = z[:, :whole].reshape(width, -1, _SINGLE_ROWS)
        parts = parts.transpose(1, 0, 2)
        gram = gram + np.matmul(parts, parts.transpose(0, 2, 1)).sum(
            axis=0, dtype=np.float64)
    return gram


def batch_empirical_moments(points: np.ndarray,
                            monomials: np.ndarray | Sequence[MonomialExponent],
                            stop: threading.Event | None = None, *,
                            single: bool = False):
    """Empirical mean of every monomial over the rows of ``points``.

    ``monomials`` is an ``(m, d)`` array of exponents or a list of
    ``MonomialExponent``. Each monomial x^(a+b) is read off the Gram
    matrix ``Z^T Z`` of a monomial table ``Z`` whose columns hold every
    monomial of degree <= ceil(max degree / 2). ``Z`` is built and
    multiplied one block of rows at a time. Once ``stop`` is set, the
    next block raises Stopped instead: testable_learn sets it when its
    other thread has decided the call.

    With ``single=True``, ``Z`` is float32, each block's product is a
    stack of float32 products of at most ``_SINGLE_ROWS`` rows, and the
    products are summed in float64. The call then returns ``(means,
    bounds)``: each mean is within its bound of what the float64 call
    returns, and a bound that is inf or NaN proves nothing. The bound is
    derived in ``halflearn.moment_test``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a non-empty (n, d) array")
    n, d = points.shape
    frozen = _FROZEN.get(id(monomials))
    if (frozen is not None and frozen[0]() is monomials
            and not monomials.flags.writeable and monomials.shape[1] == d):
        _, key, top = frozen
    elif len(monomials) == 0:
        empty = np.zeros(0, dtype=np.float64)
        return (empty, empty) if single else empty
    else:
        monomials, top = _checked_table(monomials, d)
        key = _ExponentTable(monomials)
    rows, cols, width, steps = _gram_plan(key)
    block = min(n, max(1, _BLOCK_DOUBLES // width))
    table = np.zeros((width, block),
                     dtype=np.float32 if single else np.float64)
    table[0] = 1.0
    gram = np.zeros((width, width), dtype=np.float64)
    # Only a coordinate far beyond any Gaussian sample overflows (to inf,
    # or NaN after inf - inf). The sum of its squares never turns NaN, so a
    # moment test of degree 2 or more rejects the sample by it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, block):
            if stop is not None and stop.is_set():
                raise Stopped
            chunk = points[start:start + block]
            z = table[:, :chunk.shape[0]]
            z[1:d + 1] = chunk.T
            for parent, coord, lo, hi in steps:
                np.multiply(z[parent], z[coord:coord + hi - lo], out=z[lo:hi])
            gram += _single_gram(z) if single else z @ z.T
        means = gram[rows, cols] / n
        if not single:
            return means
        diagonal = gram.diagonal()
        absolute = (16 * (top + 2) * _TINY32
                    * np.maximum(1.0, diagonal.max()))
        scale = (diagonal[rows] + diagonal[cols]) / (2 * n) + absolute
        gamma = (2 * (min(block, _SINGLE_ROWS) + 2 * top + 4) * _U32
                 + 2 * (n + 64) * _EPS)
        return means, gamma * scale + 2 * absolute
