"""Partitions, strict partitions, integer vectors and their statistics.

Partitions are tuples of weakly decreasing positive integers, stored
without trailing zeros; the empty tuple is the empty partition.  The
enumerators return them as ``_Partition`` or ``_StrictPartition``, tuples
marked as checked (see ``_Partition``).  Integer vectors (compositions,
possibly with zero or negative entries) are plain tuples and keep their
entries verbatim.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import lru_cache
from itertools import groupby
from math import factorial, inf


# One rule, three entries: each part is at most the part before it
# (strictly below it, when strict), and the last part is at least 1.  Each
# loop starts from prev = inf, above every number, so the first part passes
# the order test and the empty sequence passes both.


def is_partition(seq):
    prev = inf
    for part in seq:
        if part > prev:
            return False
        prev = part
    return prev >= 1


def is_strict_partition(seq):
    prev = inf
    for part in seq:
        if part >= prev:
            return False
        prev = part
    return prev >= 1


class _Partition(tuple):
    """A partition built by ``partitions``, so already checked: a tuple in
    every respect (equality, hash, repr, memo keys), except that
    ``as_partition`` returns it as it is.  Slices, ``+`` and ``tuple(p)``
    give plain tuples, so nothing derived from it carries the mark."""

    __slots__ = ()


class _StrictPartition(_Partition):
    """A strict partition built by ``strict_partitions``; see ``_Partition``."""

    __slots__ = ()


def as_partition(seq, name, strict=False):
    """``tuple(seq)`` if ``seq`` is a list or tuple of ints (not bools) forming
    a partition, strict when asked; else ``ValueError`` naming ``name`` and
    ``seq``.  The library's one validity check, made once per public call,
    in one pass: on ints, ``part + 1 > prev`` is ``part >= prev``.  An
    enumerator's output was checked when it was built and is returned at
    once: a ``_StrictPartition`` always, a ``_Partition`` unless ``strict``."""
    cls = type(seq)
    if cls is _StrictPartition or (cls is _Partition and not strict):
        return seq
    if cls is tuple:
        parts = seq
    elif isinstance(seq, (list, tuple)):
        parts = tuple(seq)
    else:
        parts = (None,)
    gap = 1 if strict else 0
    prev = inf
    for part in parts:
        if type(part) is not int or part + gap > prev:
            break
        prev = part
    else:
        if prev >= 1:
            return parts
    kind = "strict partition" if strict else "partition"
    raise ValueError("%s must be a %s of ints, got %r" % (name, kind, seq))


def conjugate(lam):
    """The transpose of the partition lam (``as_partition``)."""
    return _conjugate(as_partition(lam, "lam"))


@lru_cache(maxsize=None)
def _conjugate(lam):
    """conjugate on a tuple, in O(l(lam) + lam_1): read bottom up, row i
    (1-based) adds lam_i - lam_(i+1) columns of length i.  Memoized for
    the conjugate fold of ``schur.b_coeff``; there are at most p(n) shapes
    of weight n."""
    out, below = [], 0
    for rows in range(len(lam), 0, -1):
        part = lam[rows - 1]
        out += [rows] * (part - below)
        below = part
    return tuple(out)


def dominates(lam, mu):
    """lam >= mu in dominance order, lam and mu partitions (``as_partition``)."""
    return _dominates(as_partition(lam, "lam"), as_partition(mu, "mu"))


def _dominates(lam, mu):
    """dominates on tuples: equal weights and partial sums."""
    if sum(lam) != sum(mu):
        return False
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def _check_counts(n, max_part):
    """The enumerators take an int n and an int or None max_part:
    ``ValueError`` naming the argument on anything else, a bool included.
    Their caches are typed, so ``True`` never reaches the entry of 1."""
    if type(n) is not int:
        raise ValueError("n must be an int, got %r" % (n,))
    if max_part is not None and type(max_part) is not int:
        raise ValueError("max_part must be an int or None, got %r" % (max_part,))


@lru_cache(maxsize=None, typed=True)
def partitions(n, max_part=None):
    """All partitions of n with parts <= max_part, in reverse lex order;
    () for a negative n.  Built by ``_by_largest_part``."""
    _check_counts(n, max_part)
    return _by_largest_part(partitions, n, max_part, False)


@lru_cache(maxsize=None, typed=True)
def strict_partitions(n, max_part=None):
    """All strict partitions of n with parts <= max_part, in reverse lex
    order; () for a negative n.  Built by ``_by_largest_part``."""
    _check_counts(n, max_part)
    return _by_largest_part(strict_partitions, n, max_part, True)


def _by_largest_part(entry, n, max_part, strict):
    """The answers of ``entry`` at (n, max_part) by the largest part j and
    its multiplicity m (m <= 1 when strict): (j,) * m, then an answer at
    (n - m*j, j - 1), with j and m falling, which is reverse lex order.
    Each level lowers the largest part, so the depth is at most that part."""
    cls = _StrictPartition if strict else _Partition
    if n == 0:
        return (cls(),)
    top = n if max_part is None else min(n, max_part)
    out = []
    for j in range(top, 0, -1):
        most = 1 if strict else n // j
        # no part is left below 1, so j = 1 needs m = n: skip the empty calls
        for m in range(most, 0 if j > 1 else most - 1, -1):
            head = (j,) * m
            for rest in entry(n - m * j, j - 1):
                out.append(cls(head + rest))
    return tuple(out)


# -- statistics ---------------------------------------------------------


def n_stat(lam):
    return sum(i * part for i, part in enumerate(lam))


@lru_cache(maxsize=None)
def shifted_tableaux_count(xi):
    """g^xi, the number of standard shifted tableaux of the strict shape xi:
    n! / prod_i xi_i! * prod_(i<j) (xi_i - xi_j) / (xi_i + xi_j)."""
    num, den = factorial(sum(xi)), 1
    for i, a in enumerate(xi):
        den *= factorial(a)
        for b in xi[i + 1:]:
            num *= a - b
            den *= a + b
    return num // den


# -- enumeration helpers ------------------------------------------------


@lru_cache(maxsize=None)
def vertical_strip_subshapes(lam, k):
    """Partitions rho inside lam with lam/rho a vertical k-strip
    (k cells removed, at most one per row), as a tuple.

    A block of equal parts loses its cells from its last rows, and any
    choice of j cells from each block, with the j summing to k, leaves a
    partition.  So the blocks are filled in turn, and each subshape is
    built exactly once.  Memoized: lam must be a tuple and k an int, and
    every caller shares the one immutable result per (lam, k)."""
    if k < 0 or k > len(lam):
        return ()
    states = [((), k)]  # (rows built so far, cells still to remove)
    room = len(lam)  # rows in the blocks not yet filled
    for part, block in groupby(lam):
        size = len(tuple(block))
        room -= size
        low = (part - 1,) if part > 1 else ()  # a row of 1 removed is dropped
        states = [
            (head + (part,) * (size - j) + low * j, left - j)
            for head, left in states
            for j in range(max(0, left - room), min(size, left) + 1)
        ]
    return tuple(head for head, _ in states)


def is_hook(lam):
    """Hook shapes (lam_1, 1^m), lam a partition (``as_partition``); the
    empty partition counts as a hook."""
    return _is_hook(as_partition(lam, "lam"))


def _is_hook(lam):
    """is_hook on a tuple."""
    return all(part == 1 for part in lam[1:])


class ShapeKind(enum.Enum):
    HOOK = "hook"
    DOUBLE_HOOK_PROPER = "double_hook_proper"
    OTHER = "other"


ShapeClass = namedtuple("ShapeClass", "kind lam1 lam2 m2 m1", defaults=(0, 0, 0, 0))


def classify_shape(lam):
    """Hook (lam1, 1^m1), proper double hook (lam1, lam2, 2^m2, 1^m1) with
    lam2 >= 2, or Other; lam a checked tuple."""
    if _is_hook(lam):
        lam1 = lam[0] if lam else 0
        return ShapeClass(ShapeKind.HOOK, lam1=lam1, m1=len(lam) - 1 if lam else 0)
    # here len(lam) >= 2 and lam[1] >= 2
    lam1, lam2 = lam[0], lam[1]
    rest = lam[2:]
    m2 = sum(1 for p in rest if p == 2)
    m1 = sum(1 for p in rest if p == 1)
    if m2 + m1 == len(rest):
        return ShapeClass(ShapeKind.DOUBLE_HOOK_PROPER, lam1, lam2, m2, m1)
    return ShapeClass(ShapeKind.OTHER)
