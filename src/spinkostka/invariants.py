"""Structural invariants of the spin Kostka polynomials K^-_{xi,mu}(t): per
cell (``cell_failures``), and across cells the leading-block factor and
stability (``failures``).  ``verify --suite properties`` and the
acceptance tests check through this module.  The value at t = 1 is held to
a count of marked shifted tableaux (``_marked_tableaux_by_letters``) that
shares no algorithm with the engine."""

from __future__ import annotations

from functools import lru_cache

from .partitions import (
    _dominates,
    is_partition,
    is_strict_partition,
    n_stat,
    partitions,
    strict_partitions,
)
from .polynomial import LaurentPoly
from .schur import b_coeff


def cell_failures(xi, mu, value):
    """The invariants that ``value`` breaks as K^-_{xi,mu}(t), by name; empty
    when it keeps them all.  (xi, mu) must be a cell: xi strict and mu a
    partition of the same weight.  K^- vanishes unless xi dominates mu, is
    divisible by 2^l(xi), takes 2^l(xi) delta_{xi,mu} at t = -1, b_{xi,mu}
    at t = 0 (as K_{lam,mu}(0) = delta_{lam,mu}) and at t = 1 the number of
    marked shifted tableaux of shape xi and content mu (the coefficient of
    m_mu in Q_xi), is the constant 2^l(xi) on the diagonal, and has its
    exponents in 0..n(mu)."""
    if not (is_strict_partition(xi) and is_partition(mu) and sum(xi) == sum(mu)):
        return ["not a cell: xi strict, mu a partition, equal weights"]
    terms = value.terms
    if not _dominates(xi, mu):
        return ["vanishing unless xi dominates mu"] if terms else []
    scale = 2 ** len(xi)
    found = []
    if any(c % scale for c in terms.values()):
        found.append("divisibility by 2^l(xi)")
    if sum(-c if e % 2 else c for e, c in terms.items()) != (scale if xi == mu else 0):
        found.append("value 2^l(xi) delta at t = -1")
    if terms.get(0, 0) != b_coeff(xi, mu):
        found.append("value b_{xi,mu} at t = 0")
    if sum(terms.values()) != _marked_tableaux_by_letters(xi, mu):
        found.append("value at t = 1 counts marked shifted tableaux")
    if xi == mu and value != LaurentPoly.const(scale):
        found.append("diagonal value 2^l(xi)")
    if terms and (min(terms) < 0 or max(terms) > n_stat(mu)):
        found.append("degree at most n(mu)")
    return found


def _one_letter_strips(xi, k):
    """(alpha, components) for each strict alpha inside xi, padded with zeros
    to the length of xi, whose k cells xi/alpha can all take one letter: no
    two of them at (r, c) and (r+1, c+1) of the shifted diagram.  Row r
    loses the cells alpha_r..xi_r - 1 of its row, so two adjacent rows that
    both lose cells need alpha_r >= xi_(r+1), and their cells touch exactly
    when alpha_r = xi_(r+1); components counts the edge-connected pieces."""
    states = [((), k, 0)]  # (rows built so far, cells still to remove, components)
    room = sum(xi)  # cells in the rows below the one being built
    for r, x in enumerate(xi):
        room -= x
        grown = []
        for head, left, comps in states:
            above = head[-1] if r else x + 1
            above_lost = r > 0 and above < xi[r - 1]
            for a in range(max(x - left, 0), min(x, x - left + room) + 1):
                lost = a < x
                if (a and a >= above) or (lost and above_lost and above < x):
                    continue
                joined = above_lost and above == x
                grown.append((head + (a,), left - x + a, comps + (lost and not joined)))
        states = grown
    return [(alpha, comps) for alpha, left, comps in states if not left]


@lru_cache(maxsize=None)
def _marked_tableaux_by_letters(xi, mu):
    """Marked shifted tableaux of shape xi and content mu, diagonal marks
    free, by peeling the cells xi/alpha of the largest letter.  Those cells
    take the letter k or k' exactly when no two of them sit at (r, c) and
    (r+1, c+1), and then each edge-connected component has its marks fixed
    but for one free cell, so the filling counts 2^components ways."""
    if not mu:
        return 0 if xi else 1
    return sum(
        2 ** comps * _marked_tableaux_by_letters(tuple(a for a in alpha if a), mu[:-1])
        for alpha, comps in _one_letter_strips(xi, mu[-1])
    )


def failures(kostka, weights, stable_weights=(), grow=()):
    """Every invariant that ``kostka(xi, mu)`` breaks, one line each.  The
    per-cell checks and the leading-block factor run on every cell of each
    weight in ``weights``; stability runs on the cells of each positive
    weight in ``stable_weights``, growing the first parts by each r in
    ``grow``."""
    found = []
    for n in weights:
        for xi in strict_partitions(n):
            for mu in partitions(n):
                value = kostka(xi, mu)
                names = cell_failures(xi, mu, value)
                if xi and xi[0] == mu[0] and value != 2 * kostka(xi[1:], mu[1:]):
                    names.append("leading-block factor 2")
                found += ["%s: xi=%r mu=%r" % (name, xi, mu) for name in names]
    for n in stable_weights:
        for xi in strict_partitions(n):
            xi2 = xi[1] if len(xi) > 1 else 0
            for mu in partitions(n):
                if mu[0] <= xi2:
                    continue
                base = kostka(xi, mu)
                for r in grow:
                    if kostka((xi[0] + r,) + xi[1:], (mu[0] + r,) + mu[1:]) != base:
                        found.append("stability r=%d: xi=%r mu=%r" % (r, xi, mu))
    return found
