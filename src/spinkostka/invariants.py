"""Structural invariants of the spin Kostka polynomials K^-_{xi,mu}(t): per
cell (``cell_failures``), and across cells the leading-block factor and
stability (``failures``).  ``verify --suite properties``, the acceptance
tests and ``SpinKostkaEngine.load_cache`` all check through this module."""

from __future__ import annotations

from .partitions import (
    dominates,
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
    divisible by 2^l(xi), takes 2^l(xi) delta_{xi,mu} at t = -1 and b_{xi,mu}
    at t = 0 (as K_{lam,mu}(0) = delta_{lam,mu}), is the constant 2^l(xi) on
    the diagonal, and has its exponents in 0..n(mu)."""
    if not (is_strict_partition(xi) and is_partition(mu) and sum(xi) == sum(mu)):
        return ["not a cell: xi strict, mu a partition, equal weights"]
    terms = value.terms
    if not dominates(xi, mu):
        return ["vanishing unless xi dominates mu"] if terms else []
    scale = 2 ** len(xi)
    found = []
    if any(c % scale for c in terms.values()):
        found.append("divisibility by 2^l(xi)")
    if sum(-c if e % 2 else c for e, c in terms.items()) != (scale if xi == mu else 0):
        found.append("value 2^l(xi) delta at t = -1")
    if terms.get(0, 0) != b_coeff(xi, mu):
        found.append("value b_{xi,mu} at t = 0")
    if xi == mu and value != LaurentPoly.const(scale):
        found.append("diagonal value 2^l(xi)")
    if terms and (min(terms) < 0 or max(terms) > n_stat(mu)):
        found.append("degree at most n(mu)")
    return found


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
