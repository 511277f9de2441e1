"""Stembridge coefficients and related counting formulas.

b_{xi,lam} is the coefficient of the Schur function s_lam in the Schur
Q-function Q_xi; g_{xi,lam} = b_{xi,lam} / 2^l(xi).  The recursion peels
the largest part of lam and sums over vertical-strip subshapes of the
remaining rows, on the wide one of lam and its conjugate (see ``b_coeff``);
a one-row xi reaches the hook rule in one step.  Closed forms: the
vertical-strip counts N^(s), the two-row formula, and the square-shape
expansion of the Schur P-function at t = -1 (Aokage's values on hooks).
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import (
    ShapeKind,
    _conjugate,
    _is_hook,
    as_partition,
    classify_shape,
    vertical_strip_subshapes,
)


def b_coeff(xi, lam):
    """Coefficient of s_lam in Q_xi, xi strict (``as_partition``); 0 if weights
    differ.

    The conjugate fold: Q_xi is invariant under the involution omega, since
    its generating function E(u)H(u) is symmetric in E and H, and omega
    s_lam = s_lam' (Macdonald, Symmetric Functions and Hall Polynomials,
    III 8); so b_{xi,lam} = b_{xi,lam'}.  A tall lam (l(lam) > lam_1) is
    folded onto its wide conjugate before the ``_b`` lookup, so a conjugate
    pair shares one cache entry; ``_conjugate`` is cached, so the fold is a
    lookup too.  ``_b`` folds each tall subshape it meets after its own
    lookup, so that one keeps an entry beside its conjugate's.  The
    recursion runs on the wide shape: fewer parts of xi reach lam_1, and
    fewer rows are left to strip."""
    xi = as_partition(xi, "xi", strict=True)
    lam = as_partition(lam, "lam")
    if lam and lam[0] < len(lam):
        lam = _conjugate(lam)
    return _b(xi, lam)


@lru_cache(maxsize=None)
def _b(xi, lam):
    """b_coeff on tuples, by the vertical-strip recursion on the wide one of
    lam and its conjugate (the fold is set out at ``b_coeff``)."""
    if sum(xi) != sum(lam):
        return 0
    if not xi:
        return 1
    if lam[0] < len(lam):
        return _b(xi, _conjugate(lam))
    lam1, rest = lam[0], lam[1:]
    total = 0
    for i, part in enumerate(xi):
        if part < lam1:
            break
        sign = -1 if i % 2 else 1
        xi_hat = xi[:i] + xi[i + 1:]
        for rho in vertical_strip_subshapes(rest, part - lam1):
            total += sign * 2 * _b(xi_hat, rho)
    return total


def g_coeff(xi, lam):
    """g = b / 2^l(xi) for b_coeff's arguments; exact by construction."""
    b = b_coeff(xi, lam)
    q, r = divmod(b, 2 ** len(xi))
    if r:
        raise ArithmeticError("b_coeff %d not divisible by 2^%d" % (b, len(xi)))
    return q


def count_Ns(lam, s, brute_force=False):
    """Number of hook subshapes rho of lam^(1) (lam minus its first row)
    with lam^(1)/rho a vertical s-strip; lam a partition (``as_partition``)
    and s an int."""
    lam = as_partition(lam, "lam")
    if type(s) is not int:
        raise ValueError("s must be an int, got %r" % (s,))
    if brute_force:
        return sum(1 for rho in vertical_strip_subshapes(lam[1:], s) if _is_hook(rho))
    shape = classify_shape(lam)
    if shape.kind is ShapeKind.OTHER:
        return 0
    rest_weight = sum(lam[1:])
    if s < 0 or s > rest_weight:
        return 0
    if shape.kind is ShapeKind.HOOK:
        return 1
    m2, m1 = shape.m2, shape.m1
    if s <= m2 - 1 or s >= m1 + m2 + 2:
        return 0
    if s == m2 or s == m1 + m2 + 1:
        return 1
    return 2


def b_two_row(n, m, lam):
    """b_{(n-m,m),lam} for ints 1 <= m < n/2 via the N^(s) counts; lam a
    partition of n (``as_partition``)."""
    lam = as_partition(lam, "lam")
    if type(n) is not int or type(m) is not int or not (1 <= m and 2 * m < n):
        raise ValueError("need ints n and m with 1 <= m < n/2, got n=%r m=%r" % (n, m))
    if sum(lam) != n:
        raise ValueError("lam must have weight n, got lam=%r n=%r" % (lam, n))
    lam1 = lam[0]
    return 4 * (count_Ns(lam, n - m - lam1) - count_Ns(lam, m - lam1))


def g_square(r, lam):
    """g_{(r,r),lam}: coefficient of s_lam in the Schur P-function of the
    square shape at t = -1, by the closed forms; r an int, lam a partition."""
    lam = as_partition(lam, "lam")
    if type(r) is not int or r < 1 or sum(lam) != 2 * r:
        raise ValueError("need an int r >= 1 and |lam| = 2r, got r=%r lam=%r" % (r, lam))
    shape = classify_shape(lam)
    if shape.kind is ShapeKind.OTHER:
        return 0
    if shape.kind is ShapeKind.HOOK:
        if shape.m1 < r:
            return 0
        return -1 if (r + shape.m1) % 2 else 1
    if shape.lam2 + shape.m1 - 1 <= shape.lam1 <= shape.lam2 + shape.m1 + 1:
        return 1
    return 0
