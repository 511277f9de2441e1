"""Straightening of Hall-Littlewood operator words applied to the vacuum.

``Straightener.straighten`` rewrites H_{nu_1}...H_{nu_r}.1 (nu an arbitrary
integer vector) into the basis {H_lam.1 : lam a partition}.  The rules:

* a trailing zero entry drops (H_0.1 = 1);
* a negative suffix sum annihilates the whole term: H_{nu_j}...H_{nu_r}.1
  is homogeneous of degree nu_j + ... + nu_r, so it is 0 when that is
  negative;
* at an ascent nu_i < nu_{i+1} with gap g = nu_{i+1} - nu_i, the pair is
  replaced by sum over a = 0..g//2 of a quadratic-relation coefficient
  times the pair (nu_{i+1} - a, nu_i + a).

The leftmost ascent is rewritten first.  The statistic sum(i * nu_i)
strictly decreases at every rewrite, so the procedure terminates.  The
tests check the result against a separate reference straightener (other
ascent order, primitive two-term relation) and the vertex-operator oracle.

Every coefficient that arises is a polynomial in t with exponents >= 0.
``Straightener.straighten`` returns them packed (``polynomial.encode``), as
the K^- engine consumes them, and reads the move coefficients from a packed
table built from ``step_coeff``.
"""

from __future__ import annotations

from functools import lru_cache

from .polynomial import LaurentPoly, T, encode


def step_coeff(gap, a):
    """Coefficient of the move sending (x, x+gap) to (x+gap-a, x+a)."""
    if gap <= 0:
        raise ValueError("gap must be positive")
    if not 0 <= a <= gap // 2:
        raise ValueError("move amount a=%d out of range for gap=%d" % (a, gap))
    if a == 0:
        return T
    if a < gap // 2:
        return LaurentPoly({a + 1: 1, a - 1: -1})
    epsilon = gap % 2
    return LaurentPoly({a + epsilon: 1, a - 1: -1})


@lru_cache(maxsize=None)
def _packed_moves(gap):
    """Packed step_coeff(gap, a) for a = 0..gap//2."""
    return tuple(encode(step_coeff(gap, a)) for a in range(gap // 2 + 1))


def _normalize(nu):
    """Strip trailing zeros; None signals an annihilated term (a negative
    suffix sum)."""
    i = len(nu)
    while i and nu[i - 1] == 0:
        i -= 1
    total = 0
    for j in range(i - 1, -1, -1):
        total += nu[j]
        if total < 0:
            return None
    return nu[:i]


def _leftmost_ascent(nu):
    for i in range(len(nu) - 1):
        if nu[i] < nu[i + 1]:
            return i
    return None


class Straightener:
    """Memoizing straightener: leftmost ascent first, closed-form move
    coefficients.  ``straighten`` returns {lam: packed coefficient}."""

    def __init__(self):
        self._memo = {}

    def straighten(self, nu):
        nu = tuple(nu)
        hit = self._memo.get(nu)
        if hit is not None:
            return hit
        result = self._memo[nu] = self._compute(nu)
        return result

    def _compute(self, nu):
        stripped = _normalize(nu)
        if stripped is None:
            return {}
        if stripped != nu:
            return self.straighten(stripped)
        i = _leftmost_ascent(nu)
        if i is None:
            # weakly decreasing; entries are positive after normalization
            return {nu: 1}
        lo, hi = nu[i], nu[i + 1]
        head, tail = nu[:i], nu[i + 2:]
        acc = {}
        for a, step in enumerate(_packed_moves(hi - lo)):
            child = head + (hi - a, lo + a) + tail
            for lam, c in self.straighten(child).items():
                acc[lam] = acc.get(lam, 0) + step * c
        return {lam: c for lam, c in acc.items() if c}

