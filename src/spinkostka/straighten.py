"""Straightening of Hall-Littlewood operator words applied to the vacuum.

``Straightener.straighten`` rewrites H_{nu_1}...H_{nu_r}.1 (nu an arbitrary
integer vector) into the basis {H_lam.1 : lam a partition}.  It works tail
first:

* () is the vacuum, and a word of negative weight is 0:
  H_{nu_1}...H_{nu_r}.1 is homogeneous of degree nu_1 + ... + nu_r;
* otherwise nu[1:] is straightened first, and nu_1 meets each partition rho
  of the result.  If rho is empty or nu_1 >= rho_1, (nu_1,) + rho is a
  basis word (H_0.1 = 1 drops a zero head);
* else (nu_1, rho_1) is an ascent with gap g = rho_1 - nu_1, replaced by
  the sum over a = 0..g//2 of a quadratic-relation coefficient times
  (rho_1 - a, nu_1 + a) + rho[1:]: the word (nu_1 + a,) + rho[1:] is
  straightened to partitions sigma, and then each (rho_1 - a,) + sigma.

So the memo holds words (y,) + partition, which every prefix of a word
shares.  Termination: the tail is a shorter word, and a word with a
negative suffix sum is 0 through its tails before any move.  On the other
words the statistic sum(i * nu_i), the sum of the suffix sums, is >= 0;
a rewrite at an ascent (x, x+g) lowers it by g - a > 0, and dropping zeros
or a zero head leaves it.  The word (rho_1 - a,) + sigma is reached from nu
by rewrites in the tail, the move at position 0 and rewrites in the tail
again, so its statistic is strictly lower than nu's.

The tests check the result against a separate reference straightener
(leftmost or rightmost ascent first, primitive two-term relation) and the
vertex-operator oracle.

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
        raise ValueError("gap must be positive, got gap=%r" % (gap,))
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


class Straightener:
    """Memoizing straightener: tail first, closed-form move coefficients.
    ``straighten`` returns {lam: packed coefficient}."""

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
        if not nu:
            return {(): 1}
        if sum(nu) < 0:
            return {}
        head = nu[0]
        acc = {}
        for rho, c in self.straighten(nu[1:]).items():
            if not rho or head >= rho[0]:
                lam = (head,) + rho if head else rho
                acc[lam] = acc.get(lam, 0) + c
                continue
            top, low = rho[0], rho[1:]
            for a, step in enumerate(_packed_moves(top - head)):
                for sigma, d in self.straighten((head + a,) + low).items():
                    scale = step * c * d
                    for lam, e in self.straighten((top - a,) + sigma).items():
                        acc[lam] = acc.get(lam, 0) + scale * e
        return {lam: c for lam, c in acc.items() if c}
