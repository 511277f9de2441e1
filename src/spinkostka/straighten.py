"""Straightening of Hall-Littlewood operator words applied to the vacuum.

``straighten_to_vacuum`` rewrites H_{nu_1}...H_{nu_r}.1 (nu an arbitrary
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
the K^- engine consumes them; it reads the move coefficients from a packed
table built from ``step_coeff``.  It also keeps, per word, the bound N(nu)
on the L1 norm of each coefficient, and ``straighten_to_vacuum`` decodes to
``LaurentPoly`` only when that bound fits the slot.
"""

from __future__ import annotations

from functools import lru_cache

from .polynomial import SLOT_BITS, SLOT_LIMIT, LaurentPoly, T, decode, encode


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
    """(packed step_coeff(gap, a), its L1 norm) for a = 0..gap//2."""
    moves = []
    for a in range(gap // 2 + 1):
        step = step_coeff(gap, a)
        moves.append((encode(step), sum(map(abs, step.coefficients()))))
    return tuple(moves)


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
        self._norms = {}  # word -> N(word), see polynomial.SLOT_BITS

    def straighten(self, nu):
        nu = tuple(nu)
        hit = self._memo.get(nu)
        if hit is not None:
            return hit
        result, self._norms[nu] = self._compute(nu)
        self._memo[nu] = result
        return result

    def _compute(self, nu):
        """(packed result, N(nu))."""
        stripped = _normalize(nu)
        if stripped is None:
            return {}, 0
        if stripped != nu:
            return self.straighten(stripped), self._norms[stripped]
        i = _leftmost_ascent(nu)
        if i is None:
            # weakly decreasing; entries are positive after normalization
            return {nu: 1}, 1
        lo, hi = nu[i], nu[i + 1]
        head, tail = nu[:i], nu[i + 2:]
        acc = {}
        norm = 0
        for a, (step, size) in enumerate(_packed_moves(hi - lo)):
            child = head + (hi - a, lo + a) + tail
            for lam, c in self.straighten(child).items():
                acc[lam] = acc.get(lam, 0) + step * c
            norm += size * self._norms[child]
        return {lam: c for lam, c in acc.items() if c}, norm


def straighten_to_vacuum(nu):
    """{lam: LaurentPoly} for a list or tuple of ints, by a one-shot
    :class:`Straightener`; anything else raises ``ValueError``.  So does a
    word whose rewrite chain outgrows the recursion limit: at the default
    1000, from top level, ``(0,)*248 + (1,)`` straightens and
    ``(0,)*249 + (1,)`` does not.  So does a word whose coefficient bound
    N(nu) is not below 2^(SLOT_BITS - 1)."""
    word = tuple(nu) if isinstance(nu, (list, tuple)) else (None,)
    if not {int}.issuperset(map(type, word)):
        raise ValueError("nu must be a vector of ints, got %r" % (nu,))
    straightener = Straightener()
    try:
        packed = straightener.straighten(word)
    except RecursionError:
        raise ValueError("nu=%r rewrites deeper than the recursion limit" % (word,)) from None
    if straightener._norms[word] >= SLOT_LIMIT:
        raise ValueError(
            "nu=%r: coefficients may reach %d, past the %d-bit slot"
            % (word, straightener._norms[word], SLOT_BITS)
        )
    return {lam: decode(c) for lam, c in packed.items()}
