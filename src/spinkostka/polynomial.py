"""Exact univariate arithmetic in t.

* ``LaurentPoly`` -- sparse Laurent polynomials in t with arbitrary-precision
  integer coefficients: the value domain of every output.
* ``RatFunc`` -- the oracle's scalars in Q[t, 1/t]; its role is set out at
  the class.
* ``encode``/``decode`` -- the packed int p(2^64) that the K^- engine and
  the straightener compute with; the slot width and why it suffices are set
  out at ``SLOT_BITS``.
* The t-brackets [n], [n]!, [n]!! and the Gauss binomials.

``LaurentPoly`` and ``RatFunc`` are immutable and canonical; arithmetic
returns fresh instances.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class InexactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class LaurentPoly:
    """Sparse Laurent polynomial in t over the integers.

    Stored as a map exponent -> nonzero integer coefficient; the canonical
    form is unique, so ``==`` and ``hash`` are structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms is not None:
            if not isinstance(terms, dict):
                raise TypeError("LaurentPoly terms must be a dict, got %r" % (terms,))
            for e, c in terms.items():
                if type(e) is not int:
                    raise TypeError("LaurentPoly exponents must be int, got %r" % (e,))
                if type(c) is not int:
                    raise TypeError("LaurentPoly coefficients must be int, got %r" % (c,))
                if c:
                    clean[e] = c
        self._terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, c):
        if type(c) is not int:
            raise TypeError("LaurentPoly coefficients must be int, got %r" % (c,))
        return _raw({0: c} if c else {})

    @classmethod
    def term(cls, coeff, exp):
        return cls({exp: coeff})

    # -- basic queries --------------------------------------------------

    @property
    def terms(self):
        return dict(self._terms)

    def is_zero(self):
        return not self._terms

    def degree(self):
        if not self._terms:
            raise ValueError("degree undefined on zero")
        return max(self._terms)

    def valuation(self):
        if not self._terms:
            raise ValueError("valuation undefined on zero")
        return min(self._terms)

    def coeff(self, exp):
        return self._terms.get(exp, 0)

    def coefficients(self):
        return list(self._terms.values())

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _as_laurent(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_as_laurent(other))

    def __rsub__(self, other):
        return _as_laurent(other) + (-self)

    def __mul__(self, other):
        other = _as_laurent(other)
        small, large = self._terms, other._terms
        if len(small) > len(large):
            small, large = large, small
        if len(small) == 1:
            # a product of nonzero ints is nonzero: no cancellation to undo
            ((e1, c1),) = small.items()
            return _raw({e1 + e: c1 * c for e, c in large.items()})
        out = {}
        _add_products(out, small.items(), large.items())
        return _raw({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if type(n) is not int:
            raise TypeError("LaurentPoly power must be an int, got %r" % (n,))
        if n < 0:
            raise ValueError("negative power of a LaurentPoly")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, d):
        """Multiply by t**d (d may be negative)."""
        if type(d) is not int:
            raise TypeError("LaurentPoly shift must be an int, got %r" % (d,))
        return _raw({e + d: c for e, c in self._terms.items()})

    def exact_div(self, divisor):
        """Exact division; raises InexactDivisionError on any remainder.

        Integer long division.  A quotient in Z[t, 1/t] has integer
        coefficients at every step, so a step whose coefficient is not a
        multiple of the divisor's leading coefficient proves there is none."""
        divisor = _as_laurent(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return ZERO
        sv, dv = self.valuation(), divisor.valuation()
        num = _dense(self)
        den = _dense(divisor)
        top = len(den) - 1
        if len(num) <= top:
            raise InexactDivisionError("degree of dividend below divisor")
        lead = den[-1]
        out = {}
        for i in range(len(num) - len(den), -1, -1):
            q, r = divmod(num[i + top], lead)
            if r:
                raise InexactDivisionError("non-integer quotient coefficient")
            if q:
                out[i + sv - dv] = q
                for j, d in enumerate(den):
                    num[i + j] -= q * d
        if any(num[:top]):
            raise InexactDivisionError("inexact polynomial division")
        return _raw(out)

    # -- queries used by the engine and CLI -----------------------------

    def eval_at(self, t0):
        """The value at t0 as a ``Fraction``.  At an int t0 with no negative
        exponent the sum is taken in ints; t0 ** e for e < 0 would be a
        float, so negative exponents stay on the ``Fraction`` path."""
        terms = self._terms
        if type(t0) is int and all(e >= 0 for e in terms):
            return Fraction(sum(c * t0 ** e for e, c in terms.items()))
        t0 = Fraction(t0)
        total = Fraction(0)
        for e, c in terms.items():
            total += c * t0 ** e
        return total

    def subs_neg_t(self):
        """Substitute t -> -t."""
        return _raw({e: (c if e % 2 == 0 else -c) for e, c in self._terms.items()})

    # -- canonical identity ---------------------------------------------

    def __eq__(self, other):
        if type(other) is int:
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant equals its int, so it hashes as that int (ZERO as 0)
        terms = self._terms
        if terms.keys() <= {0}:
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- rendering -------------------------------------------------------

    def __str__(self):
        terms = self._terms
        if not terms:
            return "0"
        words = []
        for e in sorted(terms, reverse=True):
            c = terms[e]
            if e == 0:
                words.append("%d" % c)
            elif e == 1:
                words.append("t" if c == 1 else "-t" if c == -1 else "%d*t" % c)
            else:
                words.append("t^%d" % e if c == 1 else "-t^%d" % e if c == -1 else "%d*t^%d" % (c, e))
        # a word carries a sign only when negative, so "+ -" marks each negative term
        return " + ".join(words).replace("+ -", "- ")

    def __repr__(self):
        return "LaurentPoly(%s)" % self

    def to_json(self):
        return {str(e): c for e, c in sorted(self._terms.items())}


def _raw(terms):
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = terms
    return p


def _add_products(acc, x, y):
    """acc += x * y for numerators x and y given as (exponent, int) pairs,
    into acc, a dict exponent -> int that may keep zero sums."""
    get = acc.get
    if len(y) == 1:
        ((e2, c2),) = y
        for e1, c1 in x:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
        return
    for e1, c1 in x:
        for e2, c2 in y:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _as_laurent(x):
    if isinstance(x, LaurentPoly):
        return x
    if type(x) is int:
        return LaurentPoly.const(x)
    raise TypeError("cannot coerce %r to LaurentPoly" % (x,))


def _dense(p):
    lo, hi = p.valuation(), p.degree()
    return [p._terms.get(e, 0) for e in range(lo, hi + 1)]


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
T = LaurentPoly.term(1, 1)


# -- packed coefficients --------------------------------------------------

# The K^- engine and the straightener keep a polynomial p(t) with exponents
# >= 0 as the one int p(2^SLOT_BITS) (Kronecker substitution): a sum is +,
# a product is *, t^d is << SLOT_BITS*d and (1+t)c is c + (c << SLOT_BITS).
#
# No overflow check is needed while they compute.  t -> 2^SLOT_BITS is a
# ring homomorphism Z[t] -> Z and Python ints are exact, so every packed
# value is exactly the packed image of the polynomial it stands for, however
# large its coefficients grow on the way.  Only ``decode`` needs a bound: it
# reads the balanced base-2^SLOT_BITS digits of the int, which are the
# coefficients exactly when each has absolute value below SLOT_LIMIT.
# Its one caller, the engine's answer for a cell, proves that bound first.
# K^-_{xi,mu}(t) = sum_lam b_{xi,lam} K_{lam,mu}(t) with every b >= 0 and
# every K_{lam,mu}(t) in N[t].  So its coefficients are >= 0 and each is at
# most K^-_{xi,mu}(1) = sum_lam b_{xi,lam} K_{lam,mu}
# <= sum_lam b_{xi,lam} f^lam = K^-_{xi,1^n}(1) = 2^n g^xi.  The last two
# both count the coefficient of x_1...x_n in Q_xi = sum_lam b_{xi,lam} s_lam:
# the marked standard shifted tableaux of shape xi, 2^n for each of the g^xi
# unmarked ones (``partitions.shifted_tableaux_count``).  ``SpinKostkaEngine``
# refuses a cell whose 2^n g^xi is not below SLOT_LIMIT before computing it;
# every cell of weight <= 27 fits.
SLOT_BITS = 64
SLOT_LIMIT = 1 << (SLOT_BITS - 1)
_SLOT = 1 << SLOT_BITS
_SLOT_MASK = _SLOT - 1


def encode(p):
    """The packed int p(2^SLOT_BITS) of a ``LaurentPoly`` p; ``ValueError``
    on a negative exponent, which the packed form cannot hold."""
    v = 0
    for e, c in p._terms.items():
        if e < 0:
            raise ValueError("cannot pack %s: an exponent is negative" % p)
        v += c << (SLOT_BITS * e)
    return v


def decode(v):
    """The ``LaurentPoly`` whose packed int is v, given that each of its
    coefficients has absolute value below SLOT_LIMIT (see ``SLOT_BITS``)."""
    terms = {}
    e = 0
    while v:
        c = v & _SLOT_MASK
        v >>= SLOT_BITS
        if c:
            if c >= SLOT_LIMIT:
                # a negative digit borrows one from the slots above it
                c -= _SLOT
                v += 1
            terms[e] = c
        e += 1
    return _raw(terms)


# -- t-brackets ---------------------------------------------------------


def _count(name, n):
    """Each t-bracket takes ints >= 0: ``ValueError`` naming the argument on
    anything else, a bool included."""
    if type(n) is not int or n < 0:
        raise ValueError("%s must be an int >= 0, got %r" % (name, n))


def t_int(n):
    """[n] = 1 + t + ... + t^(n-1)."""
    _count("n", n)
    return _raw({e: 1 for e in range(n)}) if n else ZERO


def t_factorial(n):
    _count("n", n)
    out = ONE
    for k in range(2, n + 1):
        out = out * t_int(k)
    return out


def t_double_factorial(n):
    """[n]!! = [n][n-2]... down to [1] or [2]."""
    _count("n", n)
    out = ONE
    k = n
    while k >= 1:
        out = out * t_int(k)
        k -= 2
    return out


def t_binomial(n, k):
    """Gauss t-binomial [n]! / ([k]! [n-k]!), built as the product over
    i <= min(k, n - k) of (1 - t^(n-i+1)) / (1 - t^i); each partial product
    is the t-binomial [n, i], so every division is exact."""
    _count("n", n)
    _count("k", k)
    if k > n:
        raise ValueError("t-binomial needs k <= n, got n=%d k=%d" % (n, k))
    out = ONE
    for i in range(1, min(k, n - k) + 1):
        out = _over_one_minus_tn(out * _one_minus_tn(n - i + 1), i)
    return out


def _one_minus_tn(n):
    return _raw({0: 1, n: -1})


def _over_one_minus_tn(p, n):
    """p / (1 - t^n), else ``InexactDivisionError``: the quotient q satisfies
    q_e = p_e + q_(e-n), so it is a running sum along each residue class of
    exponents mod n, and it divides exactly when every sum ends at zero."""
    terms, q = p._terms, {}
    lo, hi = p.valuation(), p.degree()
    for r in range(lo, lo + n):
        acc = 0
        for e in range(r, hi + 1, n):
            acc += terms.get(e, 0)
            if acc:
                q[e] = acc
        if acc:
            raise InexactDivisionError("1 - t^%d leaves a remainder" % n)
    return _raw(q)


# -- rational functions for the oracle --------------------------------------


def _scale(p, k):
    return p if k == 1 else _raw({e: c * k for e, c in p._terms.items()})


class RatFunc:
    """num / den in Q[t, 1/t], the oracle's scalar: ``num`` an integer
    ``LaurentPoly``, ``den`` a positive int prime to its content, so each
    value has one form and ``==`` compares the parts.  Not hashable.

    It holds the oracle's operator sequence values, from which the term
    tables are built, and the pairing results.  The oracle's vectors hold
    integer numerators over one int denominator of their own, so no
    ``RatFunc`` arithmetic runs per vector coefficient.  It is fraction-free
    and takes no polynomial gcd: the operator coefficients lie in this ring,
    and the oracle pairs only under the Hall form, whose Gram values are
    integers, so no 1 - t^n ever reaches a denominator.  It keeps only what
    the oracle, the tests' term-by-term references and ``perfbench/tracer.py``
    use: the constructor, ``+``, ``*``, ``==``, truth, ``to_laurent``,
    ``RF_ZERO`` and ``RF_ONE``; a caller reads ``num`` and ``den`` for
    anything else.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        """num / den: ``num`` an int or a ``LaurentPoly``, ``den`` a nonzero int."""
        if type(den) is not int:
            raise TypeError("RatFunc denominator must be int, got %r" % (den,))
        if not den:
            raise ZeroDivisionError("zero denominator")
        made = _ratfunc(_as_laurent(num), den)
        self.num, self.den = made.num, made.den

    # -- queries --------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def to_laurent(self):
        """Coerce to an integer Laurent polynomial."""
        if self.den != 1:
            raise InexactDivisionError("not an integer Laurent polynomial: %r" % (self,))
        return self.num

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _as_ratfunc(other)
        if not other.num:
            return self
        if not self.num:
            return other
        den = lcm(self.den, other.den)
        return _ratfunc(_scale(self.num, den // self.den) + _scale(other.num, den // other.den), den)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        return _ratfunc(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        try:
            other = _as_ratfunc(other)
        except TypeError:
            return NotImplemented
        # both contents are prime to their denominators
        return self.den == other.den and self.num == other.num

    __hash__ = None

    def __repr__(self):
        return "RatFunc(%r, %d)" % (self.num, self.den)


def _ratfunc(num, den):
    """A RatFunc from a LaurentPoly and a nonzero int, with the common
    content of ``num`` and ``den`` divided out (0 as 0 / 1: gcd(den) = |den|)."""
    if den < 0:
        num, den = -num, -den
    if den != 1:
        g = gcd(den, *num._terms.values())
        if g != 1:
            num, den = _raw({e: c // g for e, c in num._terms.items()}), den // g
    return _made(num, den)


def _made(num, den):
    """A RatFunc from parts already in canonical form (0 as 0 / 1)."""
    rf = RatFunc.__new__(RatFunc)
    rf.num, rf.den = num, den
    return rf


def _as_ratfunc(x):
    return x if isinstance(x, RatFunc) else _made(_as_laurent(x), 1)


RF_ZERO = RatFunc()
RF_ONE = RatFunc(1)
