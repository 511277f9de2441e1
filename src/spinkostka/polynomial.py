"""Exact univariate arithmetic in t.

Two coefficient domains live here:

* ``LaurentPoly`` -- sparse Laurent polynomials in t with arbitrary-precision
  integer coefficients.  This is the value domain of every final output
  (spin Kostka polynomials, straightening coefficients, t-brackets).
* ``RatFunc`` -- reduced ratios of rational-coefficient polynomials in t,
  the coefficient field used by the power-sum expansions of the oracle.

Both types are immutable value objects; arithmetic always returns fresh
canonical instances.
"""

from __future__ import annotations

from fractions import Fraction


class InexactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a pole."""


class LaurentPoly:
    """Sparse Laurent polynomial in t over the integers.

    Stored as a map exponent -> nonzero integer coefficient; the canonical
    form is unique, so ``==`` and ``hash`` are structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError("LaurentPoly coefficients must be int, got %r" % (c,))
                if c:
                    clean[int(e)] = clean.get(int(e), 0) + c
                    if not clean[int(e)]:
                        del clean[int(e)]
        self._terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls({0: c})

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
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n):
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
        return _raw({e + d: c for e, c in self._terms.items()})

    def exact_div(self, divisor):
        """Exact division; raises InexactDivisionError on any remainder."""
        divisor = _as_laurent(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return ZERO
        sv, dv = self.valuation(), divisor.valuation()
        num = _dense(self)
        den = _dense(divisor)
        quot = [Fraction(0)] * (len(num) - len(den) + 1)
        if len(quot) <= 0:
            raise InexactDivisionError("degree of dividend below divisor")
        lead = den[-1]
        for i in range(len(quot) - 1, -1, -1):
            q = num[i + len(den) - 1] / lead
            quot[i] = q
            if q:
                for j, d in enumerate(den):
                    num[i + j] -= q * d
        if any(num[: len(den) - 1]):
            raise InexactDivisionError("inexact polynomial division")
        out = {}
        for i, q in enumerate(quot):
            if q:
                if q.denominator != 1:
                    raise InexactDivisionError("non-integer quotient coefficient")
                out[i + sv - dv] = int(q)
        return _raw(out)

    # -- queries used by the engine and CLI -----------------------------

    def eval_at(self, t0):
        t0 = Fraction(t0)
        total = Fraction(0)
        for e, c in self._terms.items():
            total += c * t0 ** e
        return total

    def subs_neg_t(self):
        """Substitute t -> -t."""
        return _raw({e: (c if e % 2 == 0 else -c) for e, c in self._terms.items()})

    def is_palindromic(self):
        """True iff t**m * a(1/t) == a(t) for some integer m."""
        if not self._terms:
            return True
        lo, hi = self.valuation(), self.degree()
        seq = [self._terms.get(e, 0) for e in range(lo, hi + 1)]
        return seq == seq[::-1]

    # -- canonical identity ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- rendering -------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                tpow = "t" if e == 1 else "t^%d" % e
                body = tpow if abs(c) == 1 else "%d*%s" % (abs(c), tpow)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "LaurentPoly(%s)" % self

    def to_json(self):
        return {str(e): c for e, c in sorted(self._terms.items())}

    @classmethod
    def from_json(cls, data):
        return cls({int(e): int(c) for e, c in data.items()})


def _raw(terms):
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = terms
    return p


def _as_laurent(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError("cannot coerce %r to LaurentPoly" % (x,))


def _dense(p):
    lo, hi = p.valuation(), p.degree()
    return [Fraction(p.coeff(e)) for e in range(lo, hi + 1)]


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
T = LaurentPoly.term(1, 1)


# -- t-brackets ---------------------------------------------------------


def t_int(n):
    """[n] = 1 + t + ... + t^(n-1)."""
    if n < 0:
        raise ValueError("t-integer needs n >= 0")
    return _raw({e: 1 for e in range(n)}) if n else ZERO


def t_factorial(n):
    out = ONE
    for k in range(2, n + 1):
        out = out * t_int(k)
    return out


def t_double_factorial(n):
    """[n]!! = [n][n-2]... down to [1] or [2]."""
    out = ONE
    k = n
    while k >= 1:
        out = out * t_int(k)
        k -= 2
    return out


def t_binomial(n, k):
    """Gauss t-binomial [n]! / ([k]! [n-k]!); the division is always exact."""
    if not 0 <= k <= n:
        raise ValueError("t-binomial needs 0 <= k <= n")
    return t_factorial(n).exact_div(t_factorial(k) * t_factorial(n - k))


# -- polynomials over Q (internal to RatFunc) ---------------------------


class QPoly:
    """Dense polynomial over Q, coefficients low-to-high, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, coeff, exp):
        return cls([0] * exp + [coeff])

    @classmethod
    def _raw(cls, coeffs):
        """Internal constructor: coeffs already Fractions, trims in place."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        obj = cls.__new__(cls)
        obj.coeffs = tuple(coeffs)
        return obj

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def leading(self):
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly._raw(out)

    def __neg__(self):
        return QPoly._raw([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Q_ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly._raw(out)

    def scale(self, c):
        return QPoly._raw([a * c for a in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        if len(rem) < dlen:
            return Q_ZERO, self
        quot = [Fraction(0)] * (len(rem) - dlen + 1)
        lead = other.coeffs[-1]
        for i in range(len(quot) - 1, -1, -1):
            q = rem[i + dlen - 1] / lead
            quot[i] = q
            if q:
                for j, d in enumerate(other.coeffs):
                    rem[i + j] -= q * d
        return QPoly._raw(quot), QPoly._raw(rem[: dlen - 1])

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def eval(self, t0):
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * t0 + c
        return total

    def subs_neg_t(self):
        return QPoly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "QPoly(%r)" % (self.coeffs,)


Q_ZERO = QPoly([])
Q_ONE = QPoly([1])


def qpoly_gcd(a, b):
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r.monic() if not r.is_zero() else r
    return a.monic()


class RatFunc:
    """Reduced ratio of QPolys; denominator monic and coprime to numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Q_ONE):
        if not isinstance(num, QPoly):
            num = QPoly.monomial(Fraction(num), 0)
        if not isinstance(den, QPoly):
            den = QPoly.monomial(Fraction(den), 0)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Q_ZERO, Q_ONE
            return
        # constant numerator or denominator: gcd is trivially constant
        if den.degree() == 0:
            lead = den.coeffs[0]
            self.num = num if lead == 1 else num.scale(1 / lead)
            self.den = Q_ONE
            return
        if num.degree() > 0:
            g = qpoly_gcd(num, den)
            if g.degree() > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
        lead = den.leading()
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num, self.den = num, den

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_laurent(cls, p):
        shift = 0
        if not p.is_zero():
            shift = max(0, -p.valuation())
        num = [Fraction(0)] * (shift + (0 if p.is_zero() else p.degree() + 1))
        for e, c in p.terms.items():
            num[e + shift] = Fraction(c)
        return cls(QPoly(num), QPoly.monomial(1, shift))

    # -- queries --------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def eval_at(self, t0):
        t0 = Fraction(t0)
        d = self.den.eval(t0)
        if not d:
            raise PoleError("pole at t = %s" % t0)
        return self.num.eval(t0) / d

    def subs_neg_t(self):
        return RatFunc(self.num.subs_neg_t(), self.den.subs_neg_t())

    def to_laurent(self):
        """Coerce to an integer Laurent polynomial; the reduced denominator
        must be a power of t and all coefficients integers."""
        if self.is_zero():
            return ZERO
        if any(self.den.coeffs[:-1]):
            raise InexactDivisionError("denominator %r is not a power of t" % (self.den,))
        shift = self.den.degree()
        out = {}
        for i, c in enumerate(self.num.coeffs):
            if c:
                if c.denominator != 1:
                    raise InexactDivisionError("non-integer coefficient %s" % c)
                out[i - shift] = int(c)
        return _raw(out)

    def to_fraction(self):
        if self.den != Q_ONE or self.num.degree() > 0:
            raise InexactDivisionError("not a constant: %r" % self)
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _as_ratfunc(other)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other):
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        try:
            other = _as_ratfunc(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "RatFunc(%r, %r)" % (self.num.coeffs, self.den.coeffs)


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc(QPoly.monomial(Fraction(x), 0))
    if isinstance(x, LaurentPoly):
        return RatFunc.from_laurent(x)
    raise TypeError("cannot coerce %r to RatFunc" % (x,))


RF_ZERO = RatFunc(Q_ZERO)
RF_ONE = RatFunc(Q_ONE)
