"""Exact polynomial and rational-function arithmetic."""

import math
import random
import re
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinkostka.polynomial import (
    InexactDivisionError,
    LaurentPoly,
    ONE,
    RatFunc,
    T,
    SLOT_BITS,
    SLOT_LIMIT,
    ZERO,
    _add_products,
    _over_one_minus_tn,
    _ratfunc,
    decode,
    encode,
    t_binomial,
    t_double_factorial,
    t_factorial,
    t_int,
)

from crosscheck import fraction_eval_at, fraction_exact_div, is_palindromic

laurent = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


@given(laurent, laurent, laurent)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(laurent, st.integers(min_value=-4, max_value=4))
def test_shift_is_monomial_multiplication(a, d):
    assert a.shift(d) == a * LaurentPoly.term(1, d)


@given(laurent, st.integers(min_value=0, max_value=5))
def test_power_matches_repeated_product(a, n):
    expected = ONE
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


@pytest.mark.parametrize("n", [True, False, 1.5, 2.0, "2"], ids=["True", "False", "float", "integral-float", "str"])
def test_power_exponent_must_be_int(n):
    with pytest.raises(TypeError, match=r"^LaurentPoly power must be an int, got %s$" % re.escape(repr(n))):
        T ** n


@pytest.mark.parametrize("d", [True, False, 1.5, 2.0, "2"], ids=["True", "False", "float", "integral-float", "str"])
def test_shift_must_be_int(d):
    """shift takes an int d only: a float would make a float exponent that
    prints as an int one, and a bool would shift by 0 or 1."""
    with pytest.raises(TypeError, match=r"^LaurentPoly shift must be an int, got %s$" % re.escape(repr(d))):
        T.shift(d)


def test_negative_power_is_a_value_error():
    with pytest.raises(ValueError, match="negative power"):
        T ** -1
    # zero has no degree and no valuation
    with pytest.raises(ValueError, match="^degree undefined on zero$"):
        ZERO.degree()
    with pytest.raises(ValueError, match="^valuation undefined on zero$"):
        ZERO.valuation()


def _naive_product(p, q, scale=1, shift=0):
    """scale * t**shift * p * q, term by term through the constructor."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            out[e1 + e2 + shift] = out.get(e1 + e2 + shift, 0) + scale * c1 * c2
    return LaurentPoly(out)


def _assert_canonical(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert all(got.coefficients())


@given(laurent, laurent)
def test_product_is_canonical(p, q):
    """``*`` equals the term-by-term product and drops what cancels."""
    _assert_canonical(p * q, _naive_product(p, q))
    _assert_canonical((ONE + T) * (ONE - T), ONE - T * T)


# polynomials with exponents >= 0, the domain of the packed form
packable = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=-SLOT_LIMIT + 1, max_value=SLOT_LIMIT - 1),
        max_size=6,
    ).map(LaurentPoly)
)
def test_encode_decode_round_trip(p):
    """Every coefficient of absolute value below SLOT_LIMIT survives, signed
    or not, including those at the edge of the slot."""
    assert decode(encode(p)) == p


def test_encode_decode_edges():
    assert encode(ZERO) == 0 and decode(0) == ZERO
    assert encode(T) == 1 << SLOT_BITS
    for c in (SLOT_LIMIT - 1, -SLOT_LIMIT + 1, -1):
        p = LaurentPoly({0: c, 1: -c, 3: c})
        assert decode(encode(p)) == p
    # a coefficient at the limit no longer decodes to itself
    assert decode(encode(LaurentPoly.const(SLOT_LIMIT))) != LaurentPoly.const(SLOT_LIMIT)
    with pytest.raises(ValueError, match="exponent is negative"):
        encode(LaurentPoly({-1: 1, 0: 1}))


@given(packable, packable, st.integers(min_value=0, max_value=4), st.integers(min_value=-9, max_value=9))
def test_packed_arithmetic_matches_laurent(p, q, d, scale):
    """The packed form maps +, *, scaling, t^d and (1+t) to int arithmetic."""
    a, b = encode(p), encode(q)
    assert a + b == encode(p + q)
    assert a - b == encode(p - q)
    assert a * b == encode(p * q)
    assert scale * a * b == encode(scale * p * q)
    assert a << (SLOT_BITS * d) == encode(p.shift(d))
    assert a + (a << SLOT_BITS) == encode(p * (ONE + T))
    assert decode(a * b + (b << SLOT_BITS)) == p * q + q.shift(1)


@given(packable, packable)
def test_packed_sum_cancels_to_zero(p, q):
    """A packed sum that cancels is 0 and decodes to the canonical zero."""
    total = encode(p * q) - encode(q) * encode(p)
    assert total == 0
    _assert_canonical(decode(total), ZERO)
    _assert_canonical(decode(encode(p) + encode(-p)), ZERO)


@given(
    laurent,
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.integers(min_value=-5, max_value=5),
)
def test_one_term_product(q, c, e):
    """The one-term fast path of ``*``, with the term on either side."""
    mono = LaurentPoly.term(c, e)
    want = _naive_product(mono, q)
    _assert_canonical(mono * q, want)
    _assert_canonical(q * mono, want)
    _assert_canonical(c * q.shift(e), want)


def test_shared_product_loop_matches_term_by_term():
    """``*`` (its one-term branch and the general one) and ``_add_products``
    (both of its branches) against the term-by-term sum, on seeded factors
    with negative exponents, one term times many and many times one, and
    sums that cancel to zero."""
    rng = random.Random(33)

    def pairs(size):
        terms = {rng.randint(-6, 6): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(size)}
        return list(terms.items())

    sizes = (0, 1, 2, 5)
    for _ in range(200):
        x, y = pairs(rng.choice(sizes)), pairs(rng.choice(sizes))
        p, q = LaurentPoly(dict(x)), LaurentPoly(dict(y))
        want = _naive_product(p, q)
        _assert_canonical(p * q, want)
        _assert_canonical(q * p, want)
        start = dict(pairs(3))
        expected = dict(start)
        for e1, c1 in x:
            for e2, c2 in y:
                expected[e1 + e2] = expected.get(e1 + e2, 0) + c1 * c2
        acc = dict(start)
        _add_products(acc, x, y)
        assert acc == expected
        # adding -x * y back cancels what it added: each new sum is zero
        _add_products(acc, [(e, -c) for e, c in x], y)
        assert acc == {e: start.get(e, 0) for e in expected}
    # coefficients that cancel are dropped, on either branch of *
    _assert_canonical((ONE + T) * (ONE - T), LaurentPoly({0: 1, 2: -1}))
    _assert_canonical(LaurentPoly({-1: 1, 1: 1}) * LaurentPoly({-1: 1, 1: -1}), LaurentPoly({-2: 1, 2: -1}))
    _assert_canonical(LaurentPoly({-2: 3}) * ZERO, ZERO)
    acc = {}
    _add_products(acc, [(-2, 3), (1, 1)], [(-1, 2)])
    _add_products(acc, [(-2, -3), (1, -1)], [(-1, 2)])
    assert acc == {-3: 0, 0: 0}


@given(laurent, laurent)
def test_exact_div_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_exact_div_rejects_remainder():
    with pytest.raises(InexactDivisionError):
        (T + ONE).exact_div(T - ONE)
    # the quotient 1/2 is not an integer polynomial
    with pytest.raises(InexactDivisionError):
        (T + ONE).exact_div(2 * T + 2)
    # a dividend spanning fewer degrees than the divisor
    with pytest.raises(InexactDivisionError):
        ONE.exact_div(T + ONE)
    with pytest.raises(InexactDivisionError):
        LaurentPoly({-2: 3, 0: 1}).exact_div(LaurentPoly({0: 1, 1: 1, 5: 2}))
    with pytest.raises(ZeroDivisionError):
        T.exact_div(ZERO)


def _outcome(divide, a, b):
    try:
        return divide(a, b)
    except InexactDivisionError:
        return InexactDivisionError


@given(laurent, laurent, laurent, st.integers(min_value=-4, max_value=4).filter(bool))
@settings(max_examples=300)
def test_exact_div_matches_fraction_long_division(a, b, c, lead):
    """Integer and ``Fraction`` long division give the same quotient, or
    both raise, on exact and inexact quotients; multiplying the divisor by
    ``lead`` makes most divisors non-monic."""
    divisor = b * lead
    if divisor.is_zero():
        return
    for dividend in (a * divisor, a * divisor + c, a, a * b):
        assert _outcome(LaurentPoly.exact_div, dividend, divisor) == _outcome(
            fraction_exact_div, dividend, divisor
        ), (dividend, divisor)


@given(laurent, st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_eval_is_ring_homomorphism(a, t0):
    if t0 == 0 and not a.is_zero() and a.valuation() < 0:
        return
    assert (a * a).eval_at(t0) == a.eval_at(t0) ** 2


@given(laurent)
def test_subs_neg_t_involutive(a):
    assert a.subs_neg_t().subs_neg_t() == a
    assert a.subs_neg_t().eval_at(2) == a.eval_at(-2)


@given(laurent)
def test_json_roundtrip(a):
    assert LaurentPoly({int(e): c for e, c in a.to_json().items()}) == a


@pytest.mark.parametrize("c", [4.9, "4", 4.0, True], ids=["float", "str", "integral-float", "bool"])
def test_coefficients_must_be_int(c):
    with pytest.raises(TypeError, match="coefficients must be int"):
        LaurentPoly({0: 4, 1: c})
    with pytest.raises(TypeError, match=r"coefficients must be int, got %s$" % re.escape(repr(c))):
        LaurentPoly.const(c)


@pytest.mark.parametrize("terms", [5, 0, [(1, 2)], [], "ab", "", (), 1.5])
def test_terms_must_be_a_dict(terms):
    with pytest.raises(TypeError, match=r"^LaurentPoly terms must be a dict, got %s$" % re.escape(repr(terms))):
        LaurentPoly(terms)


def test_terms_may_be_none_or_any_dict():
    assert LaurentPoly() == LaurentPoly(None) == LaurentPoly({}) == ZERO
    assert LaurentPoly(OrderedDict([(1, 2), (0, 0)])) == LaurentPoly({1: 2})


@pytest.mark.parametrize("e", [1.5, 1.0, True, "2"], ids=["float", "integral-float", "bool", "str"])
def test_exponents_must_be_int(e):
    with pytest.raises(TypeError, match="exponents must be int, got %r" % (e,)):
        LaurentPoly({0: 4, e: 3})


def test_equality_with_ints_never_raises():
    assert ONE == 1 and ZERO == 0 and T != 1
    assert not ONE == True  # noqa: E712 - a bool is not an int constant here
    assert ONE != True  # noqa: E712
    assert True not in [ONE, ZERO]
    assert ONE != 1.0 and ONE != "1"


def test_constants_hash_as_their_ints():
    """Equal objects hash equal, so a constant and its int find each other
    in a set; a bool is still not a constant."""
    assert 1 in {ONE} and ONE in {1} and 0 in {ZERO} and ZERO in {0}
    assert hash(ZERO) == hash(0) and hash(LaurentPoly.const(-7)) == hash(-7)
    assert True not in {ONE}
    assert hash(T) == hash(frozenset({(1, 1)}))


@pytest.mark.parametrize(
    "combine, x",
    [
        (lambda p, x: p + x, True),
        (lambda p, x: p * x, True),
        (lambda p, x: p - x, False),
        (lambda p, x: x - p, True),
        (lambda p, x: p + x, 1.5),
    ],
    ids=["add-True", "mul-True", "sub-False", "rsub-True", "add-float"],
)
def test_a_bool_operand_is_not_coerced(combine, x):
    with pytest.raises(TypeError, match=r"^cannot coerce %r to LaurentPoly$" % (x,)):
        combine(ONE, x)


def test_rendering_canonical():
    p = LaurentPoly({4: 4, 3: 8, 2: 12, 1: 8})
    assert str(p) == "4*t^4 + 8*t^3 + 12*t^2 + 8*t"
    assert str(ZERO) == "0"
    assert str(LaurentPoly({0: -1, 1: 1})) == "t - 1"
    assert str(LaurentPoly({-1: 2, 0: 2})) == "2 + 2*t^-1"
    assert str(LaurentPoly({0: -1})) == "-1"
    assert str(LaurentPoly({1: -1})) == "-t"
    assert str(LaurentPoly({3: -1, 2: -5, 1: 1, 0: 7, -2: -1})) == "-t^3 - 5*t^2 + t + 7 - t^-2"
    assert str(LaurentPoly({5: -12, 1: -3, -1: 1})) == "-12*t^5 - 3*t + t^-1"


def test_palindromicity():
    assert not is_palindromic(LaurentPoly({4: 4, 3: 8, 2: 12, 1: 8}))
    assert is_palindromic(LaurentPoly({2: 8, 1: 16, 0: 8}))
    assert is_palindromic(ZERO)


def test_t_brackets():
    assert t_int(4) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})
    assert t_int(0) == ZERO
    assert t_factorial(3) == t_int(2) * t_int(3)
    assert t_double_factorial(6) == t_int(6) * t_int(4) * t_int(2)
    assert t_double_factorial(5) == t_int(5) * t_int(3) * t_int(1)


def test_t_binomial_pascal():
    """Every [n, k] with n <= 30 against a t-Pascal table built here with
    [n, k] = [n-1, k-1] + t^k [n-1, k], and at t = 1 against comb(n, k)."""
    pascal = {(0, 0): ONE}
    for n in range(31):
        for k in range(n + 1):
            if n:
                left = pascal.get((n - 1, k - 1), ZERO)
                pascal[n, k] = left + pascal.get((n - 1, k), ZERO).shift(k)
            assert t_binomial(n, k) == pascal[n, k], (n, k)
            assert t_binomial(n, k).eval_at(1) == math.comb(n, k)
    assert t_binomial(4, 2) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    with pytest.raises(ValueError):
        t_binomial(3, 4)


def test_over_one_minus_tn_rejects_a_remainder():
    """p / (1 - t^n) raises ``InexactDivisionError``, as ``exact_div`` does."""
    assert _over_one_minus_tn(ONE - T ** 6, 3) == ONE + T ** 3
    assert _over_one_minus_tn(LaurentPoly({-2: 1, 0: -1}), 2) == LaurentPoly({-2: 1})
    for p, n in ((ONE, 2), (ONE - T ** 3, 2), (ONE + T, 1)):
        with pytest.raises(InexactDivisionError, match="^1 - t\\^%d leaves a remainder$" % n):
            _over_one_minus_tn(p, n)


# -- rational functions --------------------------------------------------

# (num, den) for num / den
rational = st.tuples(laurent, st.integers(min_value=-6, max_value=6).filter(bool))
POINTS = (Fraction(2), Fraction(-3), Fraction(1, 3))


def _value(num, den, t0):
    """The value at t0 from LaurentPoly.eval_at and Fraction alone."""
    return num.eval_at(t0) / den


def _at(x, t0):
    """The value of the RatFunc x at t0, from its parts."""
    return _value(x.num, x.den, t0)


@given(rational, rational)
@settings(max_examples=80)
def test_ratfunc_arithmetic_matches_evaluation(a, b):
    x, y = RatFunc(*a), RatFunc(*b)
    differ = False
    for t0 in POINTS:
        va, vb = _value(*a, t0), _value(*b, t0)
        differ = differ or va != vb
        assert _at(x, t0) == va
        assert _at(x + y, t0) == va + vb
        assert _at(x + y * -1, t0) == va - vb
        assert _at(x * y, t0) == va * vb
    if differ:
        assert x != y
    assert x != x + RatFunc(1, 2)
    if x:
        assert x != x * RatFunc(1, 2)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + y * -1 == x
    assert x * (x + y) == x * x + x * y
    assert not x + x * -1


def _outcome_at(fn, *args):
    try:
        value = fn(*args)
    except ZeroDivisionError as exc:
        return type(exc)
    assert type(value) is Fraction
    return value


@given(
    laurent,
    st.integers(min_value=-4, max_value=4) | st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
@settings(max_examples=200)
def test_eval_at_matches_the_fraction_loop(num, t0):
    """eval_at sums in ints at int points with no negative exponent and over
    Fraction elsewhere; both give the Fraction loop's value, or its error."""
    assert _outcome_at(LaurentPoly.eval_at, num, t0) == _outcome_at(fraction_eval_at, num, t0)
    assert _outcome_at(LaurentPoly.eval_at, num, t0) == _outcome_at(LaurentPoly.eval_at, num, Fraction(t0))


def test_ratfunc_content_normalized():
    r = RatFunc(LaurentPoly({1: 2, 0: 6}), -4)
    assert (r.num, r.den) == (LaurentPoly({1: -1, 0: -3}), 2)
    assert RatFunc(1, 2) != RatFunc(1, 3)
    # the denominator is a nonzero int
    for den in (2.0, Fraction(2), "2", True, False):
        with pytest.raises(TypeError, match=r"^RatFunc denominator must be int, got %s$" % re.escape(repr(den))):
            RatFunc(T, den)
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        RatFunc(T, 0)


def test_ratfunc_to_laurent():
    # (2t^-1 + 2t) / 2 = t^-1 + t
    r = RatFunc(LaurentPoly({-1: 2, 1: 2}), 2)
    assert r.to_laurent() == LaurentPoly({-1: 1, 1: 1})
    with pytest.raises(InexactDivisionError):
        RatFunc(T, 2).to_laurent()


@given(laurent)
def test_ratfunc_from_laurent_roundtrip(a):
    assert RatFunc(a).to_laurent() == a


def _pair(x):
    return x.num, x.den


coprime_fraction = st.tuples(
    st.integers(min_value=-12, max_value=12).filter(bool),
    st.integers(min_value=2, max_value=12),
).filter(lambda cd: math.gcd(*cd) == 1)


@given(rational, st.integers(min_value=-12, max_value=12), coprime_fraction, laurent, laurent)
@example((LaurentPoly({0: 2, 1: 4}), 9), -6, (-3, 4), ZERO, ZERO)
@settings(max_examples=150)
def test_products_and_sums_are_canonical(a, k, cd, p, q):
    """Products by an int or by a constant c/d (on either side), and sums
    of values with den 1, give the (num, den) that ``_ratfunc`` gives on the
    unreduced product or sum."""
    x = RatFunc(*a)
    const = RatFunc(*cd)
    assert _pair(const) == (LaurentPoly.const(cd[0]), cd[1])
    assert _pair(x * k) == _pair(_ratfunc(x.num * k, x.den))
    assert _pair(x * const) == _pair(_ratfunc(x.num * const.num, x.den * const.den))
    assert _pair(const * x) == _pair(_ratfunc(const.num * x.num, const.den * x.den))
    assert _pair(RatFunc(p) + RatFunc(q)) == _pair(_ratfunc(p + q, 1))
    assert _pair(RatFunc(p) + RatFunc(-p)) == (ZERO, 1)
