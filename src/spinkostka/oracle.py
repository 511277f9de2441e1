"""Vertex-operator oracle: the slow, trusted path.

Every operator used here has the shape

    exp( sum_n a_n p_n z^n ) * exp( sum_n b_n d/dp_n z^-n )

acting on symmetric functions written in the power-sum basis with
coefficients in Q[t, 1/t].  A single generic component-extraction routine
realizes them all; each operator is one ``OperatorSpec``, which holds its
coefficient sequences and, called as ``op(n, F)``, gives its component in
the paper's indexing.  Spin Kostka polynomials,
Stembridge coefficients and Kostka-Foulkes polynomials then come out as
inner products of basis vectors, independently of the recurrence engine:
of the package, this module imports only ``partitions`` and
``polynomial``, and shares only the output type ``LaurentPoly`` with the
engine.

The paper defines K^-_{xi,mu}(t) = <Q_mu(x;t), Q_xi>_t and K_{lam,mu}(t) =
<s_lam, Q_mu(x;t)>_t under the t-deformed form, whose Gram values
z_lam(t) = z_lam / prod_i (1 - t^lam_i) have poles.  The oracle pairs only
under the canonical (Hall) form, whose Gram values z_lam are integers.  The
substitution phi: X -> X/(1 - t), p_n -> p_n / (1 - t^n), is invertible and
fixes 1; <F, G>_t = <F, phi G>, and A's Hall adjoint is phi A* phi^-1 for A*
its t-adjoint.  So the entries pair Q'_mu = phi Q_mu, built by Jing's
modified vertex operator H' = phi H phi^-1 (Jing, Adv. Math. 1991;
Macdonald III.7), and the relations that pair H with htilde's t-adjoint are
checked with H' and htilde's Hall adjoint.  H's own t-adjoint is
H* = phi^-1 H^dagger phi = (phi H phi^-1)^dagger, H''s Hall adjoint
(``op_H_star``), as phi is Hall-self-adjoint; so every coefficient lies in
Q[t, 1/t].

K^- pairs Q'_mu with Q_xi, which lies in Q[p_1, p_3, p_5, ...] (Macdonald
III.8).  The Hall form pairs p_lam with p_rho only when lam = rho, so
<F, Q_xi> = <pi F, Q_xi>, pi the ring map that sets every p_2k to 0, and
K^- reads only the keys of Q'_mu with odd parts alone.  The last H' of
Q'_mu is applied with that cut; its tail is whole, since H' takes even
keys of the tail to odd ones and the tails are shared with longer mu.

Vectors are exact and never truncated, so the basis caches are keyed on
the shape alone, and an entry runs at any weight it is asked for.  A
vector (``PExpansion``) holds integer ``LaurentPoly`` numerators over one
int denominator; the scalars are ``RatFunc`` (see ``polynomial.RatFunc``).
"""

from __future__ import annotations

import random
import time
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm

from .partitions import as_partition, partitions, strict_partitions, vertical_strip_subshapes
from .polynomial import ONE, RF_ONE, RF_ZERO, T, LaurentPoly, RatFunc
from .polynomial import _add_products, _count, _one_minus_tn, _ratfunc, _raw, _scale


# -- partition statistics, which only the oracle uses --------------------


multiplicities = Counter


@lru_cache(maxsize=None)
def z_stat(lam):
    z = 1
    for part, m in multiplicities(lam).items():
        z *= part ** m * factorial(m)
    return z


def eps(lam):
    return -1 if (sum(lam) - len(lam)) % 2 else 1


def u_stat(lam):
    u = factorial(len(lam))
    for m in multiplicities(lam).values():
        u //= factorial(m)
    return u


def weak_compositions(k, positions):
    """All vectors of `positions` nonnegative integers summing to k,
    in lexicographic order: the gaps between positions - 1 bars placed
    among k + positions - 1 slots."""
    if positions == 0:
        if k == 0:
            yield ()
        return
    slots = k + positions - 1
    for bars in combinations(range(slots), positions - 1):
        ends = (-1,) + bars + (slots,)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def support_size(vec):
    return sum(1 for x in vec if x > 0)


# -- expansions in the power-sum basis ----------------------------------


class PExpansion:
    """Element of the symmetric-function ring in the p-basis: the sum over
    lam of coeffs[lam] / den * p_lam, with nonzero integer ``LaurentPoly``
    numerators keyed by partition over one positive int ``den``.  Exact,
    with no truncation; treated as immutable after construction.  The
    constructor makes it canonical, with den prime to the numerators'
    coefficients taken together, so each vector has one form and ``==``
    compares the parts."""

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs, den=1):
        self.coeffs, self.den = _reduced({lam: c for lam, c in coeffs.items() if c}, den)

    @classmethod
    def vacuum(cls):
        return cls({(): ONE})

    @classmethod
    def zero(cls):
        return cls({})

    def __add__(self, other):
        return _combine(self, other, 1)

    def __sub__(self, other):
        return _combine(self, other, -1)

    def scale(self, c):
        """The vector times c, an int or a ``LaurentPoly``.  A unit +-t^d
        leaves the content as it is, so that product takes no gcd."""
        if type(c) is int:
            c = LaurentPoly.const(c)
        if not c:
            return PExpansion.zero()
        if len(c._terms) == 1:
            ((d, u),) = c._terms.items()
            if u == 1 or u == -1:
                coeffs = {lam: _raw({e + d: v * u for e, v in num._terms.items()}) for lam, num in self.coeffs.items()}
                return _pexp(coeffs, self.den)
        return _pexp(*_reduced({lam: v * c for lam, v in self.coeffs.items()}, self.den))

    def subs_neg_t(self):
        return PExpansion({lam: c.subs_neg_t() for lam, c in self.coeffs.items()}, self.den)

    def __eq__(self, other):
        return isinstance(other, PExpansion) and self.den == other.den and self.coeffs == other.coeffs

    def __repr__(self):
        return "PExpansion(%r, %d)" % (self.coeffs, self.den)


def _reduced(coeffs, den):
    """(coeffs, den) with the common content of den and the nonzero
    numerators coeffs divided out."""
    if den != 1:
        g = gcd(den, *[v for c in coeffs.values() for v in c._terms.values()])
        if g != 1:
            coeffs = {lam: _raw({e: v // g for e, v in c._terms.items()}) for lam, c in coeffs.items()}
            den //= g
    return coeffs, den


def _pexp(coeffs, den):
    """A ``PExpansion`` from parts already in canonical form."""
    F = PExpansion.__new__(PExpansion)
    F.coeffs, F.den = coeffs, den
    return F


def _combine(F, G, sign):
    """F + sign * G, sign = +-1, in one pass over one common denominator."""
    den = F.den if F.den == G.den else lcm(F.den, G.den)
    a, b = den // F.den, sign * (den // G.den)
    out = {lam: _scale(c, a) for lam, c in F.coeffs.items()}
    for lam, c in G.coeffs.items():
        have = out.get(lam)
        terms = {} if have is None else dict(have._terms)
        for e, v in c._terms.items():
            v = terms.get(e, 0) + v * b
            if v:
                terms[e] = v
            else:
                del terms[e]
        if terms:
            out[lam] = _raw(terms)
        else:
            del out[lam]
    return _pexp(*_reduced(out, den))


# -- operator specifications --------------------------------------------


class OperatorSpec:
    """One vertex operator.  ``creation(n)`` is the coefficient of p_n z^n,
    ``annihilation(n)`` of d/dp_n z^-n.  Called as ``op(n, F)``, it gives its
    component in the paper's indexing: the z^n component when ``sign`` is +1
    (H, H', Q, S+, htilde, e+, q), the z^-n one when it is -1, which the
    adjoints set.  The term tables are keyed on the sequence
    objects, so specs that share a sequence object fill its tables once."""

    __slots__ = ("name", "creation", "annihilation", "sign")

    def __init__(self, name, creation, annihilation, sign=1):
        self.name, self.creation, self.annihilation, self.sign = name, creation, annihilation, sign

    def __call__(self, n, F):
        return apply_component(self, self.sign * n, F)


# Specs with equal coefficients share one sequence object.
op_H = OperatorSpec("H", lambda n: RatFunc(_one_minus_tn(n), n), lambda n: RatFunc(-1))
# Jing's H'(z), which is H(z) conjugated by X -> X/(1 - t): p_n -> p_n/(1 - t^n)
# takes the creation coefficient to 1/n and d/dp_n to (1 - t^n) d/dp_n
op_H_prime = OperatorSpec("H'", lambda n: RatFunc(1, n), lambda n: RatFunc(-_one_minus_tn(n)))
op_Q = OperatorSpec("Q", lambda n: RatFunc(2, n) if n % 2 else RF_ZERO, op_H.annihilation)
op_S_plus = OperatorSpec("S+", op_H_prime.creation, op_H.annihilation)
# creation (t^n - (-1)^n)/n, pure multiplication
op_htilde = OperatorSpec(
    "htilde", lambda n: RatFunc(LaurentPoly({0: -((-1) ** n), n: 1}), n), lambda n: RF_ZERO
)
op_e = OperatorSpec("e+", lambda n: RatFunc((-1) ** (n + 1), n), op_htilde.annihilation)
# multiplication by q_n = H_n.1: H's creation side alone
op_q = OperatorSpec("q", op_H.creation, op_htilde.annihilation)


def adjoint_spec(spec):
    """Adjoint under the canonical (Hall) form.

    The adjoint of multiplication by p_n is n d/dp_n, so creation and
    annihilation coefficients swap roles with the matching Gram factors;
    the z-power flips sign, so the adjoint's ``sign`` is the opposite of
    ``spec``'s.
    """
    def creation(n, spec=spec):
        return spec.annihilation(n) * RatFunc(1, n)

    def annihilation(n, spec=spec):
        return spec.creation(n) * n

    return OperatorSpec(spec.name + "*", creation, annihilation, -spec.sign)


# H's t-adjoint H* (creation -(1 - t^n)/n, annihilation 1): phi conjugates it
# to H's Hall adjoint, so it is H''s Hall adjoint
op_H_star = adjoint_spec(op_H_prime)
op_Q_star = adjoint_spec(op_Q)
# annihilation t^n - (-1)^n: phi conjugates htilde's t-adjoint to it
op_htilde_star = adjoint_spec(op_htilde)
op_S_minus = adjoint_spec(op_S_plus)
op_e_minus = adjoint_spec(op_e)


@lru_cache(maxsize=None)
def _exp_coeff(seq, rho):
    """prod_i seq(rho_i) / prod_k m_k(rho)!: with a creation sequence the
    coefficient of p_rho z^|rho| in its exponential, with an annihilation
    one that of d_rho z^-|rho| (d_rho a product of plain d/dp_k).  Built on
    its tail: that of rho[1:] times that of (rho_0,) over m_rho0(rho), so
    seq is called once per part value."""
    if len(rho) < 2:
        return seq(rho[0]) if rho else RF_ONE
    head, tail = _exp_coeff(seq, rho[:1]), _exp_coeff(seq, rho[1:])
    if not (head and tail):
        return RF_ZERO
    return _ratfunc(head.num * tail.num, head.den * tail.den * rho.count(rho[0]))


@lru_cache(maxsize=None)
def _sub_multisets(lam):
    """(|sigma|, sigma, lam - sigma, deriv) for every sub-multiset sigma of
    the partition lam, by |sigma| and then in the order of ``partitions``,
    where d_sigma p_lam = deriv * p_(lam - sigma): deriv is the product over
    the parts of sigma of the falling factorial of their multiplicity in lam."""
    out = [(0, (), (), 1)]
    for part, have in Counter(lam).items():
        grown = []
        for s, sigma, base, deriv in out:
            for k in range(have + 1):
                grown.append((s + k * part, sigma + (part,) * k, base + (part,) * (have - k), deriv))
                deriv *= have - k
        out = grown
    return sorted(out, key=lambda term: (term[0], [-part for part in term[1]]))


def _table(rows):
    """(den, [(key, num)]) for the (key, c, k) in rows with c nonzero: num is
    the numerator of c * k over den, the lcm of the denominators of the c,
    as (exponent, int) pairs."""
    rows = [row for row in rows if row[1]]
    den = lcm(*[c.den for _, c, _ in rows])
    return den, [(key, [(e, v * k * (den // c.den)) for e, v in c.num._terms.items()]) for key, c, k in rows]


def _all_odd(lam):
    return all(part % 2 for part in lam)


@lru_cache(maxsize=None)
def _annihilation_terms(seq, lam, odd):
    """The table of ((|sigma|, lam - sigma), coefficient of d_sigma times
    deriv) for each sub-multiset sigma of lam whose coefficient under the
    annihilation sequence ``seq`` is not zero; if odd, only those whose
    lam - sigma has odd parts alone."""
    rows = _sub_multisets(lam)
    return _table(((s, base), _exp_coeff(seq, sigma), k) for s, sigma, base, k in rows if not odd or _all_odd(base))


@lru_cache(maxsize=None)
def _creation_terms(seq, r, odd):
    """The table of (rho, coefficient of p_rho) for each rho |- r whose
    coefficient under the creation sequence ``seq`` is not zero; if odd,
    only the rho with odd parts alone."""
    return _table((rho, _exp_coeff(seq, rho), 1) for rho in partitions(r) if not odd or _all_odd(rho))


@lru_cache(maxsize=None)
def _creation_row(seq, r, base, odd):
    """``_creation_terms(seq, r, odd)`` with each rho merged into base:
    the keys are the partitions base + rho, sorted once per row."""
    den, terms = _creation_terms(seq, r, odd)
    return den, [(tuple(sorted(base + rho, reverse=True)), ac) for rho, ac in terms]


# The two kernels, apply_component and inner, sum integer Laurent numerators
# (dicts exponent -> int, through ``polynomial._add_products``) over one
# denominator per call, the product of the denominators of their input
# vectors and the lcms of those of the term tables they read, and reduce the
# result once.


def apply_component(spec, m, F, odd=False):
    """The z^m component of the operator applied to F (m in the unified
    indexing where creation carries positive powers of z); if odd, only
    its terms on keys with odd parts alone.

    The annihilation side runs first: d_sigma p_lam = deriv * p_(lam - sigma)
    for each sub-multiset sigma of lam, with s = |sigma| taken off and
    r = m + s left for the creation side.  Its terms are summed per
    (lam - sigma, r), so each group is multiplied once by the creation
    coefficient of every rho |- r, read from a row cached per (r, lam -
    sigma) whose keys lam - sigma + rho are sorted once.  The group carries
    r, not lam - sigma alone, because F may mix weights.  Both sides read
    cached term tables that hold only the nonzero coefficients, so the even
    parts of Q's creation side and every sigma but () on the annihilation
    side of htilde and e+ are never visited.  An output key lam - sigma +
    rho has odd parts alone exactly when both lam - sigma and rho do, so
    with odd the tables keep only those.  The groups and the output are
    integer numerators over F.den * d_ann * d_cre, d_ann and d_cre the lcms
    of the denominators of the annihilation and creation tables read."""
    coeffs = F.coeffs
    if not coeffs:
        return F
    tables = [_annihilation_terms(spec.annihilation, lam, odd) for lam in coeffs]
    d_ann = lcm(*{den for den, _ in tables})
    groups = {}
    for c, (den, terms) in zip(coeffs.values(), tables):
        x = c._terms.items()
        if den != d_ann:
            k = d_ann // den
            x = [(e, v * k) for e, v in x]
        for (s, base), bd in terms:
            r = m + s
            if r >= 0:
                _add_products(groups.setdefault((base, r), {}), x, bd)
    rows = [(acc, _creation_row(spec.creation, r, base, odd)) for (base, r), acc in groups.items()]
    d_cre = lcm(*{den for _, (den, _) in rows})
    sums = {}
    for acc, (den, terms) in rows:
        k = d_cre // den
        x = [(e, v * k) for e, v in acc.items() if v]
        if x:
            for key, ac in terms:
                _add_products(sums.setdefault(key, {}), x, ac)
    out = {key: _raw(num) for key, acc in sums.items() if (num := {e: c for e, c in acc.items() if c})}
    return _pexp(*_reduced(out, F.den * d_ann * d_cre))


# -- basis vectors ------------------------------------------------------


# Each basis vector is its first operator applied to the cached vector of
# its tail, so words that share a tail share its applications.


@lru_cache(maxsize=None)
def hl_Q(mu):
    """H_mu1 ... H_mur . 1 for any tuple mu of ints: the Hall-Littlewood
    Q_mu(x;t) when mu is a partition, which only the relations read."""
    return op_H(mu[0], hl_Q(mu[1:])) if mu else PExpansion.vacuum()


@lru_cache(maxsize=None)
def hl_Q_prime(mu):
    """H'_mu1 ... H'_mur . 1 = hl_Q(mu)[X/(1-t)] for any tuple mu of ints: the
    modified Hall-Littlewood Q'_mu when mu is a partition, whose coefficient
    of p_lam is that of Q_mu over prod_i (1 - t^lam_i)."""
    return op_H_prime(mu[0], hl_Q_prime(mu[1:])) if mu else PExpansion.vacuum()


@lru_cache(maxsize=None)
def _hl_Q_prime_odd(mu):
    """hl_Q_prime(mu) with only its keys of odd parts alone: its outermost
    H' applied, odd, to the whole cached tail."""
    return apply_component(op_H_prime, mu[0], hl_Q_prime(mu[1:]), odd=True) if mu else PExpansion.vacuum()


@lru_cache(maxsize=None)
def schur_q(xi):
    """Schur Q-function Q_xi = Q_xi1 ... Q_xil . 1."""
    return op_Q(xi[0], schur_q(xi[1:])) if xi else PExpansion.vacuum()


@lru_cache(maxsize=None)
def schur_s(lam):
    """Schur function s_lam = S+_lam1 ... S+_laml . 1."""
    return op_S_plus(lam[0], schur_s(lam[1:])) if lam else PExpansion.vacuum()


@lru_cache(maxsize=None)
def htilde(n):
    """The spin analogue of the complete homogeneous generator."""
    return op_htilde(n, PExpansion.vacuum())


# -- inner products -----------------------------------------------------


def inner(F, G):
    """<F, G> under the canonical (Hall) form, with the integer Gram values
    z_lam: the numerators' products summed over F.den * G.den and made a
    ``RatFunc`` once."""
    acc, g = {}, G.coeffs
    for lam, a in F.coeffs.items():
        b = g.get(lam)
        if b is not None:
            z = z_stat(lam)
            _add_products(acc, a._terms.items(), [(e, v * z) for e, v in b._terms.items()])
    return _ratfunc(_raw({e: c for e, c in acc.items() if c}), F.den * G.den)


def inner_at_minus_one(F, G):
    """<F, G>_t at t = -1 for F and G whose shared keys are odd partitions,
    such as Schur Q-functions, where z_lam(-1) = z_lam / 2^l(lam).
    ``ValueError`` on an even part, where z_lam(t) has a pole at -1."""
    total = Fraction(0)
    for lam in F.coeffs.keys() & G.coeffs.keys():
        if any(part % 2 == 0 for part in lam):
            raise ValueError("z_lam(t) has a pole at t = -1: lam=%r has an even part" % (lam,))
        gram = Fraction(z_stat(lam), 2 ** len(lam))
        total += F.coeffs[lam].eval_at(-1) * G.coeffs[lam].eval_at(-1) * gram
    return total / (F.den * G.den)


def oracle_spin_kostka(xi, mu):
    """K^-_{xi,mu}(t) = <Q_mu(x;t), Q_xi>_t, computed as <pi Q'_mu, Q_xi>
    under the canonical form, which equals it; xi strict (``as_partition``);
    0 if weights differ."""
    xi, mu = as_partition(xi, "xi", strict=True), as_partition(mu, "mu")
    if sum(xi) != sum(mu):
        return LaurentPoly()
    return inner(_hl_Q_prime_odd(mu), schur_q(xi)).to_laurent()


# The entries check their arguments (``as_partition``); the values are
# cached on the checked tuples, so that oracle_spin_via_bK computes each b
# and each K_{lam,mu}(t) once.


def oracle_b(xi, lam):
    """b_{xi,lam} = <s_lam, Q_xi> under the canonical form, xi strict."""
    return _b_value(as_partition(xi, "xi", strict=True), as_partition(lam, "lam"))


@lru_cache(maxsize=None)
def _b_value(xi, lam):
    # no odd cut: the b*K path reads the full s_lam again for K_{lam,mu}
    if sum(xi) != sum(lam):
        return 0
    value = inner(schur_s(lam), schur_q(xi)).to_laurent()
    if value.terms.keys() - {0}:
        raise ArithmeticError("non-constant b value %r" % (value,))
    return value.coeff(0)


def oracle_kostka_foulkes(lam, mu):
    """K_{lam,mu}(t) = <s_lam, Q_mu(x;t)>_t, computed as <s_lam, Q'_mu> under
    the canonical form, which equals it."""
    return _kostka_foulkes_value(as_partition(lam, "lam"), as_partition(mu, "mu"))


@lru_cache(maxsize=None)
def _kostka_foulkes_value(lam, mu):
    if sum(lam) != sum(mu):
        return LaurentPoly()
    return inner(schur_s(lam), hl_Q_prime(mu)).to_laurent()


def oracle_spin_via_bK(xi, mu):
    """Third path: K^- = sum_lam b_{xi,lam} K_{lam,mu}(t), xi strict."""
    xi, mu = as_partition(xi, "xi", strict=True), as_partition(mu, "mu")
    n = sum(xi)
    if n != sum(mu):
        return LaurentPoly()
    total = LaurentPoly()
    for lam in partitions(n):
        b = _b_value(xi, lam)
        if b:
            total = total + b * _kostka_foulkes_value(lam, mu)
    return total


# -- relation verification ----------------------------------------------


RelationResult = namedtuple("RelationResult", "name passed detail seconds", defaults=("", 0.0))


class Report:
    def __init__(self):
        self.results = []

    def record(self, name, passed, detail="", seconds=0.0):
        self.results.append(RelationResult(name, passed, detail, seconds))

    @property
    def ok(self):
        return all(r.passed for r in self.results)

    def summary(self):
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append("%s %s%s" % (status, r.name, (" " + r.detail) if r.detail else ""))
        return "\n".join(lines)


def _random_pexp(rng, degree, odd_only=False):
    coeffs = {}
    pool = [
        lam
        for d in range(degree + 1)
        for lam in partitions(d)
        if not odd_only or all(part % 2 for part in lam)
    ]
    for lam in rng.sample(pool, min(4, len(pool))):
        c = rng.randint(-3, 3)
        if c:
            coeffs[lam] = LaurentPoly.const(c)
    if not coeffs:
        coeffs[()] = ONE
    return PExpansion(coeffs)


def verify_relations(max_degree=3, seed=0, vector_degree=None):
    """Check the quadratic operator relations and the iterative formulas on
    pseudo-random vectors of weight <= vector_degree (max_degree when None).
    ``ValueError`` unless both are ints >= 0.

    Each relation yields (lhs, rhs, case) over its cases, and one driver
    compares the sides: a relation fails at its first case whose sides
    differ, and its report entry names that case.  Failures and exceptions
    become report entries, not raised; each entry carries the seconds its
    check took.  A product by htilde_n, e_n or q_n is applied as its
    multiplication operator (``op_htilde``, ``op_e``, ``op_q``).

    The checks apply the same operators to the same vectors many times over,
    so their operator applications share one memo, keyed on (operator, index,
    identity of the vector).  The memo pins each vector it keys on, so that no
    other vector can take its id while the memo lives; a result it returns is
    the same object on every hit, so nested applications hit as well.  It is
    local to the call and is dropped when the call returns or raises.  The
    basis words on the vacuum (Q-, H-, H'- and S+-words) come from the
    module's caches ``schur_q``, ``hl_Q``, ``hl_Q_prime`` and ``schur_s``."""
    if vector_degree is None:
        vector_degree = max_degree
    _count("max_degree", max_degree)
    _count("vector_degree", vector_degree)
    memo = {}

    def memoized(op):
        def apply(n, F):
            key = (op, n, id(F))
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = (F, op(n, F))
            return hit[1]

        return apply

    H, H_star, Q, Q_star = map(memoized, (op_H, op_H_star, op_Q, op_Q_star))
    S_minus, e_plus, e_minus = map(memoized, (op_S_minus, op_e, op_e_minus))
    H_prime, htilde_star = memoized(op_H_prime), memoized(op_htilde_star)
    htilde_times, q_times = memoized(op_htilde), memoized(op_q)
    rng = random.Random(seed)
    vectors = [_random_pexp(rng, vector_degree) for _ in range(2)]
    # The Clifford relation for the tailored Q(z) holds exactly on the
    # subalgebra generated by odd power sums (the residual normal-ordered
    # factor :Q(z)Q(-z): is a series in derivatives by even power sums,
    # which annihilate that subalgebra); test it there.
    odd_vectors = [_random_pexp(rng, vector_degree, odd_only=True) for _ in range(2)]
    vacuum, zero = PExpansion.vacuum(), PExpansion.zero()
    report = Report()
    one_plus_t = ONE + T
    rng_idx = range(-max_degree, max_degree + 1)

    def check(name, relation):
        start = time.perf_counter()
        try:
            detail = next((case for lhs, rhs, case in relation if lhs != rhs), "")
        except Exception as exc:  # report, never raise
            detail = "error: %r" % (exc,)
        report.record(name, not detail, detail, time.perf_counter() - start)

    def exchange(A, B, a, b, delta=None):
        """A_m B_n - t B_n A_m = t A_{m+a} B_{n+b} - B_{n+b} A_{m+a}, plus
        delta * v when m = n."""
        for v in vectors:
            for m in rng_idx:
                for n in rng_idx:
                    lhs = A(m, B(n, v)) - B(n, A(m, v)).scale(T)
                    rhs = A(m + a, B(n + b, v)).scale(T) - B(n + b, A(m + a, v))
                    if delta is not None and m == n:
                        rhs = rhs + v.scale(delta)
                    yield lhs, rhs, "m=%d n=%d" % (m, n)

    def com4():
        for n in range(0, max_degree + 1):
            want = vacuum if n == 0 else zero
            for op, adj in ((H, H_star), (Q, Q_star)):
                yield op(-n, vacuum), want, "creation n=%d" % n
                yield adj(n, vacuum), want, "adjoint n=%d" % n

    def clifford():
        for v in odd_vectors:
            for m in rng_idx:
                for n in rng_idx:
                    rhs = v.scale(2 * (-1) ** abs(n)) if m == -n else zero
                    yield Q(m, Q(n, v)) + Q(n, Q(m, v)), rhs, "m=%d n=%d" % (m, n)

    def adjacent_swap():
        for v in vectors:
            for n in rng_idx:
                yield H(n, H(n + 1, v)), H(n + 1, H(n, v)).scale(T), "n=%d" % n
                lhs = H_star(n, H_star(n - 1, v))
                yield lhs, H_star(n - 1, H_star(n, v)).scale(T), "adjoint n=%d" % n

    def rel1():
        tinv = ONE.shift(-1)
        two_1_tinv = LaurentPoly({0: 2, -1: -2})
        for v in vectors:
            for n in rng_idx:
                for m in rng_idx:
                    rhs = H_star(n - 1, Q(m - 1, v)) + Q(m, H_star(n, v)) + Q(m - 1, H_star(n - 1, v))
                    rhs = rhs.scale(tinv)
                    if m >= n:
                        rhs = rhs + htilde_times(m - n, v).scale(two_1_tinv)
                    yield H_star(n, Q(m, v)), rhs, "n=%d m=%d" % (n, m)

    def rel2():
        for v in vectors:
            for m in range(0, max_degree + 1):
                for n in rng_idx:
                    rhs = H_prime(n, htilde_star(m, v))
                    for k in range(m):
                        term = H_prime(n - m + k, htilde_star(k, v))
                        rhs = rhs + term.scale(one_plus_t.shift(m - k - 1))
                    yield htilde_star(m, H_prime(n, v)), rhs, "m=%d n=%d" % (m, n)

    def rel3():
        for v in vectors:
            for m in range(0, max_degree + 1):
                for n in rng_idx:
                    rhs = htilde_times(m, Q(n, v))
                    for k in range(m):
                        term = htilde_times(k, Q(n - k + m, v))
                        rhs = rhs + term.scale(one_plus_t * (-1) ** (m - k))
                    yield Q(n, htilde_times(m, v)), rhs, "m=%d n=%d" % (m, n)

    def peel(op_star, gen):
        """op_star_k Q_xi.1 = 2 sum_i (-1)^i gen_(xi_i - k) Q_{xi without xi_i}.1,
        gen a multiplication operator."""
        for xi in strict_partitions(min(max_degree + 2, 6)):
            for k in range(1, max_degree + 2):
                rhs = zero
                for i, part in enumerate(xi):
                    if part >= k:
                        term = gen(part - k, schur_q(xi[:i] + xi[i + 1:]))
                        rhs = rhs + term.scale(-2 if i % 2 else 2)
                yield op_star(k, schur_q(xi)), rhs, "xi=%r k=%d" % (xi, k)

    def hH_on_vacuum():
        for mu in partitions(min(max_degree + 2, 6)):
            for k in range(0, max_degree + 1):
                rhs = zero
                for tau in weak_compositions(k, len(mu)):
                    l = support_size(tau)
                    term = hl_Q_prime(tuple(m - t for m, t in zip(mu, tau)))
                    rhs = rhs + term.scale((one_plus_t ** l).shift(k - l))
                yield htilde_star(k, hl_Q_prime(mu)), rhs, "mu=%r k=%d" % (mu, k)

    def gS_on_vacuum():
        for lam in partitions(min(max_degree + 2, 6)):
            for k in range(0, max_degree + 1):
                rhs = sum(map(schur_s, vertical_strip_subshapes(lam, k)), zero)
                yield e_minus(k, schur_s(lam)), rhs, "lam=%r k=%d" % (lam, k)

    def q_norm():
        for n in range(1, max_degree + 2):
            yield inner(hl_Q((n,)), hl_Q_prime((n,))), ONE - T, "n=%d" % n

    def q_orthogonality_spin():
        for n in range(1, min(max_degree + 2, 7)):
            for lam in strict_partitions(n):
                for xi in strict_partitions(n):
                    want = 2 ** len(lam) if lam == xi else 0
                    yield inner_at_minus_one(schur_q(lam), schur_q(xi)), want, "lam=%r xi=%r" % (lam, xi)

    def schur_orthonormal():
        for n in range(0, max_degree + 2):
            for lam in partitions(n):
                for mu in partitions(n):
                    want = 1 if lam == mu else 0
                    yield inner(schur_s(lam), schur_s(mu)), want, "lam=%r mu=%r" % (lam, mu)

    def htilde_neg_t():
        for n in range(0, max_degree + 2):
            rhs = zero
            for lam in partitions(n):
                q_lam = vacuum
                for part in lam:
                    q_lam = q_times(part, q_lam)
                rhs = rhs + q_lam.scale(eps(lam) * u_stat(lam))
            yield htilde(n).subs_neg_t(), rhs, "n=%d" % n

    check("com1 (H quadratic relation)", exchange(H, H, 1, -1))
    check("com2 (H* quadratic relation)", exchange(H_star, H_star, -1, 1))
    delta = (ONE - T) ** 2
    check("com3 (H/H* cross relation with delta term)", exchange(H, H_star, -1, -1, delta))
    check("com4 (vacuum annihilation)", com4())
    check("clifford (Q anticommutator)", clifford())
    check("adjacent swap (H / H*)", adjacent_swap())
    check("rel1 (H* past Q)", rel1())
    check("rel2 (htilde* past H)", rel2())
    check("rel3 (Q past htilde)", rel3())
    check("iterative (H* through Q-word, on vacuum, k >= 1)", peel(H_star, htilde_times))
    check("hH (htilde* through H-word, on vacuum)", hH_on_vacuum())
    check("iterative2 (S- through Q-word, on vacuum, k >= 1)", peel(S_minus, e_plus))
    check("gS (e- through S-word, on vacuum)", gS_on_vacuum())
    check("q norm <q_n,q_n> = 1-t", q_norm())
    check("Q orthogonality at t=-1", q_orthogonality_spin())
    check("Schur orthonormality", schur_orthonormal())
    check("htilde(-t) expansion in q_lam", htilde_neg_t())
    return report
