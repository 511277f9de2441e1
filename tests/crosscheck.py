"""Reference paths that the library keeps only one of, for cross-checks.

``ReferenceStraightener`` rewrites H_nu.1 into the partition basis like
``spinkostka.straighten`` but shares no code with it.  It rewrites whole
words at an ascent, the leftmost or the rightmost first, where the library
straightens the tail first, so both strategies are independent of it.  It
can use the primitive two-term form of the quadratic relation instead of
the closed-form move table.  It returns ``LaurentPoly`` coefficients: the
tests compare them packed with the library's, and hand them on to the
oracle, so no test decodes a straightened word.

``PlainEngine`` is the K^- recurrence with the closed-form fast paths
switched off, and ``ColumnlessEngine`` the engine with only the mu = 1^n
closed form switched off.

``fraction_exact_div`` is exact polynomial division by long division over
``Fraction``, where ``LaurentPoly.exact_div`` divides in integers.

``row_subset_strips`` finds the vertical strips by trying every set of rows
and keeping the sets whose removal leaves a partition.

``reference_b`` is the vertical-strip recursion for b_{xi,lam} without the
conjugation fold of ``schur._b``, on uncached strips, so that the identity
b_{xi,lam} = b_{xi,lam'} is checked against a path that does not assume it.

``reference_conjugate`` counts the parts above each column, and
``fraction_eval_at`` sums c * t0^e over ``Fraction`` at every point, the
loops that ``conjugate`` and ``LaurentPoly.eval_at`` replaced.

``inverse_z_t`` builds 1 / z_lam(t) as a product, since ``RatFunc`` has no
division.

``vector`` builds a ``PExpansion`` from ``RatFunc`` coefficients, and
``coefficient`` reads one coefficient of a ``PExpansion`` as a ``RatFunc``:
the vector holds integer numerators over one denominator, and the
references below compute term by term in ``RatFunc``.

``g_square_alternating_sum`` is g_{(r,r),lam} from one- and two-row
b-coefficients and a hook term with its own arm, the path that
``schur.g_square``'s closed forms replaced.

``t_form_scaled`` is the t-deformed pairing times the common denominator
D_n = prod_k (1 - t^k)^(n // k) of every Gram value z_lam(t) with
|lam| <= n, so it holds no pole; ``t_form_pairing`` divides it by D_n
exactly.  ``t_form_spin_kostka`` and ``t_form_kostka_foulkes`` pair the
Hall-Littlewood Q_mu(x;t) under the t-deformed form this way, as the paper
defines K^- and K, where the oracle pairs the modified Q'_mu under the
canonical form.

``hl_P`` is the Hall-Littlewood P_mu(x;t) = Q_mu(x;t) / b_mu(t), with each
numerator divided by b_mu(t) exactly, and
``g_general`` the coefficient g_{mu,lam} of s_lam in P_mu(x;-1) for any
partition mu, which the square-shape closed forms are checked against.

``reference_apply_component`` is the oracle's operator component without
the grouping of the annihilation side: every (lam, sigma) term meets every
creation term on its own.

``reference_product`` multiplies two p-expansions term by term, where the
oracle multiplies by h~_n, e_n and q_n with their multiplication operators.

``reference_inner`` is the Hall pairing summed term by term in ``RatFunc``,
where the oracle sums integer numerators over one denominator.

``is_palindromic`` tests a ``LaurentPoly`` for palindromic coefficients,
a property that only the tests ask about.

``reference_one_row`` is the one-row closed form t^n(mu) prod_i (1 + t^(1-i))
as a product of ``LaurentPoly`` values, where the engine builds it packed by
shift and add.  ``reference_str`` renders a ``LaurentPoly`` word by word with
%-formatting, where ``LaurentPoly.__str__`` reads each exponent's text from a
table.

``packed`` encodes the ``LaurentPoly`` values of a {lam: coefficient}
map, the form in which the straightener and ``htilde_expand`` answer.

``package_imports`` names the package modules a source file imports, for
the tests that hold a module to the layers it may use.

``reference_as_partition``, ``reference_is_partition`` and
``reference_is_strict_partition`` are the boundary check and the validity
predicates as set-of-types and pairwise-``map`` formulas, where
``partitions`` checks each part in one loop.
"""

import ast
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm
from operator import ge, gt

from spinkostka.engine import SpinKostkaEngine
from spinkostka.oracle import PExpansion, hl_Q, multiplicities, schur_q, schur_s, z_stat
from spinkostka.partitions import as_partition, is_hook, n_stat, partitions, vertical_strip_subshapes
from spinkostka.polynomial import RF_ZERO, InexactDivisionError, LaurentPoly, RatFunc, encode
from spinkostka.schur import b_coeff

_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})
_T = LaurentPoly({1: 1})


def _table_moves(lo, hi):
    """H_lo H_hi = sum over a = 0..g//2 of c_a H_{hi-a} H_{lo+a}, g = hi - lo:
    c_0 = t, and c_a = t^(a-1) (t^2 - 1) for a >= 1, except
    c_{g/2} = t^(g/2-1) (t - 1) for even g."""
    gap = hi - lo
    moves = [(_T, (hi, lo))]
    for a in range(1, gap // 2 + 1):
        last = 1 if gap % 2 == 0 and 2 * a == gap else 2
        moves.append((LaurentPoly({a - 1 + last: 1, a - 1: -1}), (hi - a, lo + a)))
    return moves


def _primitive_moves(lo, hi):
    """H_lo H_hi = t H_hi H_lo + t H_{lo+1} H_{hi-1} - H_{hi-1} H_{lo+1}; for
    hi = lo + 1 the last two terms cancel."""
    if hi == lo + 1:
        return [(_T, (hi, lo))]
    return [(_T, (hi, lo)), (_T, (lo + 1, hi - 1)), (-_ONE, (hi - 1, lo + 1))]


class ReferenceStraightener:
    """Memoizing whole-word straightener with a choice of ascent
    ('leftmost' or 'rightmost', rewritten first) and of rule ('table' or
    'primitive').  Neither order is the library's tail-first rule."""

    def __init__(self, strategy, rule):
        if strategy not in ("leftmost", "rightmost") or rule not in ("table", "primitive"):
            raise ValueError("unknown strategy %r or rule %r" % (strategy, rule))
        self._rightmost = strategy == "rightmost"
        self._moves = _table_moves if rule == "table" else _primitive_moves
        self._memo = {}

    def straighten(self, nu):
        nu = tuple(nu)
        if nu not in self._memo:
            self._memo[nu] = self._compute(nu)
        return self._memo[nu]

    def _compute(self, nu):
        while nu and nu[-1] == 0:
            nu = nu[:-1]
        if nu and nu[-1] < 0:
            return {}
        ascents = [i for i in range(len(nu) - 1) if nu[i] < nu[i + 1]]
        if not ascents:
            return {nu: _ONE}
        i = ascents[-1] if self._rightmost else ascents[0]
        out = {}
        for coeff, pair in self._moves(nu[i], nu[i + 1]):
            for lam, c in self.straighten(nu[:i] + pair + nu[i + 2:]).items():
                out[lam] = out.get(lam, _ZERO) + coeff * c
        return {lam: c for lam, c in out.items() if not c.is_zero()}


class PlainEngine(SpinKostkaEngine):
    """The K^- recurrence without the closed-form fast paths."""

    def _fast_path(self, xi, mu):
        return None


class ColumnlessEngine(SpinKostkaEngine):
    """The engine whose cells with mu = 1^n all come from the recurrence."""

    def _fast_path(self, xi, mu):
        return None if mu[0] == 1 else super()._fast_path(xi, mu)


def fraction_exact_div(a, b):
    """a / b for Laurent polynomials: divide the coefficient lists over
    ``Fraction``, then require a zero remainder and an integer quotient.
    ``InexactDivisionError`` otherwise, ``ZeroDivisionError`` for b = 0."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return a
    num = [Fraction(a.coeff(e)) for e in range(a.valuation(), a.degree() + 1)]
    den = [Fraction(b.coeff(e)) for e in range(b.valuation(), b.degree() + 1)]
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    if not quot:
        raise InexactDivisionError("degree of dividend below divisor")
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = num[i + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num) or any(q.denominator != 1 for q in quot):
        raise InexactDivisionError("inexact polynomial division")
    shift = a.valuation() - b.valuation()
    return LaurentPoly({i + shift: int(q) for i, q in enumerate(quot)})


def row_subset_strips(lam, k):
    """Partitions rho inside lam with lam/rho a vertical k-strip: remove one
    cell from each row of every k-subset of rows, keep what is still weakly
    decreasing, and drop the zero rows."""
    if k < 0 or k > len(lam):
        return []
    out = []
    for rows in combinations(range(len(lam)), k):
        vec = [part - 1 if i in rows else part for i, part in enumerate(lam)]
        if all(a >= b for a, b in zip(vec, vec[1:])):
            out.append(tuple(p for p in vec if p > 0))
    return out


_uncached_strips = vertical_strip_subshapes.__wrapped__


@lru_cache(maxsize=None)
def reference_b(xi, lam):
    """b_{xi,lam} for a strict xi and a partition lam, as tuples: peel lam_1
    and sum over the vertical strips of the remaining rows, with no fold."""
    if sum(xi) != sum(lam):
        return 0
    if not xi:
        return 1
    if len(xi) == 1:
        return 2 if is_hook(lam) else 0
    lam1, rest = lam[0], lam[1:]
    total = 0
    for i, part in enumerate(xi):
        if part < lam1:
            break
        sign = -1 if i % 2 else 1
        xi_hat = xi[:i] + xi[i + 1:]
        for rho in _uncached_strips(rest, part - lam1):
            total += sign * 2 * reference_b(xi_hat, rho)
    return total


def g_square_alternating_sum(r, lam):
    """g_{(r,r),lam} as the alternating sum of one- and two-row b-coefficients
    plus the hook delta term."""
    lam = tuple(lam)
    n = 2 * r
    if sum(lam) != n:
        raise ValueError("need |lam| = 2r")
    total = Fraction(0)
    for i in range(r):
        xi = (n,) if i == 0 else (n - i, i)
        sign = -1 if (i + r + 1) % 2 else 1
        total += Fraction(sign * b_coeff(xi, lam), 4)
    if is_hook(lam):
        j = len(lam) - 1
        total += Fraction(-1 if (r + j) % 2 else 1, 2)
    if total.denominator != 1:
        raise ArithmeticError("non-integer g value %s for lam=%r" % (total, lam))
    return int(total)


def reference_conjugate(lam):
    """The transpose of lam: column i has one cell for each part above i."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def fraction_eval_at(a, t0):
    """The Laurent polynomial a at t0, summed term by term over ``Fraction``."""
    t0 = Fraction(t0)
    total = Fraction(0)
    for e, c in a.terms.items():
        total += c * t0 ** e
    return total


def _one_minus_tn(n):
    return LaurentPoly({0: 1, n: -1})


def vector(coeffs):
    """The ``PExpansion`` sum of c * p_lam over the items (lam, c) of coeffs,
    for ``RatFunc`` values c."""
    den = lcm(*[c.den for c in coeffs.values()])
    return PExpansion({lam: c.num * (den // c.den) for lam, c in coeffs.items()}, den)


def coefficient(F, lam):
    """The coefficient of p_lam in the ``PExpansion`` F, as a ``RatFunc``."""
    return RatFunc(F.coeffs.get(lam, 0), F.den)


def inverse_z_t(lam):
    """1 / z_lam(t) = prod_i (1 - t^lam_i) / z_lam."""
    num = _ONE
    for part in lam:
        num = num * _one_minus_tn(part)
    return RatFunc(num, z_stat(lam))


@lru_cache(maxsize=None)
def _scaled_gram(lam, n):
    """D_n z_lam(t) = z_lam prod_k (1 - t^k)^(n // k - m_k(lam)), where
    D_n = prod_{k <= n} (1 - t^k)^(n // k) is divisible by prod_i (1 - t^lam_i)
    for every lam with |lam| <= n; D_n itself is the value at lam = ()."""
    out = LaurentPoly.const(z_stat(lam))
    m = Counter(lam)
    for k in range(1, n + 1):
        out = out * _one_minus_tn(k) ** (n // k - m[k])
    return out


def t_form_scaled(F, G, n):
    """D_n <F, G>_t for F and G of weight <= n: each Gram value z_lam(t) is
    brought over D_n, so the sum holds no pole."""
    total = RatFunc(0)
    for lam in F.coeffs:
        if lam in G.coeffs:
            total = total + coefficient(F, lam) * coefficient(G, lam) * RatFunc(_scaled_gram(lam, n))
    return total


def t_form_pairing(F, G, n):
    """<F, G>_t for F and G of weight <= n whose pairing lies in Q[t, 1/t]:
    D_n <F, G>_t divided by D_n with one exact division."""
    scaled = t_form_scaled(F, G, n)
    return RatFunc(scaled.num.exact_div(_scaled_gram((), n)), scaled.den)


def t_form_spin_kostka(xi, mu):
    """K^-_{xi,mu}(t) = <Q_mu(x;t), Q_xi>_t for tuples of equal weight."""
    return t_form_pairing(hl_Q(mu), schur_q(xi), sum(mu)).to_laurent()


def t_form_kostka_foulkes(lam, mu):
    """K_{lam,mu}(t) = <s_lam, Q_mu(x;t)>_t for tuples of equal weight."""
    return t_form_pairing(schur_s(lam), hl_Q(mu), sum(mu)).to_laurent()


def hl_P(mu):
    """Hall-Littlewood P_mu(x;t) = Q_mu(x;t) / b_mu(t) with the standard
    normalization b_mu(t) = prod_i prod_{j<=m_i} (1 - t^j), which divides
    the numerator of every coefficient of Q_mu(x;t) exactly."""
    b = _ONE
    for m in multiplicities(mu).values():
        for j in range(1, m + 1):
            b = b * _one_minus_tn(j)
    Q = hl_Q(mu)
    return PExpansion({lam: c.exact_div(b) for lam, c in Q.coeffs.items()}, Q.den)


def g_general(mu, lam):
    """Coefficient of s_lam in P_mu(x;-1), for arbitrary partitions mu."""
    mu, lam = as_partition(mu, "mu"), as_partition(lam, "lam")
    if sum(mu) != sum(lam):
        return 0
    P = hl_P(mu)
    S = schur_s(lam)
    total = Fraction(0)
    for key in P.coeffs:
        if key in S.coeffs:
            total += P.coeffs[key].eval_at(-1) * S.coeffs[key].eval_at(-1) * z_stat(key)
    total /= P.den * S.den
    if total.denominator != 1:
        raise ArithmeticError("non-integer g value %s" % total)
    return int(total)


def _reference_exp_coeff(seq, rho):
    """prod_i seq(rho_i) / prod_k m_k(rho)!, the coefficient of the monomial
    of type rho in exp(sum_n seq(n) x_n)."""
    c = RatFunc(1)
    for part in rho:
        c = c * seq(part)
    for m in Counter(rho).values():
        c = c * RatFunc(1, factorial(m))
    return c


def reference_apply_component(spec, m, F):
    """The z^m component of the operator ``spec`` applied to F, term by term:
    for every p_lam in F and every sigma whose parts lam contains,
    d_sigma p_lam = deriv * p_(lam - sigma), times the creation term of
    every rho |- m + |sigma|."""
    out = {}
    for lam in F.coeffs:
        c, lam_mult = coefficient(F, lam), Counter(lam)
        for s in range(sum(lam) + 1):
            r = m + s
            if r < 0:
                continue
            for sigma in partitions(s):
                deriv = 1
                for part, k in Counter(sigma).items():
                    for j in range(k):
                        deriv *= lam_mult.get(part, 0) - j
                if not deriv:
                    continue
                base = list(lam)
                for part in sigma:
                    base.remove(part)
                scalar = c * _reference_exp_coeff(spec.annihilation, sigma) * deriv
                for rho in partitions(r):
                    key = tuple(sorted(base + list(rho), reverse=True))
                    term = scalar * _reference_exp_coeff(spec.creation, rho)
                    out[key] = out.get(key, RatFunc(0)) + term
    return vector(out)


def reference_product(F, G):
    """The product of the p-expansions F and G, term by term."""
    out = {}
    for lam in F.coeffs:
        for mu in G.coeffs:
            key = tuple(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, RF_ZERO) + coefficient(F, lam) * coefficient(G, mu)
    return vector(out)


def reference_inner(F, G):
    """<F, G> under the canonical (Hall) form, with the integer Gram values
    z_lam, summed term by term."""
    total = RF_ZERO
    for lam in F.coeffs:
        if lam in G.coeffs:
            total = total + coefficient(F, lam) * coefficient(G, lam) * z_stat(lam)
    return total


def is_palindromic(p):
    """True iff t**m * p(1/t) == p(t) for some integer m."""
    if p.is_zero():
        return True
    terms = p.terms
    seq = [terms.get(e, 0) for e in range(p.valuation(), p.degree() + 1)]
    return seq == seq[::-1]


def reference_one_row(mu):
    out = LaurentPoly({n_stat(mu): 1})
    for i in range(1, len(mu) + 1):
        out = out + out.shift(1 - i)
    return out


def reference_str(p):
    terms = p.terms
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
    return " + ".join(words).replace("+ -", "- ")


def packed(terms):
    return {lam: encode(c) for lam, c in terms.items()}


def package_imports(path):
    """The spinkostka modules a source file imports, by their short names;
    "" stands for the package itself, whose __init__ imports the engine."""
    found = set()
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "spinkostka":
                    found.add(rest.partition(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module and node.module.partition(".")[0] == "spinkostka":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                found.add(module.partition(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def reference_is_partition(seq):
    return all(map(ge, seq, seq[1:])) and (not seq or seq[-1] >= 1)


def reference_is_strict_partition(seq):
    return all(map(gt, seq, seq[1:])) and (not seq or seq[-1] >= 1)


def reference_as_partition(seq, name, strict=False):
    parts = tuple(seq) if isinstance(seq, (list, tuple)) else (None,)
    valid = reference_is_strict_partition if strict else reference_is_partition
    if not {int}.issuperset(map(type, parts)) or not valid(parts):
        kind = "strict partition" if strict else "partition"
        raise ValueError("%s must be a %s of ints, got %r" % (name, kind, seq))
    return parts
