"""Iterative computation of spin Kostka polynomials.

The engine implements the vertex-operator recurrence: peeling the largest
part mu_1 of mu pushes, for each part xi_i >= mu_1, the spin-h component
h~_k (k = xi_i - mu_1) through H_{mu_2}...H_{mu_l} on the vacuum, and
recurses on xi without xi_i against each partition of the result.
``htilde_expand`` builds that expansion and shares its sweeps across k and
mu (see its docstring).

Two closed forms are used as fast paths: one-row xi and the column mu = 1^n.
The leading-block factor 2 (xi_1 = mu_1) is no fast path: it is the
recurrence's i = 0 term, as h~_0 H_rest.1 = H_rest.1 and no later part of xi
reaches mu_1.  Nor is a two-part mu, one expansion over a single position.

Inside the engine every coefficient is packed into one int
(``polynomial.encode``): the expansions, the straightened words and the
memo of K^- values, the only store of a cell's value.  Each public ask
decodes the packed value afresh, after the slot check of ``spin_kostka``.
"""

from __future__ import annotations

from .partitions import _dominates, as_partition, n_stat, shifted_tableaux_count
from .polynomial import SLOT_BITS, ZERO, LaurentPoly, decode, encode, t_binomial
from .straighten import Straightener


def htilde_expand(k, mu, straightener, sweeps):
    """{lam: packed coefficient} with h~_k H_mu.1 = sum of coefficient * H_lam.1.

    Distributing the k cells of h~_k over the positions of mu gives weight 1
    to a position taking none and t^(c-1)(1+t) to a position taking c > 0:
    the sum of t^(k-l(tau)) (1+t)^l(tau) * straighten(mu - tau) over the weak
    compositions tau of k.  It is built as a product of one-position steps,
    from the right, over the states (cells used, straightened suffix): after
    each step the suffix is straightened back to the partition basis and
    equal states merge.

    Degree pruning: H_mu_j...H_mu_r.1 has degree mu_j + ... + mu_r, and a
    word of negative degree is 0.  A state's suffix weighs
    sum(mu[j+1:]) - used, so position j takes at most sum(mu[j:]) - used
    cells, and h~_k H_mu.1 = 0 for k > |mu|.

    Sweep reuse: the states after a suffix depend only on that suffix and
    on the cap on cells used.  ``sweeps`` maps a suffix mu[j:], j >= 1, to
    (cap, its states built with at most cap cells used); a fresh {} gives a
    one-shot sweep, and an engine keeps one, so every k of one mu and every
    mu sharing a tail reuse one sweep.  The walk starts from the longest
    suffix whose entry has cap >= k, and rebuilds the shorter ones with cap
    k.  So caps only grow, and a suffix of an entry has at least the entry's
    cap.  Reuse under a larger cap is exact: each step takes at most
    cap - used cells and used only grows, so the states with used <= k are
    exactly those that cap k builds; the others are skipped.  Position 0
    runs per k and takes exactly the k - used cells left, as a one-shot
    sweep does, so a cold cell straightens no word that the sweep for its
    own k would not."""
    if not 0 <= k <= sum(mu):
        return {}
    start, states = len(mu), {(0, ()): 1}
    for j in range(1, len(mu)):
        entry = sweeps.get(mu[j:])
        if entry is not None and entry[0] >= k:
            start, states = j, entry[1]
            break
    tail = sum(mu[start:])
    for j in range(start - 1, -1, -1):
        tail += mu[j]
        merged = {}
        get = merged.get
        for (used, suffix), coeff in states.items():
            free = k - used
            if free < 0:
                continue
            top = min(free, tail - used)
            coeff_1t = coeff + (coeff << SLOT_BITS)
            for take in range(free if j == 0 else 0, top + 1):
                weight = coeff_1t << (SLOT_BITS * (take - 1)) if take else coeff
                word = (mu[j] - take,) + suffix
                for lam, b in straightener.straighten(word).items():
                    key = (used + take, lam)
                    merged[key] = get(key, 0) + weight * b
        states = {key: c for key, c in merged.items() if c}
        if j:
            sweeps[mu[j:]] = (k, states)
    return {lam: coeff for (used, lam), coeff in states.items()}


def spin_kostka_one_row(mu):
    """Closed form for xi = (|mu|), mu a partition (``as_partition``)."""
    return _one_row(as_partition(mu, "mu"))


def _one_row(mu):
    """spin_kostka_one_row on a tuple: t^n(mu) * prod_i (1 + t^(1-i))."""
    out = LaurentPoly({n_stat(mu): 1})
    for i in range(1, len(mu) + 1):
        out = out + out.shift(1 - i)
    return out


def spin_kostka_two_part(xi, mu):
    """Closed form for mu with at most two parts, xi strict
    (``as_partition``); 0 if weights differ."""
    xi, mu = as_partition(xi, "xi", strict=True), as_partition(mu, "mu")
    if len(mu) > 2:
        raise ValueError("two-part closed form needs l(mu) <= 2")
    if sum(xi) != sum(mu):
        return ZERO
    if xi == mu:
        return LaurentPoly.const(2 ** len(xi))
    if not _dominates(xi, mu):
        return ZERO
    scale = 2 if len(xi) == 1 else 4
    d = xi[0] - mu[0]
    return LaurentPoly({d: scale, d - 1: scale})


def spin_kostka_column_packed(xi):
    """Packed K^-_{xi,1^n}(t) = t^n(xi) (t;t)_n prod_i (-1;t)_xi_i / (t;t)_xi_i
    prod_{i<j} (1 - t^(xi_i - xi_j)) / (1 - t^(xi_i + xi_j)), which is (t;t)_n
    times the principal specialization Q_xi(1, t, t^2, ...) (Macdonald III
    section 8), with (t;t)_xi_1 cancelled from (t;t)_n.  num = den * K in
    Z[t], and t -> 2^SLOT_BITS is a ring homomorphism, so the packed
    num // den is exactly the packed K."""
    num = den = 1
    for j in range(xi[0] + 1, sum(xi) + 1):
        num *= 1 - (1 << SLOT_BITS * j)
    for part in xi:
        num *= 2
        for j in range(1, part):
            num *= 1 + (1 << SLOT_BITS * j)
    for part in xi[1:]:
        for j in range(1, part + 1):
            den *= 1 - (1 << SLOT_BITS * j)
    for i, a in enumerate(xi):
        for b in xi[i + 1:]:
            num *= 1 - (1 << SLOT_BITS * (a - b))
            den *= 1 - (1 << SLOT_BITS * (a + b))
    k, r = divmod(num, den)
    if r:
        raise ArithmeticError("column closed form of xi=%r leaves a remainder" % (xi,))
    return k << SLOT_BITS * n_stat(xi)


def kostka_hook(n, k, mu):
    """Kostka-Foulkes polynomial K_{(n-k,1^k),mu}(t) by the hook closed form,
    for ints 0 <= k < n and a partition mu of n (``as_partition``)."""
    mu = as_partition(mu, "mu")
    if type(n) is not int or type(k) is not int or sum(mu) != n or not 0 <= k < n:
        raise ValueError("need ints n = |mu| and 0 <= k < n, got n=%r k=%r mu=%r" % (n, k, mu))
    l = len(mu)
    if k > l - 1:
        return ZERO
    exp = n_stat(mu) + k * (k + 1 - 2 * l) // 2
    return t_binomial(l - 1, k).shift(exp)


class SpinKostkaEngine:
    """Memoized recurrence engine.  Instances are cheap; each owns its memo
    tables (packed values, h~_k expansions and their sweep states per
    suffix)."""

    def __init__(self):
        self._memo = {}
        self._expansions = {}
        self._sweeps = {}
        self._straightener = Straightener()

    def spin_kostka(self, xi, mu):
        """K^-_{xi,mu}(t), xi strict (``as_partition``); 0 if weights differ.
        ``ValueError`` before any work on a cell past the slot (see
        ``polynomial.SLOT_BITS``)."""
        xi, mu = as_partition(xi, "xi", strict=True), as_partition(mu, "mu")
        n = sum(xi)
        if n != sum(mu):
            return ZERO
        # 2^n g^xi has n + bit_length(g^xi) bits, and it fits the slot (is
        # below SLOT_LIMIT) when they are fewer than SLOT_BITS.  From
        # n = SLOT_BITS - 1 on, 2^n alone does not fit, so g^xi is not computed.
        exact = n < SLOT_BITS - 1
        bits = n + (shifted_tableaux_count(xi).bit_length() if exact else 1)
        if bits >= SLOT_BITS:
            raise ValueError(
                "xi=%r mu=%r: K^- coefficients may reach 2^n g^xi, a number of %s%d bits, "
                "past the %d-bit slot"
                % (xi, mu, "" if exact else "at least ", bits, SLOT_BITS)
            )
        return decode(self._compute(xi, mu))

    def _compute(self, xi, mu):
        """Packed K^-_{xi,mu}(t) of a cell; xi and mu have equal weights."""
        if not xi:
            return 1
        key = (xi, mu)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._fast_path(xi, mu)
        if result is None:
            result = self._recurrence(xi, mu)
        self._memo[key] = result
        return result

    def _fast_path(self, xi, mu):
        if len(xi) == 1:
            return encode(_one_row(mu))
        if mu[0] == 1:
            return spin_kostka_column_packed(xi)
        return None

    def _expansion(self, k, rest):
        key = (k, rest)
        hit = self._expansions.get(key)
        if hit is None:
            hit = self._expansions[key] = htilde_expand(k, rest, self._straightener, self._sweeps)
        return hit

    def _recurrence(self, xi, mu):
        mu1, rest = mu[0], mu[1:]
        acc = 0
        for i, part in enumerate(xi):
            if part < mu1:
                break
            xi_hat = xi[:i] + xi[i + 1:]
            scale = -2 if i % 2 else 2
            for lam, coeff in self._expansion(part - mu1, rest).items():
                sub = self._compute(xi_hat, lam)
                if sub:
                    acc += scale * coeff * sub
        return acc


_default_engine = SpinKostkaEngine()


def spin_kostka(xi, mu):
    """Module-level convenience entry using a shared engine."""
    return _default_engine.spin_kostka(xi, mu)
