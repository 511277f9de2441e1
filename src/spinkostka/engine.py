"""Iterative computation of spin Kostka polynomials.

The engine implements the vertex-operator recurrence: peeling the largest
part mu_1 of mu pushes, for each part xi_i >= mu_1, the spin-h component
h~_k (k = xi_i - mu_1) through H_{mu_2}...H_{mu_l} on the vacuum, and
recurses on xi without xi_i against each partition of the result.

``htilde_expand`` builds that expansion right to left.  Distributing the k
cells of h~_k over the positions gives weight 1 to a position taking none
and t^(c-1)(1+t) to a position taking c > 0, so the expansion is a product
of one-position steps; after each step the suffix is straightened back to
the partition basis and equal states merge.

Closed forms (one-row xi, two-part mu, matching leading parts) are used as
fast paths.
"""

from __future__ import annotations

import json
import os
import tempfile

from .invariants import cell_failures
from .partitions import as_partition, dominates, n_stat
from .polynomial import ONE, ZERO, LaurentPoly, collect, collect_all, mul_into, t_binomial
from .straighten import Straightener

_ONE_PLUS_T = LaurentPoly({0: 1, 1: 1})


def htilde_expand(k, mu, straightener):
    """{lam: coefficient} with h~_k H_mu.1 = sum of coefficient * H_lam.1.

    Equivalent to summing t^(k-l(tau)) (1+t)^l(tau) * straighten(mu - tau)
    over the weak compositions tau of k in the positions of mu, but the
    sum is built one position at a time from the right, over the states
    (cells used, straightened suffix).

    Degree pruning: H_mu_j...H_mu_r.1 has degree mu_j + ... + mu_r, and a
    word of negative degree is 0.  A state's suffix weighs
    sum(mu[j+1:]) - used, so position j takes at most sum(mu[j:]) - used
    cells, and at j = 0 a state that cannot place all its remaining cells
    is dropped."""
    if k < 0:
        return {}
    states = {(0, ()): ONE}
    tail = 0
    for j in range(len(mu) - 1, -1, -1):
        tail += mu[j]
        merged = {}
        for (used, suffix), coeff in states.items():
            free = k - used
            top = min(free, tail - used)
            if top > 0:
                coeff_1t = coeff * _ONE_PLUS_T
            for take in range(free if j == 0 else 0, top + 1):
                weight, shift = (coeff_1t, take - 1) if take else (coeff, 0)
                word = (mu[j] - take,) + suffix
                for lam, b in straightener.straighten(word).items():
                    mul_into(merged.setdefault((used + take, lam), {}), weight, b, shift=shift)
        states = collect_all(merged)
    return {lam: coeff for (used, lam), coeff in states.items() if used == k}


def spin_kostka_one_row(mu):
    """Closed form for xi = (n): t^n(mu) * prod_i (1 + t^(1-i))."""
    out = LaurentPoly({n_stat(mu): 1})
    for i in range(1, len(mu) + 1):
        out = out * (ONE + LaurentPoly.term(1, 1 - i))
    return out


def spin_kostka_two_part(xi, mu):
    """Closed form for mu with at most two parts."""
    if len(mu) > 2:
        raise ValueError("two-part closed form needs l(mu) <= 2")
    xi, mu = tuple(xi), tuple(mu)
    if sum(xi) != sum(mu):
        return ZERO
    if xi == mu:
        return LaurentPoly.const(2 ** len(xi))
    if not dominates(xi, mu):
        return ZERO
    scale = 2 if len(xi) == 1 else 4
    d = xi[0] - mu[0]
    return LaurentPoly({d: scale, d - 1: scale})


def kostka_hook(n, k, mu):
    """Kostka-Foulkes polynomial K_{(n-k,1^k),mu}(t) by the hook closed form,
    for ints 0 <= k < n and a partition mu of n (``as_partition``)."""
    mu = as_partition(mu, "mu")
    if type(n) is not int or type(k) is not int or sum(mu) != n or not 0 <= k < n:
        raise ValueError("need ints n = |mu| and 0 <= k < n, got n=%r k=%r" % (n, k))
    l = len(mu)
    if k > l - 1:
        return ZERO
    exp = n_stat(mu) + k * (k + 1 - 2 * l) // 2
    return t_binomial(l - 1, k).shift(exp)


class SpinKostkaEngine:
    """Memoized recurrence engine.  Instances are cheap; each owns its memo
    tables (values and h~_k expansions)."""

    def __init__(self):
        self._memo = {}
        self._expansions = {}
        self._straightener = Straightener()

    def spin_kostka(self, xi, mu):
        """K^-_{xi,mu}(t), xi strict (``as_partition``); 0 if weights differ."""
        return self._compute(as_partition(xi, "xi", strict=True), as_partition(mu, "mu"))

    def _compute(self, xi, mu):
        if sum(xi) != sum(mu):
            return ZERO
        if not xi:
            return ONE
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
        if xi and mu and xi[0] == mu[0]:
            return 2 * self._compute(xi[1:], mu[1:])
        if len(xi) == 1:
            return spin_kostka_one_row(mu)
        if len(mu) <= 2:
            return spin_kostka_two_part(xi, mu)
        return None

    def _expansion(self, k, rest):
        key = (k, rest)
        hit = self._expansions.get(key)
        if hit is None:
            hit = self._expansions[key] = htilde_expand(k, rest, self._straightener)
        return hit

    def _recurrence(self, xi, mu):
        mu1, rest = mu[0], mu[1:]
        acc = {}
        for i, part in enumerate(xi):
            if part < mu1:
                break
            xi_hat = xi[:i] + xi[i + 1:]
            scale = -2 if i % 2 else 2
            for lam, coeff in self._expansion(part - mu1, rest).items():
                sub = self._compute(xi_hat, lam)
                if sub:
                    mul_into(acc, coeff, sub, scale)
        return collect(acc)

    # -- memo persistence ------------------------------------------------

    def memo_size(self):
        """Number of (xi, mu) values in the memo."""
        return len(self._memo)

    def save_cache(self, path):
        """Write the memo as JSON.  The data goes to a temporary file in the
        same directory first, so an interrupted save leaves the old file."""
        data = {
            "%s|%s" % (",".join(map(str, xi)), ",".join(map(str, mu))): poly.to_json()
            for (xi, mu), poly in self._memo.items()
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(data, fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load_cache(self, path):
        """Merge a memo written by ``save_cache``.  A missing file raises
        ``FileNotFoundError``.  A truncated or malformed file, or one with a
        key or value that ``invariants.cell_failures`` rejects, raises
        ``CacheError`` and leaves the memo as it was."""
        with open(path) as fh:
            try:
                entries = [
                    (_parse_key(key), LaurentPoly.from_json(poly))
                    for key, poly in json.load(fh).items()
                ]
            except (ValueError, TypeError, AttributeError) as exc:
                raise CacheError("malformed memo file %s: %s" % (path, exc)) from None
        for (xi, mu), value in entries:
            problems = cell_failures(xi, mu, value)
            if problems:
                raise CacheError(
                    "memo file %s, cell xi=%r mu=%r: %s"
                    % (path, xi, mu, "; ".join(problems))
                )
        self._memo.update(entries)


class CacheError(ValueError):
    """A memo file that cannot be read back, or that holds a wrong value."""


def _parse_key(key):
    xi_s, mu_s = key.split("|")
    return tuple(int(x) for x in xi_s.split(",") if x), tuple(int(x) for x in mu_s.split(",") if x)


_default_engine = SpinKostkaEngine()


def spin_kostka(xi, mu):
    """Module-level convenience entry using a shared engine."""
    return _default_engine.spin_kostka(xi, mu)
