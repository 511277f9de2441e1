"""Outside-in tracer: wraps the library's callables from the benchmark's side.

Modules import helpers by name, so each wrapper is installed under every name
the callers look up (``spinkostka.engine.weak_compositions``, not only
``spinkostka.partitions.weak_compositions``).  Each wrapped call counts and,
unless it re-enters a recursive callable that already has an open span, opens
a span.  A layer's self time is the time its spans cover minus the time their
child spans cover.  Counts and self times are aggregated in memory and read
once, when the pass ends.

A target missing from the library (renamed or removed by a later change) is
skipped and listed in ``missing``; its counters stay 0.
"""

import time
from collections import Counter, defaultdict
from math import comb

_END = object()

# Each layer's self-time metric, keyed by the span layer name used below.
SELF_TIME_METRICS = {
    "polynomial.laurent_mul": "polynomial.laurent_mul_self_s",
    "polynomial.ratfunc": "polynomial.ratfunc_self_s",
    "engine": "engine.spin_kostka_self_s",
    "engine.htilde_expand": "engine.htilde_expand_self_s",
    "straighten": "straighten.self_s",
    "partitions": "partitions.self_s",
    "schur": "schur.self_s",
    "oracle": "oracle.self_s",
}

ORACLE_BASIS_CACHES = ("hl_Q", "schur_q", "schur_s", "htilde")


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.missing = []
        self._stack = []
        self._patches = []
        self._words = set()
        self._b_cache = None
        self._oracle_caches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, layer, count, reentrant=False, before=None, after=None):
        """Wrap fn: count every call, open a span unless re-entered."""
        stack, counts, self_s, clock = self._stack, self.counts, self.self_s, time.perf_counter
        depth = [0]

        def wrapper(*args, **kwargs):
            counts[count] += 1
            if before is not None:
                before(args)
            if reentrant and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[0] -= 1
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(out)
            return out

        return wrapper

    def _generator(self, fn, layer, count):
        """Wrap a generator function: each next() is a span, each item a count."""
        stack, counts, self_s, clock = self._stack, self.counts, self.self_s, time.perf_counter

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(items, _END)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_s[layer] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                if item is _END:
                    return
                counts[count] += 1
                yield item

        return wrapper

    def _counter(self, fn, count):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owners, name, make):
        """Install make(original) under `name` on every owner that has it;
        owners sharing one original share one wrapper."""
        wrapped = {}
        for owner in owners:
            original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
            if original is None:
                self.missing.append("%s.%s" % (getattr(owner, "__name__", owner), name))
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = make(original)
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapped[id(original)])

    def install(self):
        """Wrap the layers of the imported ``spinkostka`` package."""
        import spinkostka as sk
        from spinkostka import cli, engine, oracle, polynomial, schur, straighten

        counts = self.counts
        LaurentPoly, RatFunc = polynomial.LaurentPoly, polynomial.RatFunc

        def term_products(args):
            left, right = args
            n_right = len(right.coefficients()) if isinstance(right, LaurentPoly) else 1
            counts["polynomial.laurent_term_products"] += len(left.coefficients()) * n_right

        for name in ("__mul__", "__rmul__"):
            self._patch(
                [LaurentPoly],
                name,
                lambda f: self._span(f, "polynomial.laurent_mul", "polynomial.laurent_mul_calls", before=term_products),
            )
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__"):
            self._patch(
                [RatFunc], name, lambda f: self._span(f, "polynomial.ratfunc", "polynomial.ratfunc_ops")
            )
        self._patch(
            [polynomial],
            "qpoly_gcd",
            lambda f: self._span(f, "polynomial.ratfunc", "polynomial.qpoly_gcd_calls"),
        )

        self._patch(
            [engine.SpinKostkaEngine],
            "spin_kostka",
            lambda f: self._span(f, "engine", "engine.spin_kostka_calls"),
        )
        self._patch([engine.SpinKostkaEngine], "_fast_path", lambda f: self._counter(f, "engine.fast_path_calls"))

        def htilde_terms(out):
            counts["engine.htilde_terms"] += len(out)

        self._patch(
            [engine],
            "htilde_expand",
            lambda f: self._span(f, "engine.htilde_expand", "engine.htilde_expand_calls", after=htilde_terms),
        )
        self._patch([sk, engine], "kostka_hook", lambda f: self._counter(f, "engine.kostka_hook_calls"))

        words = self._words

        def straighten_word(args):
            words.add(tuple(args[1]))

        self._patch(
            [straighten.Straightener],
            "straighten",
            lambda f: self._span(f, "straighten", "straighten.calls", reentrant=True, before=straighten_word),
        )

        self._patch(
            [engine, oracle],
            "weak_compositions",
            lambda f: self._generator(f, "partitions", "partitions.weak_compositions_yielded"),
        )

        def strip_candidates(args):
            lam, k = args
            counts["partitions.vertical_strip_candidates"] += comb(len(lam), k) if 0 <= k <= len(lam) else 0

        def strip_shapes(out):
            counts["partitions.vertical_strip_shapes"] += len(out)

        self._patch(
            [schur, oracle],
            "vertical_strip_subshapes",
            lambda f: self._span(
                f, "partitions", "partitions.vertical_strip_calls", before=strip_candidates, after=strip_shapes
            ),
        )

        self._b_cache = getattr(schur, "b_coeff", None)
        self._patch(
            [sk, schur, cli],
            "b_coeff",
            lambda f: self._span(f, "schur", "schur.b_coeff_calls", reentrant=True),
        )

        def pexp_terms(out):
            counts["oracle.pexp_terms_out"] += len(getattr(out, "coeffs", ()))

        self._patch(
            [oracle],
            "apply_component",
            lambda f: self._span(f, "oracle", "oracle.apply_component_calls", after=pexp_terms),
        )
        self._patch([oracle], "inner", lambda f: self._span(f, "oracle", "oracle.inner_calls"))
        for name in ("oracle_spin_kostka", "oracle_spin_via_bK", "verify_relations"):
            self._patch([oracle], name, lambda f: self._span(f, "oracle", "oracle.entry_calls"))
        self._oracle_caches = [getattr(oracle, name, None) for name in ORACLE_BASIS_CACHES]

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Per-layer counts, ratios and self times of the traced pass."""
        c = self.counts
        out = {
            name: float(c[name])
            for name in (
                "polynomial.laurent_mul_calls",
                "polynomial.laurent_term_products",
                "polynomial.ratfunc_ops",
                "polynomial.qpoly_gcd_calls",
                "engine.spin_kostka_calls",
                "engine.htilde_expand_calls",
                "engine.htilde_terms",
                "engine.fast_path_calls",
                "engine.kostka_hook_calls",
                "straighten.calls",
                "partitions.weak_compositions_yielded",
                "partitions.vertical_strip_candidates",
                "schur.b_coeff_calls",
                "oracle.apply_component_calls",
                "oracle.pexp_terms_out",
                "oracle.inner_calls",
            )
        }
        out["straighten.distinct_words"] = float(len(self._words))
        out["straighten.hit_ratio"] = _ratio(c["straighten.calls"] - len(self._words), c["straighten.calls"])
        out["partitions.vertical_strip_yield_ratio"] = _ratio(
            c["partitions.vertical_strip_shapes"], c["partitions.vertical_strip_candidates"]
        )
        out["schur.b_cache_hit_ratio"] = _cache_hit_ratio([self._b_cache])
        out["oracle.basis_cache_hit_ratio"] = _cache_hit_ratio(self._oracle_caches)
        for layer, metric in SELF_TIME_METRICS.items():
            out[metric] = self.self_s[layer]
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _cache_hit_ratio(caches):
    hits = misses = 0
    for cache in caches:
        info = getattr(cache, "cache_info", None)
        if info is not None:
            stats = info()
            hits, misses = hits + stats.hits, misses + stats.misses
    return _ratio(hits, hits + misses)
