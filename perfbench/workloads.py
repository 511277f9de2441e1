"""Workload definitions and seeded input generation.

Inputs are built here, by the benchmark's own partition enumerators, so the
program under test only ever receives the generated inputs.  The same seed
always gives the same inputs.  ``WORKLOADS`` holds each workload's sizes; the
tests pass smaller sizes through the same functions.
"""

import random
from collections import Counter

WORKLOADS = {
    # Full K- table of one weight, cold memo, fresh process per pass: the
    # workload with the most shared subproblems (engine, straighten,
    # LaurentPoly products, weak compositions).  Its input depends on the
    # weight only; the seed changes nothing.
    "table-spin": {"n": 10},
    # One long-lived process answering a seeded closed-loop stream (one
    # client) through the module-level spin_kostka, b_coeff and kostka_hook:
    # memo hits, per-call overhead and the cold tail the table hides.
    # Every K- cell of the weight range is asked once in seeded order, so the
    # total work does not depend on the seed, only its order does.
    "query-mix": {
        "spin_weights": [6, 10],
        "b_weights": [10, 16],
        "hook_weights": [4, 12],
        "b_per_spin": 20 / 75,
        "hook_per_spin": 5 / 75,
        "repeat_share": 0.3,
    },
    # Full b table of one weight: schur and vertical strips do the work; no
    # LaurentPoly product, straightening or oracle runs.
    "b-table": {"n": 15},
    # The independent vertex-operator path with fresh caches: oracle values
    # on every cell of one weight and the b*K path on a smaller weight, in
    # seeded order, then the operator relations.  The relations' random test
    # vectors use a fixed seed: their cost varies by half from one seed to
    # another, which would swamp any change to the code.
    "oracle-verify": {"oracle_n": 7, "via_bk_n": 5, "relations_degree": 1, "relations_seed": 0},
}


def partitions(n, max_part=None):
    """Partitions of n with parts <= max_part, largest first."""
    if n == 0:
        return [()]
    if max_part is None or max_part > n:
        max_part = n
    return [
        (first,) + rest
        for first in range(max_part, 0, -1)
        for rest in partitions(n - first, first)
    ]


def strict_partitions(n, max_part=None):
    """Partitions of n into distinct parts <= max_part, largest first."""
    if n == 0:
        return [()]
    if max_part is None or max_part > n:
        max_part = n
    return [
        (first,) + rest
        for first in range(max_part, 0, -1)
        for rest in strict_partitions(n - first, first - 1)
    ]


def table_cells(n):
    """(xi, mu) for every cell of the weight-n table, rows mu, columns xi."""
    return [(xi, mu) for mu in partitions(n) for xi in strict_partitions(n)]


def _cells(weights):
    lo, hi = weights
    return [(xi, mu) for n in range(lo, hi + 1) for xi in strict_partitions(n) for mu in partitions(n)]


def query_stream(seed, p):
    """The query-mix stream: a list of (kind, args) with kind in spin/b/hook."""
    rng = random.Random(seed)
    spin = [("spin", cell) for cell in _cells(p["spin_weights"])]
    n_b = round(len(spin) * p["b_per_spin"])
    n_hook = round(len(spin) * p["hook_per_spin"])
    b = [("b", cell) for cell in rng.sample(_cells(p["b_weights"]), n_b)]
    lo, hi = p["hook_weights"]
    hooks = [(n, k, mu) for n in range(lo, hi + 1) for mu in partitions(n) for k in range(len(mu))]
    fresh = spin + b + [("hook", args) for args in rng.sample(hooks, n_hook)]
    rng.shuffle(fresh)
    total = round(len(fresh) / (1 - p["repeat_share"]))
    repeat_at = set(rng.sample(range(1, total), total - len(fresh)))
    stream, pending = [], iter(fresh)
    for i in range(total):
        stream.append(stream[rng.randrange(i)] if i in repeat_at else next(pending))
    return stream


def make_inputs(workload, seed, params):
    """The inputs of one pass, as plain tuples."""
    if workload in ("table-spin", "b-table"):
        return {"n": params["n"], "cells": table_cells(params["n"])}
    if workload == "query-mix":
        return {"queries": query_stream(seed, params)}
    if workload == "oracle-verify":
        rng = random.Random(seed)
        return {
            "oracle_cells": rng.sample(table_cells(params["oracle_n"]), len(table_cells(params["oracle_n"]))),
            "via_bk_cells": rng.sample(table_cells(params["via_bk_n"]), len(table_cells(params["via_bk_n"]))),
            "relations": {"max_degree": params["relations_degree"], "seed": params["relations_seed"]},
        }
    raise ValueError("unknown workload %r" % workload)


def properties(workload, inputs):
    """Input properties the metrics depend on: repeat share, weight histogram
    and query-kind shares."""
    if workload == "query-mix":
        queries = inputs["queries"]
        seen, repeats = set(), 0
        for q in queries:
            repeats += q in seen
            seen.add(q)
        kinds = Counter(kind for kind, _ in queries)
        weights = Counter(
            "%s:%d" % (kind, args[0] if kind == "hook" else sum(args[0])) for kind, args in queries
        )
        return {
            "queries": len(queries),
            "repeat_share": repeats / len(queries),
            "kind_shares": {k: v / len(queries) for k, v in sorted(kinds.items())},
            "weight_histogram": dict(sorted(weights.items())),
        }
    if workload == "oracle-verify":
        cells = inputs["oracle_cells"] + inputs["via_bk_cells"]
        weights = Counter("oracle:%d" % sum(xi) for xi, _ in inputs["oracle_cells"])
        weights.update("via_bk:%d" % sum(xi) for xi, _ in inputs["via_bk_cells"])
        return {"queries": len(cells) + 1, "repeat_share": 0.0, "weight_histogram": dict(weights)}
    return {
        "queries": len(inputs["cells"]),
        "repeat_share": 0.0,
        "weight_histogram": {str(inputs["n"]): len(inputs["cells"])},
    }
