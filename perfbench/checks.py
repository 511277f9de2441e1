"""Output checks, on plain data, independent of the library's arithmetic.

A K- value or a Kostka-Foulkes value arrives as a dict {exponent: coefficient};
a b value as an int.  Each ``check_*`` function returns the names of the
checks the output fails, so an empty list means the output is correct.
"""

import gzip
import json
import os
from functools import lru_cache

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json.gz")


def load_reference(path=REFERENCE_PATH):
    """{"spin": {(xi, mu): poly}, "b": {(xi, lam): int}, plus the weights each
    covers}.  Only nonzero cells are stored; a covered cell that is absent
    is zero."""
    with gzip.open(path, "rt") as fh:
        data = json.load(fh)
    spin = {
        (tuple(xi), tuple(mu)): {e: c for e, c in terms}
        for cells in data["spin"].values()
        for xi, mu, terms in cells
    }
    b = {(tuple(xi), tuple(lam)): v for cells in data["b"].values() for xi, lam, v in cells}
    return {
        "spin": spin,
        "b": b,
        "spin_weights": {int(n) for n in data["spin"]},
        "b_weights": {int(n) for n in data["b"]},
    }


def reference_spin(ref, xi, mu):
    if sum(xi) not in ref["spin_weights"]:
        raise KeyError("no K- reference for weight %d" % sum(xi))
    return ref["spin"].get((xi, mu), {})


def reference_b(ref, xi, lam):
    if sum(xi) not in ref["b_weights"]:
        raise KeyError("no b reference for weight %d" % sum(xi))
    return ref["b"].get((xi, lam), 0)


# -- plain-data polynomials ----------------------------------------------


def poly_from_json(data):
    """LaurentPoly.to_json() output -> {int: int} without zero terms."""
    return {int(e): int(c) for e, c in data.items() if int(c)}


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_scale(a, k):
    return {e: k * c for e, c in a.items() if k * c}


def eval_minus_one(p):
    return sum(c if e % 2 == 0 else -c for e, c in p.items())


def dominates(lam, mu):
    if sum(lam) != sum(mu):
        return False
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def n_stat(lam):
    return sum(i * part for i, part in enumerate(lam))


def is_hook(lam):
    return all(part == 1 for part in lam[1:])


def one_row_spin(mu):
    """K-_{(n),mu}(t) = t^n(mu) * prod_{i=1}^{l(mu)} (1 + t^(1-i))."""
    out = {n_stat(mu): 1}
    for i in range(1, len(mu) + 1):
        out = poly_mul(out, {0: 2} if i == 1 else {0: 1, 1 - i: 1})
    return out


def two_part_spin(xi, mu):
    """K-_{xi,mu}(t) for l(mu) <= 2."""
    if xi == mu:
        return {0: 2 ** len(xi)}
    if not dominates(xi, mu):
        return {}
    scale = 2 if len(xi) == 1 else 4
    d = xi[0] - mu[0]
    return {d: scale, d - 1: scale}


@lru_cache(maxsize=None)
def t_binomial(n, k):
    """Gauss binomial as a tuple of coefficients, by the t-Pascal rule
    [n, k] = [n-1, k-1] + t^k [n-1, k]."""
    if k < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    left, right = t_binomial(n - 1, k - 1), t_binomial(n - 1, k)
    out = [0] * max(len(left), len(right) + k)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + k] += c
    return tuple(out)


def hook_kostka(n, k, mu):
    """K_{(n-k,1^k),mu}(t) = t^(n(mu) + k(k+1-2l)/2) [l-1, k]_t, zero for k > l-1."""
    l = len(mu)
    if k > l - 1:
        return {}
    shift = n_stat(mu) + k * (k + 1 - 2 * l) // 2
    return {i + shift: c for i, c in enumerate(t_binomial(l - 1, k)) if c}


@lru_cache(maxsize=None)
def count_hook_strips(lam, s):
    """N^(s)(lam): hooks rho inside lam minus its first row with the skew
    shape a vertical s-strip.  Rows below the first of such a rho are 0 or 1,
    so the rows of length 2 keep one cell and a prefix of the rows of length
    1 keeps theirs."""
    rest = lam[1:]
    if not rest:
        return 1 if s == 0 else 0
    if any(part > 2 for part in rest[1:]):
        return 0
    twos = sum(1 for part in rest[1:] if part == 2)
    ones = len(rest) - 1 - twos
    count = 0
    for first in {rest[0], rest[0] - 1}:
        for kept in range(ones + 1):
            below = twos + kept
            if first < 0 or (below and first < 1):
                continue
            if sum(rest) - (first + below) == s:
                count += 1
    return count


def two_row_b(xi, lam):
    """b_{(n-m,m),lam} = 4 (N^(n-m-lam_1)(lam) - N^(m-lam_1)(lam))."""
    m = xi[1]
    return 4 * (count_hook_strips(lam, xi[0] - lam[0]) - count_hook_strips(lam, m - lam[0]))


# -- per-output checks ------------------------------------------------------


def check_spin(ref, xi, mu, value):
    """The K- checks: divisibility by 2^l(xi), the value at t=-1, vanishing
    without dominance, the degree bound, the leading-block factorization,
    the one-row and two-part closed forms, and the committed reference."""
    failed = []
    scale = 2 ** len(xi)
    if any(c % scale for c in value.values()):
        failed.append("divisible_by_2^l")
    if eval_minus_one(value) != (scale if xi == mu else 0):
        failed.append("value_at_-1")
    if not dominates(xi, mu) and value:
        failed.append("zero_without_dominance")
    if value and max(value) > n_stat(mu):
        failed.append("degree_bound")
    if xi and mu and xi[0] == mu[0]:
        if value != poly_scale(reference_spin(ref, xi[1:], mu[1:]), 2):
            failed.append("leading_block")
    if len(xi) == 1 and value != one_row_spin(mu):
        failed.append("one_row_closed_form")
    if len(mu) <= 2 and value != two_part_spin(xi, mu):
        failed.append("two_part_closed_form")
    if value != reference_spin(ref, xi, mu):
        failed.append("reference")
    return failed


def check_b(ref, xi, lam, value):
    """The b checks: divisibility by 2^l(xi), vanishing unless xi dominates
    lam, the hook and two-row closed forms, and the committed reference."""
    failed = []
    if value % 2 ** len(xi):
        failed.append("divisible_by_2^l")
    if value and not dominates(xi, lam):
        failed.append("zero_without_dominance")
    if len(xi) == 1 and value != (2 if is_hook(lam) else 0):
        failed.append("hook_closed_form")
    if len(xi) == 2 and 2 * xi[1] < sum(xi) and value != two_row_b(xi, lam):
        failed.append("two_row_closed_form")
    if value != reference_b(ref, xi, lam):
        failed.append("reference")
    return failed


def check_hook(n, k, mu, value):
    return [] if value == hook_kostka(n, k, mu) else ["hook_closed_form"]


# -- per-pass checks ----------------------------------------------------------


def check_pass(workload, inputs, result, ref, oracle_sample=None):
    """(outputs checked, [(output, failed checks)]) for one pass."""
    if workload in ("table-spin", "b-table"):
        return _check_table(workload == "table-spin", inputs, result, ref)
    if workload == "query-mix":
        return _check_queries(inputs, result["outputs"], ref, oracle_sample or {})
    return _check_oracle(inputs, result["outputs"], ref)


def _b_value(data):
    """A b table cell arrives as a constant LaurentPoly."""
    poly = poly_from_json(data)
    return poly.get(0, 0) if set(poly) <= {0} else None


def _check_table(spin, inputs, result, ref):
    got = {(tuple(xi), tuple(mu)): value for xi, mu, value in result["outputs"]}
    failures = []
    for cell in inputs["cells"]:
        if cell not in got:
            failures.append((cell, ["missing"]))
            continue
        if spin:
            failed = check_spin(ref, *cell, poly_from_json(got[cell]))
        else:
            value = _b_value(got[cell])
            failed = ["not_an_integer"] if value is None else check_b(ref, *cell, value)
        if failed:
            failures.append((cell, failed))
    extra = set(got) - set(inputs["cells"])
    failures += [(cell, ["unexpected_cell"]) for cell in sorted(extra)]
    rows = len({mu for _, mu in inputs["cells"]})
    cols = len({xi for xi, _ in inputs["cells"]})
    if result["render"] != [rows + 2, cols + 1]:
        failures.append(("rendered table", ["layout %r" % (result["render"],)]))
    return len(inputs["cells"]) + len(extra) + 1, failures


def _check_queries(inputs, outputs, ref, oracle_sample):
    queries = inputs["queries"]
    failures = [(q, ["missing"]) for q in queries[len(outputs):]]
    first = {}
    for query, out in zip(queries, outputs):
        kind, args = query
        if kind == "b":
            value = out
            failed = check_b(ref, *args, value) if isinstance(value, int) else ["not_an_integer"]
        else:
            value = poly_from_json(out)
            failed = check_spin(ref, *args, value) if kind == "spin" else check_hook(*args, value)
            if kind == "spin" and args in oracle_sample and value != oracle_sample[args]:
                failed.append("oracle")
        if query in first and value != first[query]:
            failed.append("repeat_differs")
        first.setdefault(query, value)
        if failed:
            failures.append((query, failed))
    return len(queries), failures


def _check_oracle(inputs, outputs, ref):
    failures = []
    for name in ("oracle", "via_bk"):
        cells = inputs[name + "_cells"]
        values = outputs[name]
        failures += [(cell, ["missing"]) for cell in cells[len(values):]]
        for cell, value in zip(cells, values):
            if poly_from_json(value) != reference_spin(ref, *cell):
                failures.append((cell, [name + "_vs_engine"]))
    relations = outputs["relations"]
    if not (relations["ok"] and relations["results"] and all(ok for _, ok in relations["results"])):
        failures.append(("relations", [name for name, ok in relations["results"] if not ok] or ["report_not_ok"]))
    return len(inputs["oracle_cells"]) + len(inputs["via_bk_cells"]) + 1, failures
