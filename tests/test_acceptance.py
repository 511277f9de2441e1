"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Criterion 1 checks every cell of the published reference tables.  One
published cell is a confirmed misprint (three independent computations
agree on a different value, and the printed entry violates the degree
bound deg K^- <= n(mu)); criterion 1 holds that cell to its verified value
and requires the cells that differ from the print to be exactly those in
goldens.KNOWN_DISCREPANCIES.  All tests pass.
"""

import random
import time

from spinkostka.engine import (
    spin_kostka,
    spin_kostka_one_row,
    spin_kostka_two_part,
)
from spinkostka.goldens import KNOWN_DISCREPANCIES, published_tables
from spinkostka.invariants import failures
from spinkostka.oracle import (
    inner_at_minus_one,
    oracle_b,
    oracle_spin_kostka,
    oracle_spin_via_bK,
    schur_q,
    verify_relations,
)
from spinkostka.partitions import (
    conjugate,
    is_hook,
    n_stat,
    partitions,
    strict_partitions,
)
from spinkostka.polynomial import LaurentPoly
from spinkostka.schur import (
    b_coeff,
    b_two_row,
    g_coeff,
    g_square,
)
from spinkostka.straighten import Straightener

from crosscheck import (
    PlainEngine,
    ReferenceStraightener,
    g_general,
    g_square_alternating_sum,
    is_palindromic,
    packed,
    reference_b,
)


def _report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = "[PRIMARY] criterion %d: %s (%.1fs)" % (criterion, status, elapsed)
    if detail:
        line += " - %s" % detail
    print(line)
    assert ok, line


def test_criterion_1_table_reproduction():
    """Every published cell is reproduced, except the documented misprints,
    which must take their verified value; the cells that differ from the
    print must be exactly the documented ones."""
    t0 = time.perf_counter()
    mismatches = []
    differing = set()
    for n, rows in published_tables().items():
        for mu, cells in rows.items():
            for xi, published in cells.items():
                got = spin_kostka(xi, mu)
                known = KNOWN_DISCREPANCIES.get((n, mu, xi))
                want = published if known is None else known["verified"]()
                if got != published:
                    differing.add((n, mu, xi))
                if got != want:
                    mismatches.append(
                        "n=%d xi=%r mu=%r: computed %s, expected %s, published %s"
                        % (n, xi, mu, got, want, published)
                    )
    documented = set(KNOWN_DISCREPANCIES)
    if differing != documented:
        mismatches.append(
            "undocumented differences %s; documented cells that match the "
            "print or are not in it %s"
            % (sorted(differing - documented), sorted(documented - differing))
        )
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 5.0
    _report(1, ok, elapsed, "; ".join(mismatches))


def test_known_discrepancies_are_misprints():
    """The evidence that each documented published cell is wrong and its
    verified value right: the printed value breaks deg K^- <= n(mu), and
    two paths that share no algorithm with the engine give the verified
    value."""
    assert KNOWN_DISCREPANCIES
    for (n, mu, xi), entry in KNOWN_DISCREPANCIES.items():
        published = entry["published"]()
        verified = entry["verified"]()
        assert published == published_tables()[n][mu][xi]
        assert published.degree() > n_stat(mu) >= verified.degree()
        assert verified == oracle_spin_kostka(xi, mu)
        assert verified == oracle_spin_via_bK(xi, mu)


def test_criterion_2_worked_examples():
    t0 = time.perf_counter()
    ok = (
        spin_kostka((3, 1), (2, 2)) == LaurentPoly({1: 4, 0: 4})
        and spin_kostka((4, 3, 1), (3, 3, 2)) == LaurentPoly({2: 8, 1: 16, 0: 8})
        and spin_kostka((3, 2), (2, 1, 1, 1)) == LaurentPoly({4: 4, 3: 8, 2: 12, 1: 8})
        and not is_palindromic(spin_kostka((3, 2), (2, 1, 1, 1)))
    )
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 1.0, elapsed)


def test_criterion_3_closed_forms():
    t0 = time.perf_counter()
    plain = PlainEngine()
    bad = []
    for n in range(1, 9):
        for mu in partitions(n):
            if plain.spin_kostka((n,), mu) != spin_kostka_one_row(mu):
                bad.append(("one-row", mu))
            if len(mu) <= 2:
                for xi in strict_partitions(n):
                    if plain.spin_kostka(xi, mu) != spin_kostka_two_part(xi, mu):
                        bad.append(("two-part", xi, mu))
    elapsed = time.perf_counter() - t0
    _report(3, not bad and elapsed < 30.0, elapsed, "; ".join(map(str, bad)))


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    bad = []
    for n in range(0, 13):
        for xi in strict_partitions(n):
            for mu in partitions(n):
                if spin_kostka(xi, mu) != oracle_spin_kostka(xi, mu):
                    bad.append((xi, mu))
    for n in range(0, 10):
        for xi in strict_partitions(n):
            for mu in partitions(n):
                if oracle_spin_via_bK(xi, mu) != spin_kostka(xi, mu):
                    bad.append(("bK", xi, mu))
    elapsed = time.perf_counter() - t0
    _report(4, not bad and elapsed < 300.0, elapsed, "; ".join(map(str, bad)))


def test_criterion_5_corollaries():
    """Vanishing unless xi dominates mu, divisibility by 2^l(xi), the value
    at t = -1, the diagonal, deg <= n(mu) and the leading-block factor on
    every cell of weight <= 7; stability for r = 1, 2, 3."""
    t0 = time.perf_counter()
    bad = failures(spin_kostka, range(1, 8), range(1, 8), grow=(1, 2, 3))
    elapsed = time.perf_counter() - t0
    _report(5, not bad, elapsed, "; ".join(bad))


def test_criterion_6_schur_suite():
    t0 = time.perf_counter()
    bad = []
    if b_coeff((4, 3), (2, 2, 2, 1)) != 4:
        bad.append("b example")
    for n in range(1, 10):
        for lam in partitions(n):
            if b_coeff((n,), lam) != (2 if is_hook(lam) else 0):
                bad.append(("hook", lam))
    for n in range(3, 11):
        for m in range(1, (n + 1) // 2):
            if 2 * m >= n:
                continue
            for lam in partitions(n):
                if b_two_row(n, m, lam) != b_coeff((n - m, m), lam):
                    bad.append(("two-row", n, m, lam))
    for n in range(1, 10):
        for xi in strict_partitions(n):
            for lam in partitions(n):
                if g_coeff(xi, conjugate(lam)) * 2 ** len(xi) != reference_b(xi, lam):
                    bad.append(("duality", xi, lam))
    for n in range(0, 9):
        for xi in strict_partitions(n):
            for lam in partitions(n):
                if b_coeff(xi, lam) != oracle_b(xi, lam):
                    bad.append(("oracle-b", xi, lam))
    elapsed = time.perf_counter() - t0
    _report(6, not bad and elapsed < 120.0, elapsed, "; ".join(map(str, bad)))


def test_criterion_7_square_shapes():
    t0 = time.perf_counter()
    bad = []
    for r in range(1, 6):
        for lam in partitions(2 * r):
            closed = g_square(r, lam)
            if closed != g_square_alternating_sum(r, lam):
                bad.append(("alternating", r, lam))
            if closed != g_general((r, r), lam):
                bad.append(("oracle", r, lam))
    from spinkostka.partitions import ShapeKind, classify_shape

    for r in range(1, 7):  # double-hook window for 2r <= 12
        for lam in partitions(2 * r):
            shape = classify_shape(lam)
            if shape.kind is not ShapeKind.DOUBLE_HOOK_PROPER:
                continue
            inside = shape.lam2 + shape.m1 - 1 <= shape.lam1 <= shape.lam2 + shape.m1 + 1
            if g_square_alternating_sum(r, lam) != (1 if inside else 0):
                bad.append(("window", r, lam))
    elapsed = time.perf_counter() - t0
    _report(7, not bad, elapsed, "; ".join(map(str, bad)))


def test_criterion_8_operator_relations():
    t0 = time.perf_counter()
    report = verify_relations(max_degree=2, seed=0, vector_degree=5)
    bad = [r.name for r in report.results if not r.passed]
    from fractions import Fraction

    for n in range(1, 7):
        for lam in strict_partitions(n):
            for xi in strict_partitions(n):
                value = inner_at_minus_one(schur_q(lam), schur_q(xi))
                want = Fraction(2 ** len(lam)) if lam == xi else Fraction(0)
                if value != want:
                    bad.append("orthogonality %r %r" % (lam, xi))
    elapsed = time.perf_counter() - t0
    _report(8, not bad and elapsed < 120.0, elapsed, "; ".join(bad))


def test_criterion_9_straightening():
    t0 = time.perf_counter()
    rng = random.Random(9)
    bad = []
    samples = set()
    while len(samples) < 250:
        length = rng.randint(0, 4)
        samples.add(tuple(rng.randint(-2, 6) for _ in range(length)))
    reference = {}
    for nu in sorted(samples):
        left = Straightener().straighten(nu)
        right = reference[nu] = ReferenceStraightener("rightmost", "table").straighten(nu)
        primitive = ReferenceStraightener("leftmost", "primitive").straighten(nu)
        if not (right == primitive and left == packed(right)):
            bad.append(("confluence", nu))
    from spinkostka.oracle import PExpansion, hl_Q

    oracle_sample = [nu for nu in sorted(samples) if sum(abs(x) for x in nu) <= 8]
    for nu in oracle_sample[:40]:
        direct = hl_Q(nu)
        combo = PExpansion.zero()
        for lam, coeff in reference[nu].items():
            combo = combo + hl_Q(lam).scale(coeff)
        if direct != combo:
            bad.append(("oracle", nu))
    elapsed = time.perf_counter() - t0
    _report(9, not bad, elapsed, "; ".join(map(str, bad)))
