"""Spin Kostka recurrence engine and closed forms."""

import time
from functools import lru_cache

import pytest

from spinkostka import engine
from spinkostka.engine import (
    SpinKostkaEngine,
    htilde_expand,
    kostka_hook,
    spin_kostka,
    spin_kostka_one_row,
    spin_kostka_two_part,
)
from spinkostka.invariants import _marked_tableaux_by_letters, cell_failures, failures
from spinkostka.oracle import support_size, weak_compositions
from spinkostka.partitions import n_stat, partitions, shifted_tableaux_count, strict_partitions
from spinkostka.polynomial import SLOT_LIMIT, LaurentPoly, ONE, ZERO, t_int
from spinkostka.schur import b_coeff
from spinkostka.straighten import Straightener

from crosscheck import (
    ColumnlessEngine,
    PlainEngine,
    ReferenceStraightener,
    is_palindromic,
    package_imports,
    packed,
    reference_one_row,
)


def test_worked_examples():
    assert spin_kostka((3, 1), (2, 2)) == LaurentPoly({1: 4, 0: 4})
    assert spin_kostka((4, 3, 1), (3, 3, 2)) == LaurentPoly({2: 8, 1: 16, 0: 8})
    counterexample = spin_kostka((3, 2), (2, 1, 1, 1))
    assert counterexample == LaurentPoly({4: 4, 3: 8, 2: 12, 1: 8})
    assert not is_palindromic(counterexample)


def test_weight_mismatch_and_base_cases():
    assert spin_kostka((3,), (2, 2)) == ZERO
    assert spin_kostka((), ()) == ONE
    assert spin_kostka((1,), (1,)) == LaurentPoly.const(2)


def test_input_validation():
    with pytest.raises(ValueError):
        spin_kostka((2, 2), (3, 1))  # xi not strict
    with pytest.raises(ValueError):
        spin_kostka((3, 1), (1, 3))  # mu not a partition
    assert spin_kostka([3, 1], [2, 2]) == spin_kostka((3, 1), (2, 2))
    for xi, mu, name in [
        ((3.0, 1), (2, 2), "xi"),  # a float part
        ((3, 1), (2, 2.0), "mu"),
        ((True,), (1,), "xi"),  # a bool part
        ((3, 1), None, "mu"),  # not a sequence
        ("31", (2, 2), "xi"),
    ]:
        with pytest.raises(ValueError, match="^%s must be a" % name):
            spin_kostka(xi, mu)
        with pytest.raises(ValueError, match="^%s must be a" % name):
            SpinKostkaEngine().spin_kostka(xi, mu)
    for n, k, mu in [(4.0, 1, (2, 1, 1)), (4, 1, (2.0, 1, 1)), (4, True, (2, 1, 1))]:
        with pytest.raises(ValueError):
            kostka_hook(n, k, mu)
    assert kostka_hook(4, 1, [2, 1, 1]) == kostka_hook(4, 1, (2, 1, 1))


def test_one_row_closed_form():
    assert spin_kostka_one_row((2, 1)) == LaurentPoly({1: 2, 0: 2})
    assert spin_kostka_one_row((1, 1, 1)) == 2 * t_int(4)
    assert spin_kostka_one_row((2,)) == LaurentPoly.const(2)


def test_two_part_closed_form():
    assert spin_kostka_two_part((3, 2), (3, 2)) == LaurentPoly.const(4)
    assert spin_kostka_two_part((5,), (3, 2)) == LaurentPoly({2: 2, 1: 2})
    assert spin_kostka_two_part((4, 1), (3, 2)) == LaurentPoly({1: 4, 0: 4})
    assert spin_kostka_two_part((3, 2), (4, 1)) == ZERO
    with pytest.raises(ValueError):
        spin_kostka_two_part((3, 2), (2, 2, 1))


def test_closed_forms_agree_with_recurrence():
    plain = PlainEngine()
    for n in range(1, 9):
        for mu in partitions(n):
            assert plain.spin_kostka((n,), mu) == spin_kostka_one_row(mu), mu
            if len(mu) <= 2:
                for xi in strict_partitions(n):
                    assert plain.spin_kostka(xi, mu) == spin_kostka_two_part(xi, mu)


def test_fast_paths_match_plain_recurrence():
    fast, plain = SpinKostkaEngine(), PlainEngine()
    for n in range(1, 11):
        for xi in strict_partitions(n):
            for mu in partitions(n):
                assert fast.spin_kostka(xi, mu) == plain.spin_kostka(xi, mu), (xi, mu)


def test_plain_engines_answer_without_the_closed_forms(monkeypatch):
    """PlainEngine and ColumnlessEngine switch the closed forms off through
    the _fast_path seam; an engine that bypassed it would call the packed
    helpers, which raise here, and the closed-form checks above would
    compare the closed forms with themselves."""
    row, column = ((5,), (2, 2, 1)), ((3, 2), (1,) * 5)
    row_value, column_value = reference_one_row(row[1]), spin_kostka(*column)

    def refuse(arg):
        raise AssertionError("closed form called on %r" % (arg,))

    with monkeypatch.context() as patch:
        patch.setattr(engine, "spin_kostka_one_row_packed", refuse)
        patch.setattr(engine, "spin_kostka_column_packed", refuse)
        assert PlainEngine().spin_kostka(*row) == row_value
        assert PlainEngine().spin_kostka(*column) == column_value
        with pytest.raises(AssertionError, match="closed form called"):
            SpinKostkaEngine().spin_kostka(*row)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "spin_kostka_column_packed", refuse)
        assert ColumnlessEngine().spin_kostka(*column) == column_value
        with pytest.raises(AssertionError, match="closed form called"):
            SpinKostkaEngine().spin_kostka(*column)


def test_one_row_closed_form_matches_the_product_to_62_parts():
    for n in range(13):
        for mu in partitions(n):
            assert spin_kostka_one_row(mu) == reference_one_row(mu), mu
    for mu in [(1,) * 62, (3, 2) + (1,) * 60]:
        assert spin_kostka_one_row(mu) == reference_one_row(mu)
    for mu in [(1,) * 63, (2,) * 64]:
        with pytest.raises(ValueError, match=r"^mu=\(%d, %d, .*past the 64-bit slot" % mu[:2]):
            spin_kostka_one_row(mu)


def test_htilde_expand():
    s = Straightener()
    assert htilde_expand(-1, (2, 1), s, {}) == {}
    # tau in {(1,0), (0,1)}, each with weight 1+t; straightening (0,1) gives t*H_(1)
    assert htilde_expand(1, (1, 1), s, {}) == packed({(1,): LaurentPoly({0: 1, 1: 2, 2: 1})})
    # k = 2 over one position: tau = (2), coefficient t^(2-1)(1+t)
    assert htilde_expand(2, (3,), s, {}) == packed({(1,): LaurentPoly({1: 1, 2: 1})})
    assert htilde_expand(0, (), s, {}) == packed({(): ONE})
    assert htilde_expand(1, (), s, {}) == {}


def _htilde_by_weak_compositions(k, mu, straightener):
    """The expansion as the plain sum over weak compositions tau of k:
    t^(k-l(tau)) (1+t)^l(tau) * straighten(mu - tau), in LaurentPoly."""
    out = {}
    for tau in weak_compositions(k, len(mu)):
        support = support_size(tau)
        coeff = (LaurentPoly({0: 1, 1: 1}) ** support).shift(k - support)
        word = tuple(m - c for m, c in zip(mu, tau))
        for lam, b in straightener.straighten(word).items():
            out[lam] = out.get(lam, ZERO) + coeff * b
    return {lam: c for lam, c in out.items() if not c.is_zero()}


def test_htilde_expand_matches_weak_composition_sum():
    """k runs past |mu|, where the expansion is empty.  Each expansion is
    checked without a memo (a fresh {} per call), then through one suffix
    memo that every mu shares: the partitions of n <= 8 share tails, as
    (3, 1, 1), (2, 1, 1) and (1, 1, 1) do.  Per mu, k first ascends, so a larger k rebuilds the
    entries, then descends, so a smaller k reuses them filtered by cells
    used.  The reference sum straightens with ``ReferenceStraightener``."""
    ours, ref = Straightener(), ReferenceStraightener("leftmost", "table")
    sweeps = {}
    for n in range(9):
        for mu in partitions(n):
            ks = range(max(6, n + 2))
            want = {k: packed(_htilde_by_weak_compositions(k, mu, ref)) for k in ks}
            for k in ks:
                assert htilde_expand(k, mu, ours, {}) == want[k], (k, mu)
            for k in list(ks) + list(reversed(ks)):
                assert htilde_expand(k, mu, ours, sweeps) == want[k], (k, mu, "memo")
    assert sweeps[(1, 1)][0] == 8  # the largest k <= |mu|; a larger k returns at once


def test_the_engine_holds_no_decoded_answers():
    """The packed memo is the only per-cell store: each ask decodes afresh,
    so two asks of one cell give equal but distinct values."""
    tables = {"_memo", "_expansions", "_sweeps", "_straightener"}
    eng = SpinKostkaEngine()
    assert set(vars(eng)) == tables
    first, second = eng.spin_kostka((3, 1), (2, 2)), eng.spin_kostka((3, 1), (2, 2))
    assert first == second == LaurentPoly({1: 4, 0: 4})
    assert first is not second
    assert set(vars(eng)) == tables


def test_memo_order_cannot_change_a_value():
    """Every weight-10 cell on a fresh engine equals the same cell from one
    engine asked in reverse table order, whose suffix memo then serves
    each rest from entries that other cells built, under other caps."""
    cells = [(xi, mu) for mu in partitions(10) for xi in strict_partitions(10)]
    shared = SpinKostkaEngine()
    reverse = {cell: shared.spin_kostka(*cell) for cell in reversed(cells)}
    for cell in cells:
        assert SpinKostkaEngine().spin_kostka(*cell) == reverse[cell], cell


def test_structural_invariants_at_weights_11_to_13():
    """Divisibility by 2^l(xi), the value 2^l(xi) delta at t = -1, dominance,
    deg <= n(mu) and the leading-block factor 2, on every cell of weights
    11-13.  Values come from the recurrence without the one-row and column
    closed forms, so the cells that the engine answers by those are held to
    the invariants through the recurrence as well."""
    plain = PlainEngine()
    hard = plain.spin_kostka((11, 1), (1,) * 12)
    assert not hard.is_zero()
    assert cell_failures((11, 1), (1,) * 12, hard) == []
    assert failures(plain.spin_kostka, range(11, 14)) == []


def test_invariants_leading_block_and_stability_to_weight_14():
    """Every invariant, the leading-block factor 2 and stability for r = 1, 2
    through the library engine on every cell of weight <= 14.  The engine
    has no leading-block shortcut, so that check holds the recurrence's
    i = 0 term, and the break after it, to the factor 2."""
    assert failures(spin_kostka, range(1, 15), range(1, 15), grow=(1, 2)) == []


def test_kostka_hook_values():
    # K_{(3,1),(2,1,1)}(t) = t + t^2
    assert kostka_hook(4, 1, (2, 1, 1)) == LaurentPoly({1: 1, 2: 1})
    # s_{1^n} = e_n = P_{1^n}, so K_{(1^n),(1^n)}(t) = 1 in the charge convention
    assert kostka_hook(3, 2, (1, 1, 1)) == ONE
    assert kostka_hook(2, 0, (1, 1)) == LaurentPoly({1: 1})  # K_{(2),(1,1)} = t
    assert kostka_hook(4, 3, (2, 2)) == ZERO  # k > l-1
    with pytest.raises(ValueError):
        kostka_hook(4, 4, (2, 2))
    # mu must be a partition, as in spin_kostka
    with pytest.raises(ValueError, match="mu must be a partition"):
        kostka_hook(4, 1, (1, 3))
    with pytest.raises(ValueError, match="mu must be a partition"):
        kostka_hook(4, 1, (5, -1))


def test_kostka_hook_against_oracle():
    from spinkostka.oracle import oracle_kostka_foulkes

    for n in range(1, 7):
        for k in range(n):
            lam = (n - k,) + (1,) * k
            for mu in partitions(n):
                assert kostka_hook(n, k, mu) == oracle_kostka_foulkes(lam, mu)


def test_stability_and_leading_block():
    for n in range(1, 6):
        for xi in strict_partitions(n):
            xi2 = xi[1] if len(xi) > 1 else 0
            for mu in partitions(n):
                base = spin_kostka(xi, mu)
                # leading block: a shared new largest part contributes a factor 2
                r = n + 1
                assert spin_kostka((r,) + xi, (r,) + mu) == 2 * base
                # stability: growing the first part of both shapes preserves K-
                # whenever mu_1 > xi_2
                if mu and mu[0] > xi2:
                    for r in (1, 2):
                        grown_xi = (xi[0] + r,) + xi[1:]
                        grown_mu = (mu[0] + r,) + mu[1:]
                        assert spin_kostka(grown_xi, grown_mu) == base


def _one_minus_t(j):
    return ONE - LaurentPoly.term(1, j)


def _spin_kostka_column(xi):
    """K^-_{xi,1^n}(t) = t^n(xi) (t;t)_n prod_i (-1;t)_xi_i / (t;t)_xi_i
    prod_{i<j} (1 - t^(xi_i - xi_j)) / (1 - t^(xi_i + xi_j)), which is
    (t;t)_n times the principal specialization Q_xi(1, t, t^2, ...)."""
    num, den = ONE.shift(n_stat(xi)), ONE
    for j in range(1, sum(xi) + 1):
        num = num * _one_minus_t(j)
    for part in xi:
        for j in range(part):
            num = num * (ONE + LaurentPoly.term(1, j))
            den = den * _one_minus_t(j + 1)
    for i, a in enumerate(xi):
        for b in xi[i + 1:]:
            num = num * _one_minus_t(a - b)
            den = den * _one_minus_t(a + b)
    return num.exact_div(den)


def test_column_content_closed_form():
    """The product formula, built here in ``LaurentPoly`` without the engine
    or the straightener, against the recurrence (the engine with its mu = 1^n
    closed form switched off) on every strict xi of weight <= 16."""
    recurrence = ColumnlessEngine()
    cells = 0
    for n in range(17):
        for xi in strict_partitions(n):
            assert recurrence.spin_kostka(xi, (1,) * n) == _spin_kostka_column(xi), xi
            cells += 1
    assert cells == 169


def test_value_at_zero_is_b():
    """K^-_{xi,mu}(0) = b_{xi,mu}, since K_{lam,mu}(0) = delta_{lam,mu}: the
    recurrence against the vertical-strip recursion of ``schur``, which
    shares no code with it, on every cell of weight <= 14."""
    cells = 0
    for n in range(15):
        for xi in strict_partitions(n):
            for mu in partitions(n):
                assert spin_kostka(xi, mu).coeff(0) == b_coeff(xi, mu), (xi, mu)
                cells += 1
    assert cells == 7567


@lru_cache(maxsize=None)
def _shifted_tableaux_by_corners(xi):
    """g^xi by removing the largest entry, which sits at a corner of the
    shifted diagram: the end of a row longer than the next, or of the last."""
    if not xi:
        return 1
    total = 0
    for i, part in enumerate(xi):
        if i == len(xi) - 1 or part - 1 > xi[i + 1]:
            total += _shifted_tableaux_by_corners(xi[:i] + ((part - 1,) if part > 1 else ()) + xi[i + 1:])
    return total


def _marked_tableaux_brute_force(xi, mu):
    """Fill the shifted diagram of xi row by row with 1' < 1 < 2' < 2 < ...,
    coded 2k - 1 for k' and 2k for k, keeping rows and columns weakly
    increasing, each k' at most once in a row and each k at most once in a
    column, and count the fillings of content mu."""
    cells = [(r, c) for r, part in enumerate(xi) for c in range(r, r + part)]
    filling, used = {}, [0] * (len(mu) + 1)

    def fill(i):
        if i == len(cells):
            return 1
        r, c = cells[i]
        left, above = filling.get((r, c - 1)), filling.get((r - 1, c))
        total = 0
        for sym in range(max(left or 1, above or 1), 2 * len(mu) + 1):
            letter, primed = (sym + 1) // 2, sym % 2
            if used[letter] == mu[letter - 1]:
                continue
            if (primed and sym == left) or (not primed and sym == above):
                continue
            filling[r, c] = sym
            used[letter] += 1
            total += fill(i + 1)
            used[letter] -= 1
            del filling[r, c]
        return total

    return fill(0)


def test_marked_tableaux_count_matches_brute_force():
    """The peeling count against the direct enumeration of marked shifted
    tableaux on every cell of weight <= 6."""
    for n in range(7):
        for xi in strict_partitions(n):
            for mu in partitions(n):
                want = _marked_tableaux_brute_force(xi, mu)
                assert _marked_tableaux_by_letters(xi, mu) == want, (xi, mu)


def test_value_at_one_counts_marked_tableaux():
    """K^-_{xi,mu}(1), the coefficient of m_mu in Q_xi, is the number of
    marked shifted tableaux of shape xi and content mu with the diagonal
    marks free: the whole value at t = 1, against a count that shares no
    algorithm with the engine, on every cell of weights 1-14, beyond the
    weights the tests run the oracle at."""
    cells = 0
    for n in range(1, 15):
        for xi in strict_partitions(n):
            for mu in partitions(n):
                got = sum(spin_kostka(xi, mu).coefficients())
                assert got == _marked_tableaux_by_letters(xi, mu), (xi, mu)
                cells += 1
    assert cells == 7566


def test_slot_bound_premises():
    """The premises of the slot width (polynomial.SLOT_BITS) on every cell
    of weight <= 12: the coefficients of K^- are >= 0 and sum to at most
    2^n g^xi, with equality at mu = 1^n, where g^xi counts standard shifted
    tableaux, which the engine does not use."""
    cells = 0
    for n in range(13):
        for xi in strict_partitions(n):
            g = _shifted_tableaux_by_corners(xi)
            assert shifted_tableaux_count(xi) == g, xi
            for mu in partitions(n):
                coeffs = spin_kostka(xi, mu).coefficients()
                assert min(coeffs, default=0) >= 0, (xi, mu)
                assert sum(coeffs) <= 2 ** n * g, (xi, mu)
                cells += 1
            assert sum(spin_kostka(xi, (1,) * n).coefficients()) == 2 ** n * g, xi
    assert cells == 2779


def test_column_fast_path_at_weights_17_to_27():
    """Every column value K^-_{xi,1^n}(t) from weight 17 up to the slot's
    last weight keeps the per-cell invariants and sums to 2^n g^xi, with
    g^xi counted by removing corners, not by the engine."""
    cells = 0
    for n in range(17, 28):
        for xi in strict_partitions(n):
            value = spin_kostka(xi, (1,) * n)
            assert cell_failures(xi, (1,) * n, value) == [], xi
            assert sum(value.coefficients()) == 2 ** n * _shifted_tableaux_by_corners(xi), xi
            cells += 1
    assert cells == 1092


def test_recurrence_past_weight_17():
    """The recurrence itself, not a closed form, on mu = (2, 1^(n-2)) for
    every strict xi at n = 20 and at the slot's last weight, 27: each value
    keeps the per-cell invariants, the t = 1 count of marked shifted
    tableaux and b at t = 0 included."""
    cells = 0
    for n in (20, 27):
        mu = (2,) + (1,) * (n - 2)
        for xi in strict_partitions(n):
            assert cell_failures(xi, mu, spin_kostka(xi, mu)) == [], xi
            cells += 1
    assert cells == 256


def test_slot_guard_refuses_a_cell_before_any_work():
    """Every cell of weight <= 27 fits the slot; (11, 8, 5, 3, 1) at weight 28
    does not, and is refused before the engine computes anything.  Cheap
    cells such as xi = (n) stay usable far past weight 27."""
    assert max((shifted_tableaux_count(xi) << 27 for xi in strict_partitions(27))) < SLOT_LIMIT
    xi, mu = (11, 8, 5, 3, 1), (1,) * 28
    assert shifted_tableaux_count(xi) << 28 >= SLOT_LIMIT
    eng = SpinKostkaEngine()
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^xi=\(11, 8, 5, 3, 1\) mu=\(1, 1, .*past the 64-bit slot"):
        eng.spin_kostka(xi, mu)
    assert time.perf_counter() - start < 1.0
    assert eng._memo == {} and eng._straightener._memo == {}
    assert eng.spin_kostka((40,), (40,)) == LaurentPoly.const(2)
    assert spin_kostka((40,), (20, 20)) == spin_kostka_one_row((20, 20))
    assert spin_kostka((40,), (40,)) == LaurentPoly.const(2)


def test_slot_guard_names_the_bound_by_its_bit_length():
    """From weight SLOT_BITS - 1 = 63 on, 2^n alone passes the slot, so the
    refusal comes before g^xi is computed and names a lower bound on the
    bits; below it names their exact number.  At weight 15,000, 2^n has more
    decimal digits than Python converts to a string by default."""
    assert spin_kostka((62,), (62,)) == LaurentPoly.const(2)
    assert (shifted_tableaux_count((11, 8, 5, 3, 1)) << 28).bit_length() == 64
    for xi, bits in (((63,), "at least 64"), ((15000,), "at least 15001"), ((11, 8, 5, 3, 1), "64")):
        pattern = r"2\^n g\^xi, a number of %s bits, past the 64-bit slot$" % bits
        with pytest.raises(ValueError, match=pattern):
            SpinKostkaEngine().spin_kostka(xi, (sum(xi),))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^xi=\(100000,\) mu=\(100000,\): .* at least 100001 bits"):
        spin_kostka((100000,), (100000,))
    assert time.perf_counter() - start < 0.1


def test_engine_imports_only_partitions_polynomial_and_straighten():
    """The invariants check the engine's values, so the engine does not
    import them: of the package it imports only partitions, polynomial and
    straighten."""
    found = package_imports(engine.__file__)
    assert "straighten" in found
    assert found <= {"partitions", "polynomial", "straighten"}, found
