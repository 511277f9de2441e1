"""Straightening of operator words to the partition basis.

The straightener returns packed coefficients; each test compares them with
``encode`` of the expected ``LaurentPoly`` values, so no test decodes a
straightened word."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinkostka import straighten as straighten_module
from spinkostka.engine import SpinKostkaEngine
from spinkostka.partitions import is_partition, partitions, strict_partitions
from spinkostka.polynomial import LaurentPoly, ONE, T, decode
from spinkostka.straighten import Straightener, step_coeff

from crosscheck import ReferenceStraightener, package_imports, packed

vectors = st.lists(
    st.integers(min_value=-2, max_value=6), min_size=0, max_size=4
).map(tuple)


def test_step_coeff_boundaries():
    assert step_coeff(1, 0) == T
    assert step_coeff(2, 0) == T
    assert step_coeff(2, 1) == T - ONE
    assert step_coeff(3, 1) == LaurentPoly({2: 1, 0: -1})
    assert step_coeff(4, 1) == LaurentPoly({2: 1, 0: -1})
    assert step_coeff(4, 2) == LaurentPoly({2: 1, 1: -1})
    assert step_coeff(5, 2) == LaurentPoly({3: 1, 1: -1})
    with pytest.raises(ValueError):
        step_coeff(0, 0)
    with pytest.raises(ValueError):
        step_coeff(2, 2)


def test_packed_moves_are_built_from_step_coeff():
    """The straightener's packed table holds step_coeff."""
    for gap in range(1, 9):
        moves = straighten_module._packed_moves(gap)
        assert len(moves) == gap // 2 + 1
        for a, move in enumerate(moves):
            assert decode(move) == step_coeff(gap, a)


def test_single_ascent():
    assert Straightener().straighten((1, 3)) == packed({(3, 1): T, (2, 2): T - ONE})


def test_vacuum_rules():
    s = Straightener()
    assert s.straighten((2, 0)) == packed({(2,): ONE})
    assert s.straighten((2, -1)) == {}
    assert s.straighten(()) == packed({(): ONE})
    assert s.straighten((0, 0)) == packed({(): ONE})
    assert s.straighten((3, 2, 1)) == packed({(3, 2, 1): ONE})


def test_straightening_depth_is_bounded_by_the_length_of_mu(monkeypatch):
    """A cold engine nests Straightener.straighten at most 3 deep, a
    constant and so within 2 l(mu) + 1 for every nonempty mu, on every cell
    of weight <= 12 and on five long cells up to the slot's last weight, 27.
    Every partition that a memoized word straightens to is a memoized word
    itself, so the tail of each word the engine asks hits the memo one
    level down.  So the words the engine straightens stay far below the
    recursion limit, whatever l(mu)."""
    original = Straightener.straighten
    depth = deepest = 0

    def counted(self, nu):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return original(self, nu)
        finally:
            depth -= 1

    monkeypatch.setattr(Straightener, "straighten", counted)
    cells = [(xi, mu) for n in range(13) for mu in partitions(n) for xi in strict_partitions(n)]
    cells.append(((10, 7, 3, 2), (2, 2, 2) + (1,) * 16))
    cells += [((n, 2), (2,) + (1,) * n) for n in (18, 20, 25)]
    cells.append(((11, 6, 4, 2, 1), (2,) * 6 + (1,) * 12))
    for xi, mu in cells:
        deepest = 0
        SpinKostkaEngine().spin_kostka(xi, mu)
        assert deepest <= 3, (xi, mu, deepest)
    assert deepest > 0  # the counter saw the last long cell's words


def test_a_cold_engine_memoizes_few_words():
    """The straightener memoizes words (y,) + partition, not every word its
    rewrites pass through: 187 words for the cell (18, 2), (2, 1^18), which
    whole-word memoization by leftmost-ascent rewriting took to 118,929, and
    155 for the weight-10 table, against 1,495."""
    eng = SpinKostkaEngine()
    eng.spin_kostka((18, 2), (2,) + (1,) * 18)
    assert len(eng._straightener._memo) <= 187
    eng = SpinKostkaEngine()
    for mu in partitions(10):
        for xi in strict_partitions(10):
            eng.spin_kostka(xi, mu)
    assert len(eng._straightener._memo) <= 155


def test_every_engine_form_matches_both_references():
    """Every word (y,) + lam with lam a partition of m <= 8 and
    -m-1 <= y <= lam_1, the forms that htilde_expand asks, straightens as
    the leftmost-ascent table reference and the rightmost-ascent primitive
    reference do."""
    ours = Straightener()
    refs = [ReferenceStraightener("leftmost", "table"), ReferenceStraightener("rightmost", "primitive")]
    words = 0
    for m in range(9):
        for lam in partitions(m):
            for y in range(-m - 1, (lam[0] if lam else 0) + 1):
                nu = (y,) + lam
                got = ours.straighten(nu)
                for ref in refs:
                    assert got == packed(ref.straighten(nu)), nu
                words += 1
    assert words == 767


def test_straighten_imports_only_polynomial():
    """The straightener sits just above the coefficient layer: of the
    package it imports only polynomial."""
    assert package_imports(straighten_module.__file__) == {"polynomial"}


@given(vectors)
@settings(max_examples=200)
def test_results_are_partitions_of_same_weight(nu):
    for lam, coeff in Straightener().straighten(nu).items():
        assert is_partition(lam)
        assert sum(lam) == sum(nu)
        assert coeff != 0


@given(vectors)
@settings(max_examples=150)
def test_confluence_leftmost_rightmost(nu):
    """The library straightens the tail first; the reference straightener,
    rewriting the rightmost ascent first, reaches the same result.  The
    leftmost reference, in the primitive rule's test and the others, is
    independent of the library too."""
    left = Straightener().straighten(nu)
    right = ReferenceStraightener("rightmost", "table").straighten(nu)
    assert left == packed(right)


@given(vectors)
@settings(max_examples=150)
def test_primitive_rule_equivalence(nu):
    """The closed-form move table agrees with the primitive two-term rule."""
    table = Straightener().straighten(nu)
    primitive = ReferenceStraightener("leftmost", "primitive").straighten(nu)
    assert table == packed(primitive)


def test_degree_prune_matches_unpruned_reference():
    """On every word of length <= 4 with entries in [-4, 4], the pruning
    straightener agrees with the reference, which prunes nothing; and every
    word with a negative suffix sum is 0 under the reference too."""
    ours = Straightener()
    ref = ReferenceStraightener("leftmost", "table")
    negative = 0
    for length in range(5):
        for nu in product(range(-4, 5), repeat=length):
            want = ref.straighten(nu)
            assert ours.straighten(nu) == packed(want), nu
            if any(sum(nu[j:]) < 0 for j in range(length)):
                negative += 1
                assert want == {}, nu
    assert negative > 0


def test_memo_shared_across_calls():
    s = Straightener()
    first = s.straighten((1, 3))
    assert s.straighten((1, 3)) is first


def _check_against_oracle(nu):
    """H_nu.1 expanded by the oracle equals the straightened combination:
    the straightener agrees with the reference packed, and the reference's
    coefficients, combined over Q_lam, give the oracle's H_nu.1."""
    from spinkostka.oracle import PExpansion, hl_Q

    want = ReferenceStraightener("leftmost", "table").straighten(nu)
    assert Straightener().straighten(nu) == packed(want), nu
    direct = hl_Q(nu)
    combo = PExpansion.zero()
    for lam, coeff in want.items():
        combo = combo + hl_Q(lam).scale(coeff)
    assert direct == combo, nu


@given(
    st.lists(st.integers(min_value=-2, max_value=4), min_size=0, max_size=3).map(tuple)
)
@settings(max_examples=40, deadline=None)
def test_oracle_consistency_short_words(nu):
    _check_against_oracle(nu)


@pytest.mark.parametrize(
    "nu",
    [(1, 3), (2, -1, 3, 1), (1, 3, 0, 2), (6, -2, 1, 1), (0, 2, 2, 4), (-2, 6, 1, 2)],
)
def test_oracle_consistency_length_four(nu):
    _check_against_oracle(nu)
