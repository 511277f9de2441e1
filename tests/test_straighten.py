"""Straightening of operator words to the partition basis."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinkostka import straighten as straighten_module
from spinkostka.partitions import is_partition
from spinkostka.polynomial import LaurentPoly, ONE, T, decode, encode
from spinkostka.straighten import Straightener, step_coeff, straighten_to_vacuum

from crosscheck import ReferenceStraightener, reference_norm

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
    """The straightener's packed table holds step_coeff, and the norm
    straightener's table its L1 norm."""
    for gap in range(1, 9):
        moves, norms = straighten_module._packed_moves(gap), straighten_module._move_norms(gap)
        assert len(moves) == len(norms) == gap // 2 + 1
        for a, (packed, size) in enumerate(zip(moves, norms)):
            step = step_coeff(gap, a)
            assert decode(packed) == step
            assert size == sum(abs(c) for c in step.coefficients())


def test_single_ascent():
    assert straighten_to_vacuum((1, 3)) == {(3, 1): T, (2, 2): T - ONE}


def test_vacuum_rules():
    assert straighten_to_vacuum((2, 0)) == {(2,): ONE}
    assert straighten_to_vacuum((2, -1)) == {}
    assert straighten_to_vacuum(()) == {(): ONE}
    assert straighten_to_vacuum((0, 0)) == {(): ONE}
    assert straighten_to_vacuum((3, 2, 1)) == {(3, 2, 1): ONE}


def test_wrapper_takes_int_vectors_within_the_depth_limit():
    """straighten_to_vacuum rejects anything but a vector of ints, and turns a
    rewrite chain deeper than the recursion limit into a ValueError."""
    assert straighten_to_vacuum((0,) * 100 + (1,)) == {(1,): LaurentPoly({100: 1})}
    assert straighten_to_vacuum([1, 3]) == straighten_to_vacuum((1, 3))
    with pytest.raises(ValueError, match=r"^nu=\(0, 0, .* deeper than the recursion limit"):
        straighten_to_vacuum((0,) * 1100 + (1,))
    for nu in [(1.0, 3), (True,), ("1",), (1, None), None, "13", 13]:
        with pytest.raises(ValueError, match="^nu must be a vector of ints"):
            straighten_to_vacuum(nu)


def test_norm_bound_guards_decoding(monkeypatch):
    """N(nu), the norm straightening summed over lam, bounds the L1 norm of
    each coefficient; straighten_to_vacuum decodes only when N(nu) fits the
    slot.  With the slot narrowed to N((1, 3)) = 3 the same word is refused."""
    norms = straighten_module._NormStraightener()

    def bound(nu):
        return sum(norms.straighten(nu).values())

    for length in range(5):
        for nu in product(range(-2, 5), repeat=length):
            decoded = straighten_to_vacuum(nu)
            total = sum(abs(c) for coeff in decoded.values() for c in coeff.coefficients())
            assert total <= bound(nu), nu
    assert bound((1, 3)) == 3 and bound((0,) * 100 + (1,)) == 1
    monkeypatch.setattr(straighten_module, "SLOT_LIMIT", 3)
    with pytest.raises(ValueError, match=r"^nu=\(1, 3\): coefficients may reach 3, past the 64-bit slot"):
        straighten_to_vacuum((1, 3))
    assert straighten_to_vacuum((0,) * 100 + (1,)) == {(1,): LaurentPoly({100: 1})}


def test_norm_straightening_matches_the_norm_recursion():
    """The norm straightening, summed over lam, is the recursion N(nu) of
    polynomial.SLOT_BITS, on every word of length <= 4 with entries in
    [-4, 5] and on (1, ..., 10)."""
    norms = straighten_module._NormStraightener()
    words = [nu for length in range(5) for nu in product(range(-4, 6), repeat=length)]
    for nu in words + [tuple(range(1, 11))]:
        assert sum(norms.straighten(nu).values()) == reference_norm(nu), nu
    assert reference_norm(tuple(range(1, 11))) == 2568823003575413


@given(vectors)
@settings(max_examples=200)
def test_results_are_partitions_of_same_weight(nu):
    for lam, coeff in straighten_to_vacuum(nu).items():
        assert is_partition(lam)
        assert sum(lam) == sum(nu)
        assert not coeff.is_zero()


@given(vectors)
@settings(max_examples=150)
def test_confluence_leftmost_rightmost(nu):
    """The library rewrites the leftmost ascent first; the reference
    straightener, rewriting the rightmost, reaches the same result."""
    left = straighten_to_vacuum(nu)
    right = ReferenceStraightener("rightmost", "table").straighten(nu)
    assert left == right


@given(vectors)
@settings(max_examples=150)
def test_primitive_rule_equivalence(nu):
    """The closed-form move table agrees with the primitive two-term rule."""
    table = straighten_to_vacuum(nu)
    primitive = ReferenceStraightener("leftmost", "primitive").straighten(nu)
    assert table == primitive


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
            assert ours.straighten(nu) == {lam: encode(c) for lam, c in want.items()}, nu
            if any(sum(nu[j:]) < 0 for j in range(length)):
                negative += 1
                assert want == {}, nu
    assert negative > 0


def test_memo_shared_across_calls():
    s = Straightener()
    first = s.straighten((1, 3))
    assert s.straighten((1, 3)) is first


def _check_against_oracle(nu):
    """H_nu.1 expanded by the oracle equals the straightened combination."""
    from spinkostka.oracle import PExpansion, apply_word, hl_Q, op_H
    from spinkostka.polynomial import RatFunc

    direct = apply_word(op_H, nu, PExpansion.vacuum())
    combo = PExpansion.zero()
    for lam, coeff in straighten_to_vacuum(nu).items():
        combo = combo + hl_Q(lam).scale(RatFunc(coeff))
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
