"""Partition combinatorics and statistics."""

from collections import Counter
from fractions import Fraction
from math import comb

from hypothesis import given
from hypothesis import strategies as st

from crosscheck import inverse_z_t, reference_conjugate, row_subset_strips
from spinkostka.oracle import eps, multiplicities, support_size, u_stat, weak_compositions, z_stat
from spinkostka.partitions import (
    ShapeKind,
    classify_shape,
    conjugate,
    dominates,
    is_hook,
    is_partition,
    is_strict_partition,
    n_stat,
    partitions,
    strict_partitions,
    vertical_strip_subshapes,
)
from spinkostka.polynomial import ONE, T, LaurentPoly, RatFunc, RF_ZERO

parts_st = st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.sampled_from(partitions(n))
)


def test_partition_counts():
    assert [len(partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert [len(strict_partitions(n)) for n in range(8)] == [1, 1, 1, 2, 2, 3, 4, 5]
    assert all(is_partition(lam) for lam in partitions(7))
    assert all(is_strict_partition(xi) for xi in strict_partitions(7))


def test_reverse_lex_order():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert strict_partitions(6) == ((6,), (5, 1), (4, 2), (3, 2, 1))


def _sorted_compositions(n):
    """Every composition of n >= 1, its parts sorted into a partition: a
    composition is a subset of the n - 1 cut points."""
    out = set()
    for cuts in range(2 ** (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 0
            run += 1
        out.add(tuple(sorted(parts + [run], reverse=True)))
    return out


def test_enumerators_answer_long_partitions_in_order():
    """Each level of the recursion lowers the largest part, so 3000 ones and
    the 601 partitions of 1200 into parts <= 2 need no deep recursion.  For
    n <= 14 and every max_part, each enumerator lists every partition of n
    within max_part (strict when asked) once, in reverse lex order."""
    assert partitions(3000, 1) == ((1,) * 3000,)
    assert len(partitions(1200, 2)) == 601
    for n in range(15):
        every = _sorted_compositions(n) if n else {()}
        for max_part in [None] + list(range(-1, n + 2)):
            fits = {lam for lam in every if max_part is None or not lam or lam[0] <= max_part}
            for fn, valid in ((partitions, is_partition), (strict_partitions, is_strict_partition)):
                got = fn(n, max_part)
                assert list(got) == sorted(set(got), reverse=True), (fn, n, max_part)
                assert set(got) == {lam for lam in fits if valid(lam)}, (fn, n, max_part)


@given(parts_st)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)
    assert is_partition(conjugate(lam))


def test_conjugate_matches_column_counts():
    assert conjugate(()) == reference_conjugate(()) == ()
    for n in range(1, 15):
        for lam in partitions(n):
            assert conjugate(lam) == reference_conjugate(lam), lam


@given(parts_st)
def test_n_stat_via_conjugate(lam):
    assert n_stat(lam) == sum(comb(c, 2) for c in conjugate(lam))


@given(parts_st, parts_st)
def test_dominance_antisymmetry(lam, mu):
    if dominates(lam, mu) and dominates(mu, lam):
        assert lam == mu


def test_dominance_examples():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert not dominates((3, 1), (3, 2))  # weight mismatch


@given(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=4)
)
def test_weak_composition_count(k, p):
    comps = list(weak_compositions(k, p))
    assert len(comps) == (comb(k + p - 1, p - 1) if p else (1 if k == 0 else 0))
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == k and len(c) == p for c in comps)
    assert all(support_size(c) == sum(1 for x in c if x) for c in comps)


@given(parts_st, st.integers(min_value=0, max_value=5))
def test_vertical_strips_brute_force(lam, k):
    got = set(vertical_strip_subshapes(lam, k))
    # brute force: all sub-partitions with the right weight and row-wise
    # difference at most one
    want = set()
    for n in range(sum(lam) + 1):
        for rho in partitions(n):
            if sum(lam) - sum(rho) != k or len(rho) > len(lam):
                continue
            padded = rho + (0,) * (len(lam) - len(rho))
            if all(0 <= a - b <= 1 for a, b in zip(lam, padded)):
                want.add(rho)
    assert got == want


def test_vertical_strips_match_row_subsets():
    """The direct enumeration returns the same subshapes as the row-subset
    filter, each once, for every lam of weight <= 12 and -1 <= k <= l+1."""
    for n in range(13):
        for lam in partitions(n):
            for k in range(-1, len(lam) + 2):
                got = Counter(vertical_strip_subshapes(lam, k))
                assert got == Counter(row_subset_strips(lam, k)), (lam, k)


def test_z_statistics():
    assert z_stat((2, 1)) == 2
    assert z_stat((1, 1, 1)) == 6
    assert z_stat(()) == 1
    assert eps((2, 1)) == -1
    assert eps((3, 1)) == 1
    assert u_stat((2, 1)) == 2
    assert u_stat((2, 2)) == 1


def test_z_t_sums():
    """sum 1/z_lam(t) = 1-t and the signed variant, for n <= 8."""
    for n in range(1, 9):
        total = RF_ZERO
        signed = RF_ZERO
        for lam in partitions(n):
            inv = inverse_z_t(lam)
            # z_lam(t) * (1 / z_lam(t)) = 1, at t = 2
            z_at_2 = Fraction(z_stat(lam))
            for part in lam:
                z_at_2 /= 1 - 2 ** part
            assert z_at_2 * inv.num.eval_at(2) / inv.den == 1, lam
            total = total + inv
            signed = signed + (inv if len(lam) % 2 == 0 else inv * -1)
        assert total == RatFunc(ONE - T), n
        tn = RatFunc(LaurentPoly.term(1, n))
        tn1 = RatFunc(LaurentPoly.term(1, n - 1))
        assert signed == tn + tn1 * -1, n


def _reconstruct(shape):
    """The partition a hook or proper double-hook ShapeClass describes."""
    parts = [part for part in (shape.lam1, shape.lam2) if part]
    return tuple(parts + [2] * shape.m2 + [1] * shape.m1)


def test_hooks_and_shape_classes():
    assert is_hook(())
    assert is_hook((5,))
    assert is_hook((3, 1, 1))
    assert not is_hook((2, 2))
    assert classify_shape((4, 1, 1)).kind is ShapeKind.HOOK
    dh = classify_shape((4, 3, 2, 2, 1))
    assert dh.kind is ShapeKind.DOUBLE_HOOK_PROPER
    assert (dh.lam1, dh.lam2, dh.m2, dh.m1) == (4, 3, 2, 1)
    assert _reconstruct(dh) == (4, 3, 2, 2, 1)
    assert classify_shape((3, 3, 3)).kind is ShapeKind.OTHER


@given(parts_st)
def test_classify_reconstruct_roundtrip(lam):
    shape = classify_shape(lam)
    if shape.kind is not ShapeKind.OTHER:
        assert _reconstruct(shape) == lam


@given(parts_st)
def test_multiplicities_consistent(lam):
    m = multiplicities(lam)
    assert sum(k * v for k, v in m.items()) == sum(lam)
