"""Stembridge coefficients, N^(s) counts and square-shape values."""

import pytest

from spinkostka.partitions import _conjugate, conjugate, is_hook, partitions, strict_partitions
from spinkostka.schur import (
    _b,
    b_coeff,
    b_two_row,
    count_Ns,
    g_coeff,
    g_square,
)

from crosscheck import g_general, g_square_alternating_sum, reference_b


def test_worked_example():
    assert b_coeff((4, 3), (2, 2, 2, 1)) == 4


def test_one_row_hook_rule():
    for n in range(1, 10):
        for lam in partitions(n):
            assert b_coeff((n,), lam) == (2 if is_hook(lam) else 0)


def test_input_validation():
    with pytest.raises(ValueError):
        b_coeff((2, 2), (3, 1))
    with pytest.raises(ValueError):
        b_coeff((3, 1), (1, 3))
    assert b_coeff((3,), (2, 2)) == 0  # weight mismatch
    assert g_coeff((3,), (2, 2)) == 0
    assert b_coeff([3, 1], [2, 2]) == b_coeff((3, 1), (2, 2)) == 4
    assert g_coeff([4, 3], [2, 2, 2, 1]) == g_coeff((4, 3), (2, 2, 2, 1)) == 1
    for fn in (b_coeff, g_coeff):
        for xi, lam, name in [
            ((True,), (True,), "xi"),  # bool parts
            ((1,), (True,), "lam"),
            ((3.0, 1), (2, 2), "xi"),  # a float part
            ((2, 2), (2, 2), "xi"),  # a repeated part of xi
            ((3, 1), (2, 2, 0), "lam"),  # a zero part
        ]:
            with pytest.raises(ValueError, match="^%s must be a" % name):
                fn(xi, lam)
    assert g_square(2, [2, 1, 1]) == g_square(2, (2, 1, 1)) == 1
    for r, lam in [(2, (2.0, 2)), (2.0, (2, 2)), (True, (1, 1)), (2, (1, 3))]:
        with pytest.raises(ValueError):
            g_square(r, lam)


def test_divisibility_and_g():
    for n in range(1, 9):
        for xi in strict_partitions(n):
            for lam in partitions(n):
                b = b_coeff(xi, lam)
                assert b % 2 ** len(xi) == 0, (xi, lam)
                assert g_coeff(xi, lam) * 2 ** len(xi) == b


def test_conjugation_duality():
    """b_{xi,lam'} from b_coeff equals b_{xi,lam} from the recursion that
    does not fold lam onto lam'."""
    for n in range(1, 10):
        for xi in strict_partitions(n):
            for lam in partitions(n):
                assert b_coeff(xi, conjugate(lam)) == reference_b(xi, lam), (xi, lam)


def test_b_matches_the_unfolded_recursion():
    """The folded recursion against the unfolded one on every cell of weight
    <= 14."""
    cells = 0
    for n in range(15):
        for xi in strict_partitions(n):
            for lam in partitions(n):
                assert b_coeff(xi, lam) == reference_b(xi, lam), (xi, lam)
                cells += 1
    assert cells == 7567


def test_a_tall_cell_hits_the_entry_of_its_wide_conjugate():
    """b_coeff folds a tall lam (l(lam) > lam_1) onto its conjugate before
    the _b lookup, and no other: from cold caches, asking every wide cell of
    weight 12 misses _b exactly as often as asking _b itself; asking the tall
    cells after them misses it never, and each equals the unfolded
    recursion."""
    n = 12
    xis = strict_partitions(n)
    wide = [lam for lam in partitions(n) if lam[0] >= len(lam)]
    tall = [lam for lam in partitions(n) if lam[0] < len(lam)]
    assert len(tall) == 35 and len(wide) == 42

    def misses(fn, cells):
        _b.cache_clear()
        _conjugate.cache_clear()
        for xi in xis:
            for lam in cells:
                fn(xi, lam)
        return _b.cache_info().misses

    direct = misses(_b, wide)
    assert misses(b_coeff, wide) == direct
    before = _b.cache_info().misses
    for xi in xis:
        for lam in tall:
            assert b_coeff(xi, lam) == reference_b(xi, lam), (xi, lam)
    assert _b.cache_info().misses == before


def test_count_Ns_closed_vs_brute():
    for n in range(2, 9):
        for lam in partitions(n):
            for s in range(-1, n + 2):
                assert count_Ns(lam, s) == count_Ns(lam, s, brute_force=True), (lam, s)


def test_two_row_formula_vs_recursion():
    for n in range(3, 11):
        for m in range(1, (n - 1) // 2 + 1):
            if 2 * m >= n:
                continue
            for lam in partitions(n):
                assert b_two_row(n, m, lam) == b_coeff((n - m, m), lam), (n, m, lam)


def test_square_closed_forms_on_hooks():
    # hooks (2r-j, 1^j): zero below the diagonal, alternating signs above
    for r in range(1, 6):
        for j in range(2 * r):
            lam = (2 * r - j,) + (1,) * j
            want = 0 if j < r else (-1) ** (r + j)
            assert g_square(r, lam) == want, (r, lam)


def test_square_double_hook_window():
    from spinkostka.partitions import ShapeKind, classify_shape

    for r in range(1, 7):
        for lam in partitions(2 * r):
            got = g_square_alternating_sum(r, lam)
            shape = classify_shape(lam)
            if shape.kind is ShapeKind.DOUBLE_HOOK_PROPER:
                inside = shape.lam2 + shape.m1 - 1 <= shape.lam1 <= shape.lam2 + shape.m1 + 1
                assert got == (1 if inside else 0), lam
            elif shape.kind is ShapeKind.OTHER:
                assert got == 0, lam


def test_square_closed_vs_alternating_sum():
    for r in range(1, 11):
        for lam in partitions(2 * r):
            assert g_square(r, lam) == g_square_alternating_sum(r, lam), (r, lam)


def test_square_matches_general_oracle():
    for r in range(1, 5):
        for lam in partitions(2 * r):
            assert g_square(r, lam) == g_general((r, r), lam), (r, lam)


@pytest.mark.parametrize("args", [((1, 2), (2, 1)), ((2, 2), (3, 1.0))])
def test_g_general_checks_its_partitions(args):
    """The cross-check g_general validates mu and lam as the oracle's
    entries do."""
    with pytest.raises(ValueError, match="must be a"):
        g_general(*args)


def test_g_general_takes_lists():
    assert g_general([2, 2], [2, 2]) == g_general((2, 2), (2, 2))
