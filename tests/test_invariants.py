"""The invariant checker names every invariant a wrong value breaks."""

import pytest

from spinkostka.engine import spin_kostka
from spinkostka.invariants import cell_failures, failures
from spinkostka.polynomial import LaurentPoly


def _with(cell, value):
    """spin_kostka, except that ``cell`` takes ``value``."""
    return lambda xi, mu: value if (xi, mu) == cell else spin_kostka(xi, mu)


def test_poisoned_value():
    assert cell_failures((3, 1), (2, 2), LaurentPoly.const(999)) == [
        "divisibility by 2^l(xi)",
        "value 2^l(xi) delta at t = -1",
        "value b_{xi,mu} at t = 0",
        "value at t = 1 counts marked shifted tableaux",
    ]
    found = failures(_with(((3, 1), (2, 2)), LaurentPoly.const(999)), [4])
    assert found == [
        "divisibility by 2^l(xi): xi=(3, 1) mu=(2, 2)",
        "value 2^l(xi) delta at t = -1: xi=(3, 1) mu=(2, 2)",
        "value b_{xi,mu} at t = 0: xi=(3, 1) mu=(2, 2)",
        "value at t = 1 counts marked shifted tableaux: xi=(3, 1) mu=(2, 2)",
    ]


def test_multiple_of_the_true_value():
    # K-_{(3,1),(2,2)} = 4t + 4; twice it keeps divisibility, the zero at
    # t = -1 and the degree bound, but not the constant term b = 4 or the 8
    # marked shifted tableaux at t = 1
    assert cell_failures((3, 1), (2, 2), LaurentPoly({1: 8, 0: 8})) == [
        "value b_{xi,mu} at t = 0",
        "value at t = 1 counts marked shifted tableaux",
    ]
    # K-_{(2,1),(1,1,1)} = 4t^2 + 4t has b = 0, so only the count at t = 1
    # tells it from twice its value
    assert cell_failures((2, 1), (1, 1, 1), LaurentPoly({2: 8, 1: 8})) == [
        "value at t = 1 counts marked shifted tableaux"
    ]


def test_degree_above_n_mu():
    # n((2, 2)) = 2; 4t^3 + 4t^2 keeps divisibility and the value at t = -1
    assert cell_failures((3, 1), (2, 2), LaurentPoly({3: 4, 2: 4})) == [
        "value b_{xi,mu} at t = 0",
        "degree at most n(mu)",
    ]
    assert cell_failures((3, 1), (2, 2), LaurentPoly({0: 4, -1: 4})) == ["degree at most n(mu)"]
    assert cell_failures((3, 1), (2, 2), LaurentPoly({3: 4, 0: 4})) == ["degree at most n(mu)"]


def test_nonzero_off_dominance():
    assert cell_failures((2, 1), (3,), LaurentPoly({1: 4, 0: 4})) == [
        "vanishing unless xi dominates mu"
    ]


def test_diagonal():
    assert cell_failures((3, 1), (3, 1), LaurentPoly({1: 4, 0: 8})) == [
        "value b_{xi,mu} at t = 0",
        "value at t = 1 counts marked shifted tableaux",
        "diagonal value 2^l(xi)",
    ]


def test_broken_leading_block():
    # K-_{(4,2),(4,1,1)} must be 2 K-_{(2),(1,1)} = 4t + 4; adding
    # 4t(t^2 - 1), which vanishes at t = 0, 1 and -1, keeps every per-cell
    # invariant
    cell = ((4, 2), (4, 1, 1))
    wrong = 2 * spin_kostka((2,), (1, 1)) + LaurentPoly({3: 4, 1: -4})
    assert cell_failures(*cell, wrong) == []
    found = failures(_with(cell, wrong), [6], [5], grow=(1,))
    assert "leading-block factor 2: xi=(4, 2) mu=(4, 1, 1)" in found
    assert "stability r=1: xi=(3, 2) mu=(3, 1, 1)" in found
    assert all("xi=(4, 2) mu=(4, 1, 1)" in line or "xi=(3, 2) mu=(3, 1, 1)" in line for line in found)


@pytest.mark.parametrize(
    "xi, mu",
    [((2, 2), (3, 1)), ((3, 1), (1, 3)), ((3, 1), (2, 1))],
    ids=["xi-not-strict", "mu-not-partition", "weights"],
)
def test_not_a_cell(xi, mu):
    assert cell_failures(xi, mu, LaurentPoly({1: 4, 0: 4})) == [
        "not a cell: xi strict, mu a partition, equal weights"
    ]
