"""Published reference tables of spin Kostka polynomials for 2 <= n <= 6.

The entries are transcribed verbatim from the published tables in their
t-bracket notation ([k] = 1 + t + ... + t^(k-1), [k]! and [k]!! the
t-factorials) and expanded here with exact arithmetic, independently of
the recurrence engine.  Rows are indexed by mu, columns by the strict
partitions xi of weight n that the source tabulates.

One entry of the source table is provably a misprint; it is kept verbatim
in ``published_tables`` and documented in ``KNOWN_DISCREPANCIES`` together
with the value confirmed by three independent computations (recurrence,
vertex-operator inner product, and the b/K factorization).
"""

from __future__ import annotations

from functools import lru_cache

from .polynomial import LaurentPoly, ONE, t_factorial
from .polynomial import t_double_factorial as _dd
from .polynomial import t_int as _b


def _tp(k):
    """t^k as a LaurentPoly."""
    return LaurentPoly.term(1, k)


@lru_cache(maxsize=None)
def published_tables():
    """{n: {mu: {xi: LaurentPoly}}} with every tabulated cell, verbatim."""
    z = LaurentPoly()
    tables = {
        2: {
            (2,): {(2,): 2 * ONE},
            (1, 1): {(2,): 2 * _b(2)},
        },
        3: {
            (3,): {(3,): 2 * ONE, (2, 1): z},
            (2, 1): {(3,): 2 * _b(2), (2, 1): 4 * ONE},
            (1, 1, 1): {(3,): 2 * _b(4), (2, 1): 4 * _tp(1) * _b(2)},
        },
        4: {
            (4,): {(4,): 2 * ONE, (3, 1): z},
            (3, 1): {(4,): 2 * _b(2), (3, 1): 4 * ONE},
            (2, 2): {(4,): 2 * _tp(1) * _b(2), (3, 1): 4 * _b(2)},
            (2, 1, 1): {(4,): 2 * _b(4), (3, 1): 4 * _b(2) * _b(2)},
            (1, 1, 1, 1): {
                (4,): 2 * _dd(6).exact_div(t_factorial(3)),
                (3, 1): 4 * _tp(1) * _dd(4),
            },
        },
        5: {
            (5,): {(5,): 2 * ONE, (4, 1): z, (3, 2): z},
            (4, 1): {(5,): 2 * _b(2), (4, 1): 4 * ONE, (3, 2): z},
            (3, 2): {(5,): 2 * _tp(1) * _b(2), (4, 1): 4 * _b(2), (3, 2): 4 * ONE},
            (3, 1, 1): {
                (5,): 2 * _b(4),
                (4, 1): 4 * _b(2) * _b(2),
                (3, 2): 4 * _b(2),
            },
            (2, 2, 1): {
                (5,): 2 * _tp(1) * _b(4),
                (4, 1): 4 * _b(2) * _b(3),
                (3, 2): 4 * _b(2) * _b(2),
            },
            (2, 1, 1, 1): {
                (5,): 2 * _dd(6).exact_div(t_factorial(3)),
                (4, 1): 4 * _b(4) * _b(3),
                (3, 2): 4 * _tp(1) * _b(2) * (_b(3) + ONE),
            },
            (1, 1, 1, 1, 1): {
                (5,): 2 * _dd(8).exact_div(t_factorial(4)),
                (4, 1): 4 * _tp(1) * _dd(6).exact_div(_b(2)),
                (3, 2): 4 * _tp(2) * _b(4) * _b(4),
            },
        },
        6: {
            (6,): {(6,): 2 * ONE, (5, 1): z, (4, 2): z, (3, 2, 1): z},
            (5, 1): {(6,): 2 * _b(2), (5, 1): 4 * ONE, (4, 2): z, (3, 2, 1): z},
            (4, 2): {
                (6,): 2 * _tp(1) * _b(2),
                (5, 1): 4 * _b(2),
                (4, 2): 4 * ONE,
                (3, 2, 1): z,
            },
            (4, 1, 1): {
                (6,): 2 * _b(4),
                (5, 1): 4 * _b(2) * _b(2),
                (4, 2): 4 * _b(2),
                (3, 2, 1): z,
            },
            (3, 3): {
                (6,): 2 * _tp(2) * _b(2),
                (5, 1): 4 * _tp(1) * _b(2),
                (4, 2): 4 * _b(2),
                (3, 2, 1): z,
            },
            (3, 2, 1): {
                (6,): 2 * _tp(1) * _b(4),
                (5, 1): 4 * _b(2) * _b(3),
                (4, 2): 4 * _b(2) * (_tp(1) + 2 * ONE),
                (3, 2, 1): 8 * ONE,
            },
            (3, 1, 1, 1): {
                (6,): 2 * _dd(6).exact_div(t_factorial(3)),
                (5, 1): 4 * _b(4) * _b(3),
                (4, 2): 4 * _b(2) * _b(2) * _b(3),
                (3, 2, 1): 8 * _tp(1) * _b(2),
            },
            (2, 2, 2): {
                (6,): 2 * _tp(3) * _b(4),
                (5, 1): 4 * _tp(1) * _dd(4),
                (4, 2): 4 * _b(2) * (_b(4) + _tp(2)),
                (3, 2, 1): 8 * _tp(1) * _b(2),
            },
            (2, 2, 1, 1): {
                (6,): 2 * _tp(1) * _dd(6).exact_div(t_factorial(3)),
                (5, 1): 4 * _b(4) * _b(4),
                (4, 2): 4 * _b(2) * _b(2) * (_b(4) + _tp(1)),
                (3, 2, 1): 8 * _tp(1) * _b(2) * _b(2),
            },
            (2, 1, 1, 1, 1): {
                (6,): 2 * _dd(8).exact_div(t_factorial(4)),
                (5, 1): 4 * _b(4) * _dd(6),
                (4, 2): 4 * _tp(1) * _dd(4) * (_b(4) + ONE),
                (3, 2, 1): 8 * _tp(2) * _dd(4),
            },
            (1, 1, 1, 1, 1, 1): {
                (6,): 2 * _dd(10).exact_div(t_factorial(5)),
                (5, 1): 4 * _tp(1) * _dd(8).exact_div(t_factorial(3)),
                (4, 2): 4 * _tp(2) * _b(5) * _dd(6).exact_div(_b(3)),
                (3, 2, 1): 8 * _tp(4) * _dd(6).exact_div(_b(3)),
            },
        },
    }
    return tables


# The published cell K^-_{(5,1),(2,1^4)} reads 4[4][6]!!, which has degree
# 12 and value 768 at t = 1.  Three independent computations (the
# recurrence, the vertex-operator inner product <H_mu.1, Q_xi.1>, and
# sum_lam b_{xi,lam} K_{lam,mu}(t)) all give 4[4]^2(t^3+1), degree 9 and
# value 128 at t = 1; degree 12 would also violate the general bound
# deg K^- <= n(mu) = 10.  The published entry is a misprint.
# The verified value equals 4[4][6]!!/[3]!, and many cells of the table
# have this [k]!!/[j]! form (2[8]!!/[4]! in the same row), so the source
# may have dropped a "/[3]!".  PAPER.md holds only the abstract, so the
# repository cannot settle whether the slip is in the print or in the
# transcription.
KNOWN_DISCREPANCIES = {
    (6, (2, 1, 1, 1, 1), (5, 1)): {
        "published": lambda: 4 * _b(4) * _dd(6),
        "verified": lambda: 4 * _b(4) * _b(4) * (_tp(3) + ONE),
    }
}


@lru_cache(maxsize=None)
def verified_tables():
    """The published tables with each documented misprint replaced by its
    cross-validated value.  A documented cell that the tables do not hold
    is left out; ``verify --suite tables`` reports it."""
    tables = {
        n: {mu: dict(cols) for mu, cols in rows.items()}
        for n, rows in published_tables().items()
    }
    for (n, mu, xi), entry in KNOWN_DISCREPANCIES.items():
        if xi in tables.get(n, {}).get(mu, {}):
            tables[n][mu][xi] = entry["verified"]()
    return tables
