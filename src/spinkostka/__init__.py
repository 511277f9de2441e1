"""Exact computation of spin Kostka polynomials and Stembridge coefficients.

Public surface:

* :func:`spin_kostka` / :class:`SpinKostkaEngine` -- the recurrence engine
  for K^-_{xi,mu}(t);
* :func:`b_coeff`, :func:`g_coeff` and the square-shape closed forms;
* :func:`kostka_hook` for hook-shape Kostka-Foulkes polynomials;
* the ``oracle`` module -- an independent vertex-operator evaluation used
  for cross-validation;
* :class:`LaurentPoly` -- the exact coefficient domain of all results.
"""

from .polynomial import (
    InexactDivisionError,
    LaurentPoly,
    t_binomial,
    t_double_factorial,
    t_factorial,
    t_int,
)
from .partitions import (
    conjugate,
    dominates,
    is_hook,
    is_partition,
    is_strict_partition,
    partitions,
    strict_partitions,
)
from .engine import (
    SpinKostkaEngine,
    kostka_hook,
    spin_kostka,
    spin_kostka_one_row,
    spin_kostka_two_part,
)
from .schur import (
    b_coeff,
    b_two_row,
    count_Ns,
    g_coeff,
    g_square,
)

__all__ = [
    "InexactDivisionError",
    "LaurentPoly",
    "SpinKostkaEngine",
    "b_coeff",
    "b_two_row",
    "conjugate",
    "count_Ns",
    "dominates",
    "g_coeff",
    "g_square",
    "is_hook",
    "is_partition",
    "is_strict_partition",
    "kostka_hook",
    "partitions",
    "spin_kostka",
    "spin_kostka_one_row",
    "spin_kostka_two_part",
    "strict_partitions",
    "t_binomial",
    "t_double_factorial",
    "t_factorial",
    "t_int",
]

__version__ = "1.0.0"
