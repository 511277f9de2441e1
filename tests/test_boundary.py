"""The public boundary: every entry checks its partitions once, through
``partitions.as_partition``, and no other code decides what is valid."""

import ast
import glob
import json
import os
from collections import namedtuple
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinkostka
from spinkostka import (
    SpinKostkaEngine,
    b_coeff,
    b_two_row,
    conjugate,
    count_Ns,
    dominates,
    g_coeff,
    g_square,
    is_hook,
    kostka_hook,
    spin_kostka,
    spin_kostka_one_row,
    spin_kostka_two_part,
    t_binomial,
    t_double_factorial,
    t_factorial,
    t_int,
)
from spinkostka.oracle import oracle_b, oracle_kostka_foulkes, oracle_spin_kostka, oracle_spin_via_bK
from spinkostka.partitions import (
    _conjugate,
    _Partition,
    _StrictPartition,
    as_partition,
    is_partition,
    is_strict_partition,
    partitions,
    strict_partitions,
)
from spinkostka.polynomial import ONE, T, InexactDivisionError
from spinkostka.straighten import step_coeff

from crosscheck import (
    reference_as_partition,
    reference_is_partition,
    reference_is_strict_partition,
)

STRICT, PARTITION = "strict", "partition"


def _entries(n, k, xi, mu, lam):
    """Every public entry as (function, valid arguments, the partition
    arguments as (position, name, kind)).  lam has weight 2n, for g_square.
    The closed forms get arguments inside their own limits: (n - k, k) has
    at most two parts, and b_two_row's m = k + 1 lies in [1, (2n + 1)/2)."""
    cell = [(0, "xi", STRICT), (1, "mu", PARTITION)]
    b_cell = [(0, "xi", STRICT), (1, "lam", PARTITION)]
    two_parts = tuple(sorted((p for p in (n - k, k) if p), reverse=True))
    return [
        (spin_kostka, (xi, mu), cell),
        (SpinKostkaEngine().spin_kostka, (xi, mu), cell),
        (b_coeff, (xi, mu), b_cell),
        (g_coeff, (xi, mu), b_cell),
        (g_square, (n, lam), [(1, "lam", PARTITION)]),
        (kostka_hook, (n, k, mu), [(2, "mu", PARTITION)]),
        (spin_kostka_one_row, (mu,), [(0, "mu", PARTITION)]),
        (spin_kostka_two_part, (xi, two_parts), cell),
        (b_two_row, (2 * n + 1, k + 1, lam + (1,)), [(2, "lam", PARTITION)]),
        (count_Ns, (lam, k), [(0, "lam", PARTITION)]),
        (conjugate, (mu,), [(0, "lam", PARTITION)]),
        (dominates, (xi, mu), [(0, "lam", PARTITION), (1, "mu", PARTITION)]),
        (is_hook, (mu,), [(0, "lam", PARTITION)]),
    ]


# Public callables that take no partition argument, or answer for any
# input instead of raising, and so are not in _entries.
EXEMPT = {
    "InexactDivisionError": "an exception type",
    "LaurentPoly": "takes an exponent -> int dict, checked in test_polynomial",
    "partitions": "takes an int n and an int or None max_part, checked in test_enumerators_reject_bools_and_non_ints",
    "strict_partitions": "takes an int n and an int or None max_part, checked in test_enumerators_reject_bools_and_non_ints",
    "is_partition": "a predicate: answers for any sequence",
    "is_strict_partition": "a predicate: answers for any sequence",
    "t_int": "takes an int >= 0, checked in test_t_brackets_reject_bools_non_ints_and_negatives",
    "t_factorial": "takes an int >= 0, checked in test_t_brackets_reject_bools_non_ints_and_negatives",
    "t_double_factorial": "takes an int >= 0, checked in test_t_brackets_reject_bools_non_ints_and_negatives",
    "t_binomial": "takes two ints >= 0, checked in test_t_brackets_reject_bools_non_ints_and_negatives",
}


def _defects(parts, kind):
    """Inputs an argument of this kind must reject, made from the valid
    list ``parts``: wrong types, then zero, negative and increasing parts,
    and for strict ones a repeated part."""
    head, last = parts[:-1], (parts or [1])[-1]
    bad = [None, 3, "1", head + [float(last)], head + [True], head + [str(last)], head + [None],
           parts + [0], parts + [-1], parts + [parts[0] + 1] if parts else [1, 2]]
    if kind == STRICT:
        bad.append(parts + parts[-1:] if parts else [1, 1])
    return bad


@st.composite
def valid_calls(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return (
        n,
        draw(st.integers(min_value=0, max_value=n - 1)),
        draw(st.sampled_from(strict_partitions(n))),
        draw(st.sampled_from(partitions(n))),
        draw(st.sampled_from(partitions(2 * n))),
    )


@given(valid_calls())
@settings(max_examples=60, deadline=None)
def test_every_entry_takes_lists_and_rejects_the_same_inputs(call):
    """The partitions drawn are the enumerators' marked tuples: each entry
    answers alike for them, their plain tuple() copies and list() copies."""
    for fn, args, slots in _entries(*call):
        as_lists = [list(a) if isinstance(a, tuple) else a for a in args]
        as_tuples = [tuple(a) if isinstance(a, tuple) else a for a in args]
        assert fn(*as_lists) == fn(*as_tuples) == fn(*args), (fn, args)
        for pos, name, kind in slots:
            for value in _defects(list(args[pos]), kind):
                bad = args[:pos] + (value,) + args[pos + 1:]
                with pytest.raises(ValueError) as exc:
                    fn(*bad)
                assert str(exc.value).startswith(name + " "), (fn, bad, exc.value)


def test_every_public_callable_is_an_entry_or_exempt():
    """A new export must join _entries (and so the boundary test) or
    EXEMPT with its reason; a bound method stands for its class."""
    covered = set()
    for fn, _, _ in _entries(2, 1, (2,), (1, 1), (2, 2)):
        owner = getattr(fn, "__self__", None)
        covered.add(type(owner).__name__ if owner is not None else fn.__name__)
    public = {name for name in spinkostka.__all__ if callable(getattr(spinkostka, name))}
    assert public - covered - set(EXEMPT) == set()
    assert set(EXEMPT) <= public - covered, "stale exemptions"


@pytest.mark.parametrize(
    "fn, args, name",
    [
        (b_two_row, (4.0, 1, (2, 2)), "n"),
        (b_two_row, (True, 1, (1,)), "n"),
        (b_two_row, (5, 1.0, (3, 2)), "m"),
        (b_two_row, (5, True, (3, 2)), "m"),
        (count_Ns, ((3, 1), True), "s"),
        (count_Ns, ((3, 1), 1.5), "s"),
        (count_Ns, ((3, 1), 1.0), "s"),
        (partial(count_Ns, brute_force=True), ((3, 1), True), "s"),
        (kostka_hook, (True, 0, (1,)), "n"),
        (g_square, (True, (1, 1)), "r"),
    ],
)
def test_int_arguments_reject_floats_and_bools(fn, args, name):
    """An int argument takes only an int: a float or a bool that equals one
    raises a ValueError that names the argument."""
    with pytest.raises(ValueError, match=r"\b%s=|^%s " % (name, name)):
        fn(*args)


@pytest.mark.parametrize(
    "fn, args, named",
    [
        (spin_kostka_two_part, ((3,), (2, 2)), None),
        (oracle_b, ((3,), (2, 2)), None),
        (oracle_kostka_foulkes, ((3,), (2, 2)), None),
        (oracle_spin_via_bK, ((3,), (2, 2)), None),
        (b_two_row, (5, 1, (3, 1)), ("lam=(3, 1)", "n=5")),
        (kostka_hook, (5, 1, (3, 1)), ("mu=(3, 1)", "n=5")),
        (g_square, (2, (3, 2)), ("lam=(3, 2)", "r=2")),
    ],
)
def test_unequal_weights(fn, args, named):
    """A cell whose partitions have unequal weights is 0; a closed form that
    takes the weight as an int raises a ValueError naming the partition and
    that int."""
    if named is None:
        assert fn(*args) == 0
        return
    with pytest.raises(ValueError) as exc:
        fn(*args)
    for part in named:
        assert part in str(exc.value), (fn, exc.value)


@pytest.mark.parametrize(
    "fn, args, name",
    [
        (t_int, (True,), "n"),
        (t_int, (2.0,), "n"),
        (t_int, (-1,), "n"),
        (t_factorial, (True,), "n"),
        (t_factorial, (3.0,), "n"),
        (t_factorial, (-2,), "n"),
        (t_double_factorial, (False,), "n"),
        (t_double_factorial, ("4",), "n"),
        (t_double_factorial, (-3,), "n"),
        (t_binomial, (True, False), "n"),
        (t_binomial, (4.0, 2), "n"),
        (t_binomial, (-1, 0), "n"),
        (t_binomial, (4, False), "k"),
        (t_binomial, (4, 1.0), "k"),
        (t_binomial, (4, -1), "k"),
    ],
)
def test_t_brackets_reject_bools_non_ints_and_negatives(fn, args, name):
    """A t-bracket takes ints >= 0: a bool, a non-int or a negative value
    raises a ValueError that names the argument, and 0 is taken."""
    with pytest.raises(ValueError, match="^%s must be an int >= 0, got " % name):
        fn(*args)
    assert fn(*[0 for _ in args]) == (0 if fn is t_int else 1)


def test_t_binomial_checks_its_arguments_before_its_cache():
    """[n, k] is cached per (n, k), and True == 1 hashes alike, so a bool
    must be refused before the lookup: after the int forms are cached, the
    bool forms still raise, through t_binomial and through kostka_hook."""
    assert t_binomial(1, 0) == t_binomial(1, 1) == 1
    assert kostka_hook(2, 1, (1, 1)) == 1
    for args, name in [((True, 0), "n"), ((1, False), "k"), ((1, True), "k")]:
        with pytest.raises(ValueError, match="^%s must be an int >= 0, got " % name):
            t_binomial(*args)
    with pytest.raises(ValueError, match="need ints"):
        kostka_hook(2, True, (1, 1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: spin_kostka_two_part((4, 2), (3, 2, 1)), ValueError, "got mu=(3, 2, 1)"),
        (lambda: step_coeff(-2, 0), ValueError, "got gap=-2"),
        (lambda: T ** -3, ValueError, "negative power of a LaurentPoly, got n=-3"),
        (lambda: ONE.exact_div(T + ONE), InexactDivisionError, ": (1) / (t + 1)"),
        (lambda: (T + ONE).exact_div(2 * T + 2), InexactDivisionError, ": (t + 1) / (2*t + 2)"),
        (lambda: (T + ONE).exact_div(T - ONE), InexactDivisionError, ": (t + 1) / (t - 1)"),
    ],
    ids=["two-part", "step_coeff", "pow", "exact_div-degree", "exact_div-coefficient", "exact_div-remainder"],
)
def test_errors_name_their_input(call, error, message):
    """A refused argument is named in the error: the mu of the two-part
    closed form, the gap of a straightening move, the exponent of a power,
    and both polynomials of an inexact division, at each of its three
    checks."""
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).endswith(message), str(raised.value)


@pytest.mark.parametrize("fn", [partitions, strict_partitions])
def test_enumerators_reject_bools_and_non_ints(fn):
    """An enumerator takes an int n and an int or None max_part: a bool or a
    non-int raises a ValueError that names the argument, also after the int
    it equals is cached (True == 1 and hashes like it), and a negative n
    gives ()."""
    for args in [(0,), (1,), (2,), (2, 1), (3, 0), (3, 1)]:
        fn(*args)
    for args, kwargs, name in [
        ((True,), {}, "n"),
        ((False,), {}, "n"),
        ((2.0,), {}, "n"),
        (("2",), {}, "n"),
        ((), {"n": True}, "n"),
        ((2, 1.0), {}, "max_part"),
        ((3, False), {}, "max_part"),
        ((3, True), {}, "max_part"),
        ((3,), {"max_part": True}, "max_part"),
    ]:
        with pytest.raises(ValueError, match="^%s must be an int" % name):
            fn(*args, **kwargs)
    assert fn(-1) == fn(-2, 3) == ()
    assert fn(0) == fn(0, None) == ((),)
    assert fn(1) == ((1,),)


def test_as_partition():
    assert as_partition([3, 1], "xi", strict=True) == (3, 1)
    assert as_partition((2, 2), "mu") == (2, 2)
    assert as_partition([], "mu") == ()
    for seq in [(2, 2), (1, 3), (3, 0), (2.0,), (True,), "21", 2, None]:
        with pytest.raises(ValueError, match=r"^xi must be a strict partition of ints, got "):
            as_partition(seq, "xi", strict=True)


def _enumerated(n):
    """(enumerator, its mark, an answer) for every answer of both
    enumerators at n, for max_part None and 0..n."""
    for fn, mark in ((partitions, _Partition), (strict_partitions, _StrictPartition)):
        for max_part in [None, *range(n + 1)]:
            for p in fn(n, max_part):
                yield fn, mark, p


def test_enumerator_outputs_carry_their_check():
    """Every answer of partitions and strict_partitions for n <= 12 carries
    exactly its enumerator's mark, equals, hashes, prints and serializes as
    its plain copy, and comes back from as_partition as the same object; a
    non-strict one asked as a strict partition is checked again, as a plain
    tuple would be."""
    for n in range(13):
        for fn, mark, p in _enumerated(n):
            plain = tuple(p)
            assert type(p) is mark and p == plain and hash(p) == hash(plain), (fn, p)
            assert repr(p) == repr(plain) and json.dumps(p) == json.dumps(plain), (fn, p)
            assert as_partition(p, "mu") is p
            if mark is _StrictPartition:
                assert as_partition(p, "xi", strict=True) is p
            elif is_strict_partition(p):
                again = as_partition(p, "xi", strict=True)
                assert type(again) is tuple and again == p
            else:
                with pytest.raises(ValueError, match=r"^xi must be a strict partition of ints, got "):
                    as_partition(p, "xi", strict=True)


def test_a_marked_partition_with_a_repeat_is_refused_as_xi():
    """The mark of partitions() does not stand for strictness: every entry
    that takes xi still refuses (2, 2) and (1, 1, 1, 1) built by it."""
    for xi in ((2, 2), (1, 1, 1, 1)):
        marked = partitions(4)[partitions(4).index(xi)]
        assert type(marked) is _Partition
        for fn in (spin_kostka, SpinKostkaEngine().spin_kostka, b_coeff, g_coeff, oracle_spin_kostka):
            with pytest.raises(ValueError, match=r"^xi must be a strict partition of ints, got "):
                fn(marked, (4,))


def test_derived_tuples_are_plain():
    """Slices, concatenation, repetition, tuple() and _conjugate give plain
    tuples, so nothing built from a marked partition inherits the mark."""
    for n in range(1, 9):
        for _, _, p in _enumerated(n):
            derived = [p[:], p[1:], p[:-1], p + (), () + p, p + p, p * 1, tuple(p), _conjugate(p)]
            assert all(type(d) is tuple for d in derived), p


def _outcome(fn, *args, **kwargs):
    """fn's value, or the type and message of the TypeError or ValueError
    it raised."""
    try:
        return "value", fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class _Parts(list):
    pass


def _corpus():
    """(sequences, others): every int vector of length <= 5 with entries in
    -1..4, and each with a bool, a float, a str or None spliced in, all as a
    tuple and as a list; a namedtuple, a list subclass, a str and ranges;
    then non-sequences.  The splice position turns with the vector and the
    odd value, so every position of every length is met."""
    vectors = [v for k in range(6) for v in product(range(-1, 5), repeat=k)]
    spliced = [
        v[:i] + (odd,) + v[i:]
        for j, v in enumerate(vectors)
        for k, odd in enumerate((True, 1.0, "1", None))
        for i in [(j + k) % (len(v) + 1)]
    ]
    pair = namedtuple("Pair", "first second")
    sequences = [kind(v) for v in vectors + spliced for kind in (tuple, list)]
    sequences += [pair(2, 1), pair(1, 1), _Parts([3, 1]), _Parts([1, 3]), "21", range(3, 0, -1), range(3)]
    return sequences, [3, None, {2: 1}, {}, (p for p in (2, 1))]


def test_the_check_accepts_and_rejects_what_the_reference_does():
    """as_partition returns the reference's plain tuple or raises its
    ValueError with the same message, for both values of strict.  The predicates give
    the pairwise formulas' value, or raise the same type, on every sequence;
    the formulas slice their argument, so a dict or a generator is left out."""
    sequences, others = _corpus()
    for seq in sequences + others:
        for strict in (False, True):
            new = _outcome(as_partition, seq, "xi", strict=strict)
            assert new == _outcome(reference_as_partition, seq, "xi", strict=strict), (seq, strict)
            assert new[0] is ValueError or type(new[1]) is tuple, (seq, strict)
    predicates = [(is_partition, reference_is_partition), (is_strict_partition, reference_is_strict_partition)]
    for seq in sequences:
        for mine, theirs in predicates:
            new, old = _outcome(mine, seq), _outcome(theirs, seq)
            assert new == old if new[0] == "value" else new[0] == old[0], (mine, seq, new, old)


VALIDITY_CHECKS = {"is_partition", "is_strict_partition"}


def _validity_uses(path):
    """(function, line) of each use of a validity predicate in a source file:
    calls, plain references and imports under another name; function is the
    enclosing def."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, ast.alias) and child.asname:
                name = child.name
            if isinstance(child, (ast.Name, ast.Attribute, ast.alias)) and name in VALIDITY_CHECKS:
                found.append((where, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    with open(path) as fh:
        visit(ast.parse(fh.read()), "<module>")
    return found


def test_validity_is_decided_by_partitions_alone():
    """Outside partitions.py only invariants.cell_failures, which reports a
    bad cell instead of raising, may use is_partition or is_strict_partition;
    every entry validates through as_partition."""
    package = os.path.dirname(spinkostka.__file__)
    allowed, stray = [], []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)[:-3]
        if module == "partitions":
            continue
        for where, line in _validity_uses(path):
            use = "%s.%s (line %d)" % (module, where, line)
            (allowed if (module, where) == ("invariants", "cell_failures") else stray).append(use)
    assert allowed, "the scan no longer finds invariants.cell_failures"
    assert not stray, stray
