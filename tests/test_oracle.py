"""Vertex-operator oracle: expansions, inner products and relations."""

import gc
import random
import re
from math import gcd
from fractions import Fraction

import pytest

from crosscheck import (
    coefficient,
    inverse_z_t,
    package_imports,
    reference_apply_component,
    reference_inner,
    reference_product,
    t_form_kostka_foulkes,
    t_form_scaled,
    t_form_spin_kostka,
    vector,
)
from spinkostka import oracle, spin_kostka
from spinkostka.oracle import (
    OperatorSpec,
    PExpansion,
    adjoint_spec,
    apply_component,
    eps,
    hl_Q,
    hl_Q_prime,
    htilde,
    inner,
    inner_at_minus_one,
    op_e,
    op_e_minus,
    op_H,
    op_H_prime,
    op_H_star,
    op_htilde,
    op_htilde_star,
    op_q,
    op_Q,
    op_Q_star,
    op_S_minus,
    op_S_plus,
    oracle_b,
    oracle_kostka_foulkes,
    oracle_spin_kostka,
    oracle_spin_via_bK,
    schur_q,
    schur_s,
    u_stat,
    verify_relations,
)
from spinkostka.partitions import partitions, strict_partitions
from spinkostka.polynomial import ONE, LaurentPoly, RatFunc, RF_ONE


def test_q_n_power_sum_expansion():
    """H_n.1 = sum_{lam |- n} p_lam / z_lam(t)."""
    for n in range(0, 6):
        q = hl_Q((n,)) if n else hl_Q(())
        for lam in partitions(n):
            assert coefficient(q, lam) == inverse_z_t(lam), lam


def test_htilde_power_sum_expansion():
    for n in range(0, 6):
        h = htilde(n)
        for lam in partitions(n):
            inv = inverse_z_t(lam)
            want = RatFunc(inv.num.subs_neg_t(), inv.den) * eps(lam)
            assert coefficient(h, lam) == want, lam


def test_schur_function_expansions():
    # s_2 = p_2/2 + p_1^2/2, s_11 = -p_2/2 + p_1^2/2
    s2 = schur_s((2,))
    assert coefficient(s2, (2,)) == RatFunc(1, 2)
    assert coefficient(s2, (1, 1)) == RatFunc(1, 2)
    s11 = schur_s((1, 1))
    assert coefficient(s11, (2,)) == RatFunc(-1, 2)
    assert coefficient(s11, (1, 1)) == RatFunc(1, 2)


def test_adjointness_of_each_operator_pair():
    """<A_n u, v> = <u, A*_n v> on a spanning sample, for H', Q, htilde, S+
    and e+ with their adjoints under the Hall form, and for H with H* under
    the t-deformed form, through the test-side pairing (times D_5, which
    holds its poles, as u and v have weight <= 5)."""
    pairs = (
        (op_H_prime, adjoint_spec(op_H_prime), inner),
        (op_Q, op_Q_star, inner),
        (op_htilde, op_htilde_star, inner),
        (op_S_plus, op_S_minus, inner),
        (op_e, op_e_minus, inner),
        (op_H, op_H_star, lambda F, G: t_form_scaled(F, G, 5)),
    )
    for op, adj, pair in pairs:
        for n in (1, 2, 3):
            for lam_u in (lam for d in range(3) for lam in partitions(d)):
                for lam_v in partitions(sum(lam_u) + n):
                    u = PExpansion({lam_u: ONE})
                    v = PExpansion({lam_v: ONE})
                    assert pair(op(n, u), v) == pair(u, adj(n, v)), (op.name, n, lam_u, lam_v)


def test_q_prime_is_q_under_x_over_one_minus_t():
    """Q_mu is Q'_mu under X -> (1 - t)X: the coefficient of p_lam in Q'_mu
    times prod_i (1 - t^lam_i) is that in Q_mu, for every mu of weight <= 7."""
    for n in range(8):
        for mu in partitions(n):
            prime = hl_Q_prime(mu)
            want = {}
            for lam in prime.coeffs:
                c = coefficient(prime, lam)
                for part in lam:
                    c = c * RatFunc(LaurentPoly({0: 1, part: -1}))
                want[lam] = c
            assert hl_Q(mu) == vector(want), mu


def test_hall_form_pairings_match_the_t_form():
    """<Q'_mu, Q_xi> and <s_lam, Q'_mu> under the canonical form give the
    paper's <Q_mu, Q_xi>_t and <s_lam, Q_mu>_t on every cell of weight <= 8,
    so op_H stays tied to the K^- and K values."""
    for n in range(9):
        for mu in partitions(n):
            for xi in strict_partitions(n):
                assert oracle_spin_kostka(xi, mu) == t_form_spin_kostka(xi, mu), (xi, mu)
            for lam in partitions(n):
                assert oracle_kostka_foulkes(lam, mu) == t_form_kostka_foulkes(lam, mu), (lam, mu)


def test_oracle_spin_kostka_values():
    assert oracle_spin_kostka((3, 1), (2, 2)) == LaurentPoly({1: 4, 0: 4})
    assert oracle_spin_kostka((2,), (1, 1)) == LaurentPoly({1: 2, 0: 2})
    assert oracle_spin_kostka((3,), (2, 2)) == LaurentPoly()  # weight mismatch


def test_oracle_b_and_kostka():
    assert oracle_b((4, 3), (2, 2, 2, 1)) == 4
    assert oracle_b((3,), (1, 1, 1)) == 2
    assert oracle_kostka_foulkes((2, 1), (1, 1, 1)) == LaurentPoly({1: 1, 2: 1})
    assert oracle_kostka_foulkes((3,), (1, 1, 1)) == LaurentPoly({3: 1})


def test_three_paths_agree():
    for n in range(0, 6):
        for xi in strict_partitions(n):
            for mu in partitions(n):
                assert oracle_spin_via_bK(xi, mu) == oracle_spin_kostka(xi, mu)


@pytest.mark.parametrize(
    "entry, args",
    [
        (oracle_spin_kostka, ((1, 2), (2, 1))),
        (oracle_spin_kostka, ((2, 0), (2,))),
        (oracle_spin_kostka, ((2.0,), (2,))),
        (oracle_spin_kostka, ((2, 2), (3, 1))),
        (oracle_spin_kostka, ((3, 1), (1, 3))),
        (oracle_b, ((1, 2), (2, 1))),
        (oracle_b, ((2, 1), (1, 2))),
        (oracle_kostka_foulkes, ((1, 2), (2, 1))),
        (oracle_kostka_foulkes, ((2, 1), (2, 1, 0))),
        (oracle_spin_via_bK, ((1, 2), (2, 1))),
        (oracle_spin_via_bK, ((2, 1), (True, 2))),
    ],
)
def test_oracle_entries_check_their_partitions(entry, args):
    """Every entry raises where the engine does: xi strict, lam and mu
    partitions of ints."""
    with pytest.raises(ValueError, match="must be a"):
        entry(*args)


def test_oracle_entries_take_lists():
    assert oracle_spin_kostka([3, 1], [2, 2]) == oracle_spin_kostka((3, 1), (2, 2))
    assert oracle_spin_via_bK([3, 1], [2, 2]) == oracle_spin_kostka((3, 1), (2, 2))
    assert oracle_b([3], [1, 1, 1]) == 2
    assert oracle_kostka_foulkes([3], [1, 1, 1]) == LaurentPoly({3: 1})


def test_no_weight_cap():
    """An entry runs at any weight it is asked for."""
    assert oracle_spin_kostka((13,), (13,)) == LaurentPoly.const(2) == 2


def test_q_word_antisymmetry():
    """Q_a Q_b.1 = -Q_b Q_a.1 for a != b (Clifford, off-diagonal)."""
    lhs = schur_q((3, 1))
    rhs = schur_q((1, 3)).scale(-1)
    assert lhs == rhs


def test_htilde_neg_t_is_q_combination():
    for n in range(0, 5):
        lhs = htilde(n).subs_neg_t()
        rhs = PExpansion.zero()
        for lam in partitions(n):
            q_lam = PExpansion.vacuum()
            for part in lam:
                q_lam = reference_product(q_lam, hl_Q((part,)))
            rhs = rhs + q_lam.scale(eps(lam) * u_stat(lam))
        assert lhs == rhs, n


def test_multiplication_operators_match_the_reference_product():
    """htilde, e+ and q, applied as operators, multiply by h~_n, e_n and
    q_n: for n <= 5 each gives the term-by-term product with that vector on
    the vacuum, the zero vector, vectors of mixed weight and basis vectors."""
    rng = random.Random(5)
    vacuum = PExpansion.vacuum()
    vectors = [vacuum, PExpansion.zero()] + [_random_vector(rng) for _ in range(3)]
    vectors += [hl_Q((2, 1, 1)), schur_q((3, 1)), schur_s((2, 2)), hl_Q_prime((3, 2))]
    for n in range(6):
        for spec, factor in ((op_htilde, htilde(n)), (op_e, op_e(n, vacuum)), (op_q, hl_Q((n,)))):
            for i, F in enumerate(vectors):
                assert spec(n, F) == reference_product(factor, F), (spec.name, n, i)


def test_h_star_is_the_hall_adjoint_of_h_prime():
    """H's t-adjoint, built as H''s Hall adjoint, has creation
    -(1 - t^n)/n and annihilation 1, and takes the z^-n component."""
    assert op_H_star.sign == -1
    for n in range(1, 9):
        assert op_H_star.creation(n) == RatFunc(LaurentPoly({0: -1, n: 1}), n), n
        assert op_H_star.annihilation(n) == RF_ONE, n


def test_schur_q_orthogonality_at_minus_one():
    for n in range(1, 6):
        for lam in strict_partitions(n):
            for xi in strict_partitions(n):
                value = inner_at_minus_one(schur_q(lam), schur_q(xi))
                want = Fraction(2 ** len(lam)) if lam == xi else Fraction(0)
                assert value == want, (lam, xi)


def test_inner_at_minus_one_refuses_an_even_part():
    """z_lam(t) has a pole at t = -1 when lam has an even part, so a shared
    key with one raises, and a key only one side holds does not."""
    with pytest.raises(ValueError, match=r"lam=\(2, 1\) has an even part"):
        inner_at_minus_one(schur_s((3,)), hl_Q((3,)))
    assert inner_at_minus_one(PExpansion({(2,): ONE}), schur_q((1,))) == 0
    assert inner_at_minus_one(PExpansion({(3,): ONE, (2,): ONE}), schur_q((3,))) == 1


def _clear_oracle_caches():
    """Clear every cache the oracle module defines: the basis vectors and
    the coefficient and term tables."""
    for value in vars(oracle).values():
        if hasattr(value, "cache_clear") and value.__module__ == oracle.__name__:
            value.cache_clear()


def _random_vector(rng, degree=5, terms=5):
    """A p-expansion over partitions of mixed weights <= degree, with
    coefficients in Q[t, 1/t]."""
    pool = [lam for d in range(degree + 1) for lam in partitions(d)]
    coeffs = {}
    for lam in rng.sample(pool, terms):
        num = LaurentPoly({e: rng.randint(-3, 3) for e in range(-1, 2)})
        coeffs[lam] = RatFunc(num, rng.randint(1, 4))
    return vector(coeffs)


# Every operator the oracle defines, so that one added later is compared
# with the reference too.
ALL_SPECS = {name: value for name, value in vars(oracle).items() if isinstance(value, OperatorSpec)}


def test_apply_component_matches_the_ungrouped_reference():
    """The grouped annihilation side gives the term-by-term result on every
    operator, from cold caches, on the vacuum, the zero vector, vectors of
    mixed weight and basis vectors of weight 6.  These hold every partition
    of 6 (1^6 among them), so the sub-multisets meet every multiplicity
    pattern; for them m runs down to -6, where only sigma = lam survives,
    and stops at 1, past which the term-by-term reference grows slow."""
    _clear_oracle_caches()
    rng = random.Random(9)
    vectors = [PExpansion.vacuum(), PExpansion.zero()] + [_random_vector(rng) for _ in range(3)]
    basis = [hl_Q((1,) * 6), schur_q((3, 2, 1)), schur_s((2, 2, 1, 1))]
    assert set(partitions(6)) <= {lam for F in basis for lam in F.coeffs}
    assert any(len({sum(lam) for lam in v.coeffs}) > 1 for v in vectors)
    assert any(len(set(lam)) < len(lam) for v in vectors for lam in v.coeffs)
    assert set(ALL_SPECS) == {
        "op_H", "op_H_prime", "op_H_star", "op_Q", "op_Q_star", "op_S_plus", "op_S_minus",
        "op_htilde", "op_htilde_star", "op_e", "op_e_minus", "op_q",
    }
    cases = [(F, range(-4, 5)) for F in vectors] + [(F, range(-6, 2)) for F in basis]
    for spec in ALL_SPECS.values():
        for i, (F, indices) in enumerate(cases):
            for m in indices:
                got = apply_component(spec, m, F)
                assert got == reference_apply_component(spec, m, F), (spec.name, m, i)


def _assert_canonical(den, nums, where):
    """den > 0 is prime to the coefficients of the numerators nums taken
    together, and no numerator is zero or holds a zero entry."""
    values = [v for num in nums for v in num.terms.values()]
    assert den > 0 and gcd(den, *values) == 1, where
    assert all(nums) and 0 not in values, where


def test_kernels_return_canonical_coefficients():
    """Every vector that apply_component returns, and every value of inner,
    has a positive denominator prime to its numerators' coefficients and no
    zero numerator or entry: on vectors whose coefficients have
    denominators 1..4 and exponents -1..1, and on p_2 + p_11, where H's
    annihilation side sums d_2 and d_11 into one group that cancels.  A sum
    whose denominators cancel comes out over 1, and one vector built two
    ways compares equal."""
    rng = random.Random(30)
    vectors = [_random_vector(rng) for _ in range(4)]
    assert {coefficient(v, lam).den for v in vectors for lam in v.coeffs} == {1, 2, 3, 4}
    cancelling = PExpansion({(2,): ONE, (1, 1): ONE})
    assert reference_apply_component(op_H, -2, cancelling) == PExpansion.zero()
    for spec in ALL_SPECS.values():
        for i, F in enumerate(vectors + [cancelling]):
            for m in range(-3, 4):
                got = apply_component(spec, m, F)
                assert got == reference_apply_component(spec, m, F), (spec.name, m, i)
                _assert_canonical(got.den, list(got.coeffs.values()), (spec.name, m, i))
    for F in vectors:
        for G in vectors:
            value = inner(F, G)
            _assert_canonical(value.den, [value.num] if value else [], (F, G))
    # s_2 + s_11 = (p_2 + p_11)/2 + (-p_2 + p_11)/2 = p_11
    both = schur_s((2,)) + schur_s((1, 1))
    assert (schur_s((2,)).den, both.den) == (2, 1)
    assert both == PExpansion({(1, 1): ONE}) == vector({(1, 1): RatFunc(2, 2)})
    assert schur_s((2,)) == PExpansion({(2,): LaurentPoly.const(3), (1, 1): LaurentPoly.const(3)}, 6)
    mu = (3, 2, 1)
    assert hl_Q_prime(mu).scale(3) - hl_Q_prime(mu).scale(2) == hl_Q_prime(mu)


def test_inner_matches_the_term_by_term_reference():
    """inner sums packed numerators over one denominator; reference_inner
    sums RatFunc products term by term.  They agree, and inner(F, G) equals
    inner(G, F), on random vectors of mixed weight, with small coefficients
    and with coefficients of 2^40 to 2^70 that force a width past 64 bits;
    on results with a coefficient of +-2^63, which needs 65 signed bits; on
    vectors at different valuations with negative exponents; on disjoint
    supports and on a pairing that cancels to 0; and on every pair of basis
    vectors Q'_mu, Q_xi and s_lam of weight <= 6."""
    rng = random.Random(31)
    vectors = [PExpansion.vacuum(), PExpansion.zero()] + [_random_vector(rng) for _ in range(4)]
    vectors += [_wide_vector(rng) for _ in range(4)]
    top = PExpansion({(1,): LaurentPoly({0: 2**62, 1: 1}), (2,): LaurentPoly({0: 2**61, 1: 1})})
    up, down = PExpansion({(1,): LaurentPoly.const(2)}), PExpansion({(2,): LaurentPoly.const(-2)})
    vectors += [
        top,
        up,
        down,
        PExpansion({(1,): LaurentPoly({-3: 1, 2: -2}), (2, 1): LaurentPoly({4: 5})}),
        PExpansion({(1,): LaurentPoly({-1: 3, 5: 1}), (2, 1): LaurentPoly({-6: -1}), (3,): ONE}, 2),
        PExpansion({(1,): ONE, (2,): ONE}),
        PExpansion({(1,): LaurentPoly.const(2), (2,): LaurentPoly.const(-1)}),
        PExpansion({(3,): LaurentPoly({-2: 7})}),
    ]
    wide = 0
    for F in vectors:
        for G in vectors:
            want = reference_inner(F, G)
            assert inner(F, G) == want
            assert inner(G, F) == want
            wide += max(map(abs, want.num.coefficients()), default=0) >= 2**63
    assert wide
    # each bound is z_lam * min(2, 1) * (2^62 / z_lam) * 2 = 2^63, so the
    # pairing is read at 128 bits, and the term beside it keeps its value
    assert inner(top, up) == RatFunc(LaurentPoly({0: 2**63, 1: 2}))
    assert inner(top, down) == RatFunc(LaurentPoly({0: -(2**63), 1: -4}))
    # disjoint supports, and z_(1) * 1 * 2 + z_(2) * 1 * (-1) = 0
    assert inner(vectors[-1], vectors[-2]) == 0
    assert inner(vectors[-3], vectors[-2]) == 0
    basis = [f(lam) for n in range(7) for lam in partitions(n) for f in (hl_Q_prime, schur_s)]
    basis += [schur_q(xi) for n in range(7) for xi in strict_partitions(n)]
    assert len(basis) == 74
    for F in basis:
        for G in basis:
            assert inner(F, G) == reference_inner(F, G)


def _wide_vector(rng):
    """A p-expansion over five partitions of mixed weights <= 5, whose
    numerators have three terms at exponents from -4 to 6, with
    coefficients of 2^40 to 2^70 in absolute value."""
    pool = [lam for d in range(6) for lam in partitions(d)]
    coeffs = {}
    for lam in rng.sample(pool, 5):
        coeffs[lam] = LaurentPoly({e: rng.choice((-1, 1)) * rng.randrange(2**40, 2**70) for e in rng.sample(range(-4, 7), 3)})
    return PExpansion(coeffs, rng.randint(1, 4))


def test_a_weight_13_cell_read_past_64_bits_matches_the_engine():
    """K^-_{(13),(2^4,1^5)} is one of the 70 cells of weight 13 whose
    pairing bound passes 2^63 (no cell of lower weight has one), so its
    pairing is read at 128 bits; it is still the engine's."""
    xi, mu = (13,), (2, 2, 2, 2, 1, 1, 1, 1, 1)
    assert oracle_spin_kostka(xi, mu) == spin_kostka(xi, mu)
    assert 128 in oracle._hl_Q_prime_odd(mu)._views


def test_same_named_specs_keep_their_own_coefficients():
    """Two specs with one name but different sequences each give their own
    vector, whichever is applied first to a cold coefficient cache."""
    vacuum = PExpansion.vacuum()
    seven = OperatorSpec("H", lambda n: RatFunc(7), op_H.annihilation)
    assert reference_apply_component(seven, 2, vacuum) != reference_apply_component(op_H, 2, vacuum)
    for order in ((op_H, seven), (seven, op_H)):
        _clear_oracle_caches()
        for spec in order:
            want = reference_apply_component(spec, 2, vacuum)
            assert apply_component(spec, 2, vacuum) == want, spec is op_H


def test_specs_with_one_sequence_share_its_tables():
    """H' and S+ share the creation sequence 1/n, so K_{lam,mu}(t) on every
    cell of weight 5, which applies both, fills one creation table per
    weight r = 1..5; H, Q and S+ share the annihilation sequence -1, and
    htilde and e+ the zero one.

    The cells apply S+ (annihilation -1) and H' (annihilation
    -(1 - t^n)) to vectors whose keys together are the 12 partitions of
    weight <= 4.  So each annihilation sequence fills 12 tables, and its
    coefficient cache one entry per sub-multiset of those keys, which
    are again the 12 partitions of weight <= 4; the creation sequence
    adds the 18 partitions of r = 1..5.  A coefficient is built from
    those of its head (rho_0,) and its tail rho[1:], and when rho has two
    parts or more both are partitions of weight 1..4, already cached:
    24 + 18 = 42 entries, as when each was built part by part.  A
    creation row is cached per (r, base) whose output weight |base| + r
    is at most 5, base any partition: 12 + 7 + 4 + 2 + 1 = 26 for
    r = 1..5.

    K^- on every cell of weight 5, from cold caches, builds the cut
    vector of each of the 7 mu |- 5 on the full vectors of their proper
    tails, (), 1, 2, 11, 21, 111 and 1111, and never the full vector of
    a mu of weight 5.  Its cut rows are the 7 pairs (r, base) with base
    of odd parts alone and |base| = 5 - r: base (), 1, 11, 3, 111, 31 and
    1111."""
    assert op_S_plus.creation is op_H_prime.creation
    assert op_Q.annihilation is op_S_plus.annihilation is op_H.annihilation
    assert op_e.annihilation is op_htilde.annihilation
    _clear_oracle_caches()
    for lam in partitions(5):
        for mu in partitions(5):
            oracle_kostka_foulkes(lam, mu)
    assert oracle._creation_terms.cache_info().currsize == 5
    assert oracle._annihilation_terms.cache_info().currsize == 24
    assert oracle._exp_coeff.cache_info().currsize == 42
    assert oracle._creation_row.cache_info().currsize == 26
    _clear_oracle_caches()
    for mu in partitions(5):
        for xi in strict_partitions(5):
            oracle_spin_kostka(xi, mu)
    assert oracle._hl_Q_prime_odd.cache_info().currsize == 7
    for tail in [(), (1,), (2,), (1, 1), (2, 1), (1, 1, 1), (1, 1, 1, 1)]:
        hl_Q_prime(tail)
    assert hl_Q_prime.cache_info().currsize == 7
    rows = oracle._creation_row.cache_info().currsize
    for r, base in [(5, ()), (4, (1,)), (3, (1, 1)), (2, (3,)), (2, (1, 1, 1)), (1, (3, 1)), (1, (1, 1, 1, 1))]:
        oracle._creation_row(op_H_prime.creation, r, base, True)
    assert oracle._creation_row.cache_info().currsize == rows


def _odd_part(F):
    """pi F, pi the ring map that sets every p_2k to 0: F without the keys
    that have an even part."""
    return PExpansion({lam: c for lam, c in F.coeffs.items() if all(part % 2 for part in lam)}, F.den)


def test_the_odd_cut_is_pi_of_the_full_vector():
    """The cut vector of mu is pi Q'_mu for every mu of weight <= 8, mu = ()
    included, so K^- through it is the uncut <Q'_mu, Q_xi> on every cell of
    weight <= 8; and apply_component with odd is pi of the full component
    for every operator, on the vacuum and on vectors of mixed weight."""
    assert _odd_part(hl_Q_prime((2,))) != hl_Q_prime((2,))
    for n in range(9):
        for mu in partitions(n):
            assert oracle._hl_Q_prime_odd(mu) == _odd_part(hl_Q_prime(mu)), mu
            for xi in strict_partitions(n):
                want = inner(hl_Q_prime(mu), schur_q(xi)).to_laurent()
                assert oracle_spin_kostka(xi, mu) == want, (xi, mu)
    rng = random.Random(32)
    vectors = [PExpansion.vacuum()] + [_random_vector(rng) for _ in range(3)]
    for spec in ALL_SPECS.values():
        for i, F in enumerate(vectors):
            for m in range(-4, 5):
                want = _odd_part(apply_component(spec, m, F))
                assert apply_component(spec, m, F, odd=True) == want, (spec.name, m, i)


def _reference_combination(F, G, sign):
    """F + sign * G, summed coefficient by coefficient over ``RatFunc``."""
    keys = F.coeffs.keys() | G.coeffs.keys()
    return vector({lam: coefficient(F, lam) + coefficient(G, lam) * sign for lam in keys})


def test_vector_arithmetic_matches_the_canonical_constructor():
    """+, - and scale give the vector that the constructor makes from the
    coefficients summed or multiplied one by one over ``RatFunc``, and
    each result is canonical: on seeded random vectors with denominators
    1..4, on sums that cancel to zero, on sums and products whose den
    reduces, and for scale by 0, +-1, +-t^d and general Laurent
    polynomials."""
    rng = random.Random(33)
    vectors = [PExpansion.zero(), PExpansion.vacuum()] + [_random_vector(rng) for _ in range(6)]
    scalars = [0, 1, -1, 2, -6, LaurentPoly({3: 1}), LaurentPoly({-2: -1}), LaurentPoly({0: 1, 1: -1})]
    scalars += [LaurentPoly({-1: 2, 2: -4}), LaurentPoly({0: 3, 1: 6})]
    for i, F in enumerate(vectors):
        for j, G in enumerate(vectors):
            for sign, got in ((1, F + G), (-1, F - G)):
                assert got == _reference_combination(F, G, sign), (i, j, sign)
                _assert_canonical(got.den, list(got.coeffs.values()), (i, j, sign))
        for c in scalars:
            got = F.scale(c)
            assert got == vector({lam: coefficient(F, lam) * RatFunc(c) for lam in F.coeffs}), (i, c)
            _assert_canonical(got.den, list(got.coeffs.values()), (i, c))
        assert F - F == F + F.scale(-1) == F.scale(0) == PExpansion.zero()
    half = PExpansion({(1,): ONE, (2, 1): LaurentPoly({0: 1, 1: 1})}, 2)
    other = PExpansion({(1,): ONE, (2, 1): LaurentPoly({0: 1, 1: -1})}, 2)
    assert (half + other).den == 1 and half + other == PExpansion({(1,): ONE, (2, 1): ONE})
    assert (half - other).den == 1 and half - other == PExpansion({(2, 1): LaurentPoly({1: 1})})
    assert half.scale(2).den == half.scale(LaurentPoly({0: 2, 3: 4})).den == 1
    assert half.scale(LaurentPoly({5: -1})).den == half.scale(-1).den == 2


def test_verify_relations_memo_lives_in_one_call(monkeypatch):
    """Two calls give the same report and do the same operator work: the
    second call finds nothing the first one memoized."""
    calls = []
    original = oracle.apply_component

    def counting(spec, m, F):
        calls.append(spec.name)
        return original(spec, m, F)

    def live_vectors():
        _clear_oracle_caches()
        gc.collect()
        return sum(isinstance(obj, PExpansion) for obj in gc.get_objects())

    monkeypatch.setattr(oracle, "apply_component", counting)
    before = live_vectors()
    summaries, counts = [], []
    for _ in range(2):
        calls.clear()
        summaries.append(verify_relations(max_degree=1, seed=3, vector_degree=3).summary())
        counts.append(len(calls))
        # nothing holds on to the vectors the call made
        assert live_vectors() == before
    assert summaries[0] == summaries[1]
    assert counts[0] == counts[1] > 0


def _perturbed_report(monkeypatch, name, spec):
    """verify_relations with spec's creation coefficient at n = 2 doubled
    under the module name ``name``; htilde's Hall adjoint is rebuilt from a
    perturbed htilde, as the module builds it."""
    def creation(n):
        return spec.creation(n) * (2 if n == 2 else 1)

    perturbed = OperatorSpec(spec.name + "-perturbed", creation, spec.annihilation, spec.sign)
    monkeypatch.setattr(oracle, name, perturbed)
    if name == "op_htilde":
        monkeypatch.setattr(oracle, "op_htilde_star", adjoint_spec(perturbed))
    _clear_oracle_caches()
    try:
        report = verify_relations(max_degree=2, seed=0, vector_degree=3)
    finally:
        _clear_oracle_caches()
    assert not report.ok
    assert all(r.seconds >= 0 for r in report.results)
    return {r.name: r for r in report.results}


def test_verify_relations_reports_a_broken_relation(monkeypatch):
    """A wrong creation coefficient for H fails the relations built on it,
    memo or not; one for H' or for htilde fails rel2 and hH, which are
    checked with H' and htilde's Hall adjoint.  The Clifford relation, on Q
    alone, passes each time."""
    status = _perturbed_report(monkeypatch, "op_H", op_H)
    com1 = status["com1 (H quadratic relation)"]
    assert not com1.passed
    assert re.fullmatch(r"m=-?\d+ n=-?\d+", com1.detail), com1.detail
    assert status["clifford (Q anticommutator)"].passed
    for name, spec in (("op_H_prime", op_H_prime), ("op_htilde", op_htilde)):
        monkeypatch.undo()
        status = _perturbed_report(monkeypatch, name, spec)
        assert not status["rel2 (htilde* past H)"].passed, name
        assert not status["hH (htilde* through H-word, on vacuum)"].passed, name
        assert status["clifford (Q anticommutator)"].passed, name


def test_verify_relations_reports_a_raising_relation(monkeypatch):
    """A relation that raises becomes a failed entry reading ``error: ...``,
    and the call still returns its report: with S-'s coefficients raising,
    iterative2, the one relation that applies S-, fails, and the rest pass."""
    def broken(n):
        raise ArithmeticError("broken coefficient at n=%d" % n)

    monkeypatch.setattr(oracle, "op_S_minus", OperatorSpec("S--broken", broken, broken, op_S_minus.sign))
    try:
        report = verify_relations(max_degree=1, seed=0, vector_degree=2)
    finally:
        _clear_oracle_caches()
    name = "iterative2 (S- through Q-word, on vacuum, k >= 1)"
    status = {r.name: r for r in report.results}
    assert not status[name].passed
    assert status[name].detail.startswith("error: ArithmeticError('broken coefficient at n="), status[name].detail
    assert status["com1 (H quadratic relation)"].passed
    assert [r.name for r in report.results if not r.passed] == [name]
    assert not report.ok


def test_verify_relations_quick():
    report = verify_relations(max_degree=1, seed=7, vector_degree=2)
    assert report.ok, report.summary()
    names = [r.name for r in report.results]
    assert any("clifford" in n for n in names)
    assert any("hH" in n for n in names)


RELATION_NAMES = [
    "com1 (H quadratic relation)",
    "com2 (H* quadratic relation)",
    "com3 (H/H* cross relation with delta term)",
    "com4 (vacuum annihilation)",
    "clifford (Q anticommutator)",
    "adjacent swap (H / H*)",
    "rel1 (H* past Q)",
    "rel2 (htilde* past H)",
    "rel3 (Q past htilde)",
    "iterative (H* through Q-word, on vacuum, k >= 1)",
    "hH (htilde* through H-word, on vacuum)",
    "iterative2 (S- through Q-word, on vacuum, k >= 1)",
    "gS (e- through S-word, on vacuum)",
    "q norm <q_n,q_n> = 1-t",
    "Q orthogonality at t=-1",
    "Schur orthonormality",
    "htilde(-t) expansion in q_lam",
]


def test_verify_relations_report_contract():
    """At the call of perfbench's oracle-verify workload, the report holds
    the 17 relations by name, in their order, each passing with no detail;
    at degree 0 they all pass too."""
    report = verify_relations(max_degree=1, seed=0)
    assert [r.name for r in report.results] == RELATION_NAMES
    assert all(r.passed and r.detail == "" for r in report.results), report.summary()
    assert verify_relations(max_degree=0).ok


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"max_degree": -1}, "max_degree"),
        ({"max_degree": 1.0}, "max_degree"),
        ({"max_degree": True}, "max_degree"),
        ({"max_degree": -1, "vector_degree": 2}, "max_degree"),
        ({"max_degree": 1, "vector_degree": -2}, "vector_degree"),
        ({"max_degree": 1, "vector_degree": False}, "vector_degree"),
        ({"max_degree": 1, "vector_degree": "2"}, "vector_degree"),
    ],
)
def test_verify_relations_rejects_a_bad_degree(kwargs, name):
    """A negative degree would leave the relations almost nothing to check,
    and a negative vector degree would test only the vacuum."""
    with pytest.raises(ValueError, match="^%s must be an int >= 0, got " % name):
        verify_relations(**kwargs)


def test_oracle_imports_only_partitions_and_polynomial():
    """The oracle checks the engine, so it shares no algorithm with it: of
    the package it imports only partitions and polynomial."""
    found = package_imports(oracle.__file__)
    assert "polynomial" in found
    assert not found & {"engine", "straighten", "schur", "invariants"}, found
    assert found <= {"partitions", "polynomial"}, found
