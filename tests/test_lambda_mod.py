import pickle
import random
import time
import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutower import groupring, lambda_mod, syzygy
from mutower.chainring import ChainRing, RingBase, diagonalize
from mutower.errors import InvalidInput, NonAbelianUnsupported, SaturationWarning, TooLarge
from mutower.groupring import (
    GroupLevel,
    GroupRingPoly,
    GroupSpec,
    _norm_terms,
    group_level,
    poly_add,
    poly_gen,
    poly_int,
    poly_mul,
    poly_pi_pow,
    poly_sub,
    quotient_order,
)
from mutower.lambda_mod import (
    Presentation,
    _koszul_module,
    _level_matrix,
    check_expansion_budget,
    coinvariants_ordq,
    koszul_homology_ordq,
    presentation,
    quotient_pi,
)
from mutower.invariants import DEFAULT_N_MAX, default_m_range, mu_profile
from mutower.synth import Garnish, GroundTruth, alpha_multisets, make_module

BASE2 = RingBase(2, 1, 1)
BASE3 = RingBase(3, 1, 1)
# The acceptance-corpus presets.
CORPUS_SPECS = [
    GroupSpec.abelian(2, 1),
    GroupSpec.abelian(3, 1),
    GroupSpec.abelian(2, 2),
    GroupSpec.abelian(3, 2),
    GroupSpec.metacyclic(3),
]


def free_module(spec, base, rank):
    return presentation(spec, base, rank, [])


def pi_quotient_module(spec, base, alpha):
    return presentation(spec, base, 1, [[poly_pi_pow(base, alpha, spec.r)]])


def garnish_module(spec, base, j=1):
    rows = [
        [poly_pi_pow(base, 1, spec.r)],
        [poly_sub(poly_gen(base, j, spec.r), poly_int(base, 1, spec.r))],
    ]
    return presentation(spec, base, 1, rows)


def direct_sum(P, Q):
    zero = GroupRingPoly(())
    rows = [tuple(row) + (zero,) * Q.gens for row in P.matrix]
    rows += [(zero,) * P.gens + tuple(row) for row in Q.matrix]
    return Presentation(P.spec, P.base, P.gens + Q.gens, len(rows), tuple(rows))


def test_quotient_pi_free_rank_one():
    spec = GroupSpec.abelian(3, 1)
    P = quotient_pi(free_module(spec, BASE3, 1), 2)
    assert P.rels == 1 and P.gens == 1
    assert P.pi_quotient == 2
    # coker is Lambda/pi^2: orders 2 * 3^m
    for m in (0, 1, 2):
        assert coinvariants_ordq(P, m, 2) == 2 * 3 ** m


def test_quotient_pi_redundant_power():
    # (Lambda/pi^3)/pi^5 is still Lambda/pi^3
    spec = GroupSpec.abelian(3, 1)
    P = quotient_pi(pi_quotient_module(spec, BASE3, 3), 5)
    for m in (0, 1):
        assert coinvariants_ordq(P, m, 5) == 3 * 3 ** m


def test_quotient_pi_cuts_down():
    # (Lambda/pi^3)/pi^2 = Lambda/pi^2: alpha = 2 at levels 0, 1
    spec = GroupSpec.abelian(3, 1)
    P = quotient_pi(pi_quotient_module(spec, BASE3, 3), 2)
    for m in (0, 1):
        assert coinvariants_ordq(P, m, 2) == 2 * 3 ** m


@pytest.mark.parametrize(
    "spec, base",
    [(spec, RingBase(spec.p, 1, 1)) for spec in CORPUS_SPECS]
    + [(GroupSpec.abelian(3, 1), RingBase(3, 2, 1)), (GroupSpec.abelian(2, 2), RingBase(2, 1, 2))],
    ids=str,
)
def test_pi_n_max_relations_of_mu_profile_vanish(spec, base):
    # mu_profile diagonalizes quotient_pi(P, n_max) at N = n_max, where each
    # appended relation pi^N e_j is zero in O/pi^N: _level_matrix drops all
    # of them at every level, and the compact array is P's own.
    N = DEFAULT_N_MAX
    garnish = (Garnish(2),) if spec.r == 2 else ()
    for gt in (GroundTruth(1, (1, 3), seed=3), GroundTruth(0, (2, 7), garnish, seed=5)):
        P = make_module(gt, spec, base)
        Q = quotient_pi(P, N)
        assert Q.rels == P.rels + P.gens
        for m in default_m_range(spec):
            _, G, _ = _level_matrix(P, m, N)
            _, H, _ = _level_matrix(Q, m, N)
            assert H.coords.dtype == G.coords.dtype and np.array_equal(H.coords, G.coords)


@pytest.mark.parametrize(
    "spec", [GroupSpec.abelian(3, 1), GroupSpec.abelian(2, 2), GroupSpec.metacyclic(3)], ids=str
)
def test_coinvariants_elementary_closed_form(spec):
    base = RingBase(spec.p, 1, 1)
    for alpha in (1, 2):
        P = quotient_pi(free_module(spec, base, 1), alpha)
        for m in (0, 1, 2):
            if spec.p ** (spec.r * m) > 100:
                continue
            assert coinvariants_ordq(P, m, alpha) == alpha * spec.p ** (spec.r * m)


def test_coinvariants_zero_module():
    spec = GroupSpec.abelian(2, 1)
    P = presentation(spec, BASE2, 1, [[poly_int(BASE2, 1, 1)]])
    for m in (0, 1, 2):
        assert coinvariants_ordq(quotient_pi(P, 2), m, 2) == 0


def test_coinvariants_pseudonull_quotient():
    # Lambda/(pi, g1 - 1) over abelian r=2, p=2: order p^m at every level
    spec = GroupSpec.abelian(2, 2)
    P = garnish_module(spec, BASE2)
    Pq = quotient_pi(P, 1)
    assert [coinvariants_ordq(Pq, m, 1) for m in (0, 1, 2)] == [1, 2, 4]


def test_saturation_warning_for_uncertified_presentation():
    spec = GroupSpec.abelian(3, 1)
    P = pi_quotient_module(spec, BASE3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SaturationWarning):
            coinvariants_ordq(P, 0, 2)  # saturates, no certificate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # explicit quotient marker with n <= N certifies exactness
        assert coinvariants_ordq(quotient_pi(P, 2), 0, 2) == 2
        # and a non-saturating computation does not warn either
        assert coinvariants_ordq(P, 0, 3) == 2


def test_coinvariants_direct_sum_additive():
    spec = GroupSpec.abelian(3, 1)
    rng = random.Random(2)
    for _ in range(5):
        a1, a2 = rng.randrange(1, 4), rng.randrange(1, 4)
        P = pi_quotient_module(spec, BASE3, a1)
        Q = pi_quotient_module(spec, BASE3, a2)
        S = direct_sum(P, Q)
        n = max(a1, a2)
        for m in (0, 1):
            total = coinvariants_ordq(quotient_pi(S, n), m, n)
            parts = coinvariants_ordq(quotient_pi(P, n), m, n) + coinvariants_ordq(
                quotient_pi(Q, n), m, n
            )
            assert total == parts


def test_residual_bound_along_levels():
    # |ord - mu_n p^(rm)| <= C p^((r-1)m) with C stable over the window
    spec = GroupSpec.abelian(2, 2)
    M = direct_sum(pi_quotient_module(spec, BASE2, 2), garnish_module(spec, BASE2))
    n = 2
    Pq = quotient_pi(M, n)
    mu_n = 2  # min(n, 2) from the elementary part; the garnish adds no mu
    for m in (0, 1, 2, 3):
        ord_q = coinvariants_ordq(Pq, m, n)
        residual = abs(ord_q - mu_n * 2 ** (2 * m))
        assert residual <= 2 ** m  # C = 1


@pytest.mark.parametrize("spec", [GroupSpec.abelian(3, 1), GroupSpec.abelian(2, 2)], ids=str)
def test_koszul_vanishing_for_pi_power_quotients(spec):
    base = RingBase(spec.p, 1, 1)
    for alpha in (1, 2, 3):
        P = quotient_pi(free_module(spec, base, 1), alpha)
        for m in (0, 1, 2):
            if spec.p ** (spec.r * m) > 81:
                continue
            assert (
                koszul_homology_ordq(P, m, 0, alpha)
                == alpha * spec.p ** (spec.r * m)
            )
            for i in range(1, spec.r + 1):
                assert koszul_homology_ordq(P, m, i, alpha) == 0


def test_koszul_euler_characteristic_pseudonull():
    # Lambda/(pi, g1-1) over r=2, p=2 at m=0: orders (1, 1, 0), sum 0
    spec = GroupSpec.abelian(2, 2)
    P = garnish_module(spec, BASE2)
    hs = [koszul_homology_ordq(P, 0, i, 1) for i in range(3)]
    assert hs == [1, 1, 0]
    assert hs[0] - hs[1] + hs[2] == 0


def test_koszul_residue_field_exterior_algebra():
    spec = GroupSpec.abelian(2, 2)
    rows = [
        [poly_pi_pow(BASE2, 1, 2)],
        [poly_sub(poly_gen(BASE2, 1, 2), poly_int(BASE2, 1, 2))],
        [poly_sub(poly_gen(BASE2, 2, 2), poly_int(BASE2, 1, 2))],
    ]
    P = presentation(spec, BASE2, 1, rows)
    assert [koszul_homology_ordq(P, 0, i, 1) for i in range(3)] == [1, 2, 1]


def test_koszul_degree_zero_agrees_with_coinvariants():
    spec = GroupSpec.abelian(3, 2)
    rng = random.Random(8)
    for _ in range(3):
        alpha = rng.randrange(1, 3)
        P = quotient_pi(free_module(spec, BASE3, 1), alpha)
        for m in (0, 1):
            assert koszul_homology_ordq(P, m, 0, alpha) == coinvariants_ordq(P, m, alpha)


@st.composite
def synth_modules(draw):
    p, r = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    alphas = draw(st.sampled_from(alpha_multisets(range(1, 4), 2)[1:]))
    garnish = (Garnish(draw(st.integers(1, r))),) if r == 2 and draw(st.booleans()) else ()
    gt = GroundTruth(0, alphas, garnish, seed=draw(st.integers(0, 10 ** 6)))
    spec = GroupSpec.abelian(p, r)
    return make_module(gt, spec, RingBase(p, 1, 1)), max(alphas), draw(st.integers(0, 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(synth_modules())
def test_koszul_degree_zero_agrees_with_coinvariants_on_synth_modules(data):
    # Groebner staircase against the expanded diagonalization: two engines
    # that share no code below the presentation.
    P, N, m = data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        expected = coinvariants_ordq(P, m, N)
    assert koszul_homology_ordq(P, m, 0, N) == expected


@pytest.mark.parametrize("base", [RingBase(2, 2, 1), RingBase(3, 1, 2), RingBase(3, 2, 1)], ids=str)
@pytest.mark.parametrize("r", [1, 2])
def test_koszul_euler_characteristic_over_extended_rings(base, r):
    spec = GroupSpec.abelian(base.p, r)
    for alphas in [(1,), (2,), (1, 2)]:
        for seed in (0, 1):
            gt = GroundTruth(0, alphas, seed=seed)
            P = make_module(gt, spec, base)
            N = max(alphas)
            euler = sum((-1) ** i * koszul_homology_ordq(P, 0, i, N) for i in range(r + 1))
            assert euler == gt.expected_rep().mu_total, (alphas, seed)


@pytest.mark.parametrize("base, N", [(BASE2, 4), (BASE3, 3), (RingBase(2, 2, 1), 4), (RingBase(3, 1, 2), 2)], ids=str)
def test_tower_operators_are_two_term_binomials(base, N):
    # t_j = g_j^(p^m) - 1 in R[g_1, g_2], with no expansion in T
    ring = ChainRing.from_base(base, N)
    P = quotient_pi(free_module(GroupSpec.abelian(base.p, 2), base, 1), N)
    for m in range(3):
        pm = base.p ** m
        towers = [{(pm, 0): ring.one, (0, 0): ring.neg(ring.one)}, {(0, pm): ring.one, (0, 0): ring.neg(ring.one)}]
        assert list(_koszul_module(P, N, m)[1]) == towers


def test_euler_sum_builds_the_koszul_module_once():
    # r + 1 degrees of one module share one conversion of its relations
    spec = GroupSpec.abelian(2, 2)
    gt = GroundTruth(0, (1, 2), (Garnish(2),), seed=5)
    P = make_module(gt, spec, BASE2)
    _koszul_module.cache_clear()
    N = max(gt.alphas)
    euler = sum((-1) ** i * koszul_homology_ordq(P, 0, i, N) for i in range(spec.r + 1))
    assert euler == gt.expected_rep().mu_total
    assert _koszul_module.cache_info().misses == 1


def test_relation_terms_stay_in_the_group_variables():
    # c g_1^2 g_2 is one term of the relation element, its scalar from the
    # coefficient vector
    base = RingBase(3, 1, 2)
    ring = ChainRing.from_base(base, 2)
    entry = GroupRingPoly((((2, 1), (2, 1)),))
    P = presentation(GroupSpec.abelian(3, 2), base, 2, [[GroupRingPoly(()), entry]])
    assert _koszul_module(P, 2, 0)[0] == ({(1, (2, 1)): ring.from_coeffs((2, 1))},)


def test_koszul_at_high_levels_is_fast():
    # H_0 of Lambda/3 at level m is F_3[g]/(g^(3^m) - 1), of order 3^(3^m)
    P = quotient_pi(free_module(GroupSpec.abelian(3, 1), BASE3, 1), 1)
    start = time.perf_counter()
    assert koszul_homology_ordq(P, 8, 0, 1) == 3 ** 8
    assert time.perf_counter() - start < 1.0
    assert koszul_homology_ordq(P, 12, 0, 1) == 3 ** 12


def test_long_reduction_chain_of_an_admitted_relation_term():
    # Lambda/(g^e + 2) = 0 over Z_2: reducing g^e + 2 by g - 1 walks e
    # steps down to the unit 3.  e = 2^16 is within the relation-term budget.
    spec = GroupSpec.abelian(2, 1)
    e = 2 ** 16
    P = presentation(spec, BASE2, 1, [[poly_add(poly_gen(BASE2, 1, 1, power=e), poly_int(BASE2, 2, 1))]])
    assert [koszul_homology_ordq(P, 0, i, 3) for i in range(2)] == [0, 0]


def test_koszul_relation_term_budget_refuses_before_groebner(monkeypatch):
    # g^(10^9) - 1 spans 10^9 + 1 monomials below its exponent
    def refuse(*args, **kwargs):
        raise AssertionError("Groebner work started above the budget")

    monkeypatch.setattr(lambda_mod, "preimage_gens", refuse)
    spec = GroupSpec.abelian(3, 1)
    g = poly_sub(poly_gen(BASE3, 1, 1, power=10 ** 9), poly_int(BASE3, 1, 1))
    P = quotient_pi(presentation(spec, BASE3, 1, [[g]]), 1)
    tracemalloc.start()
    try:
        for i in range(2):
            with pytest.raises(TooLarge, match="lower the generator exponents"):
                koszul_homology_ordq(P, 0, i, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_koszul_budget_refuses_before_groebner(monkeypatch):
    # abelian(3, 2) at m = 7: 3^14 chain coordinates per generator and
    # degree.  Both patches fail at once, so a missing check cannot hang.
    def refuse(*args, **kwargs):
        raise AssertionError("Koszul work started above the budget")

    monkeypatch.setattr(syzygy, "strong_groebner", refuse)
    monkeypatch.setattr(lambda_mod, "preimage_gens", refuse)
    P = quotient_pi(free_module(GroupSpec.abelian(3, 2), BASE3, 1), 1)
    assert 3 ** 14 > lambda_mod.KOSZUL_BUDGET_CELLS
    for i in range(3):
        with pytest.raises(TooLarge, match="lower m"):
            koszul_homology_ordq(P, 7, i, 1)


def test_koszul_rejects_negative_level():
    P = quotient_pi(free_module(GroupSpec.abelian(3, 1), BASE3, 1), 1)
    with pytest.raises(InvalidInput):
        koszul_homology_ordq(P, -1, 1, 1)


def test_koszul_rejects_metacyclic_higher_degrees():
    spec = GroupSpec.metacyclic(3)
    P = quotient_pi(free_module(spec, BASE3, 1), 1)
    assert koszul_homology_ordq(P, 0, 0, 1) == 1
    with pytest.raises(NonAbelianUnsupported):
        koszul_homology_ordq(P, 0, 1, 1)


def test_koszul_degree_out_of_range():
    spec = GroupSpec.abelian(3, 1)
    P = quotient_pi(free_module(spec, BASE3, 1), 1)
    with pytest.raises(InvalidInput):
        koszul_homology_ordq(P, 0, 2, 1)


def test_presentation_validation():
    spec = GroupSpec.abelian(3, 1)
    with pytest.raises(InvalidInput):
        presentation(spec, RingBase(2, 1, 1), 1, [])  # prime mismatch
    with pytest.raises(InvalidInput):
        presentation(spec, BASE3, 2, [[poly_int(BASE3, 1, 1)]])  # ragged


def test_presentation_keeps_its_hash(monkeypatch):
    # equal presentations hash and compare equal, and the second hash of one
    # does not walk its matrix again; a pickled copy hashes afresh
    spec = GroupSpec.abelian(2, 2)
    gt = GroundTruth(0, (1, 2), (Garnish(2),), seed=5)
    P, Q = make_module(gt, spec, BASE2), make_module(gt, spec, BASE2)
    walks = []
    entry_hash = GroupRingPoly.__hash__

    def counted(entry):
        walks.append(entry)
        return entry_hash(entry)

    monkeypatch.setattr(GroupRingPoly, "__hash__", counted)
    assert P is not Q and P == Q
    assert hash(P) == hash(Q)
    first = len(walks)
    assert first == 2 * sum(len(row) for row in P.matrix) > 0
    assert hash(P) == hash(Q) and len(walks) == first
    copy = pickle.loads(pickle.dumps(P))
    assert copy == P and hash(copy) == hash(P) and len(walks) > first


def test_presentation_rejects_negative_exponents():
    # Lambda/(3, g^-1 - 1) with the entry built directly, past _norm_terms:
    # the level expansion would read g^-1 as 1.
    spec = GroupSpec.abelian(3, 1)
    inverse_minus_one = GroupRingPoly((((-1,), (0,)), ((1,), (-1,))))
    with pytest.raises(InvalidInput, match="negative generator exponents are not allowed"):
        presentation(spec, BASE3, 1, [[poly_int(BASE3, 3, 1)], [inverse_minus_one]])
    with pytest.raises(InvalidInput, match="negative generator exponents are not allowed"):
        _norm_terms(inverse_minus_one.terms)


def test_expansion_budget_refuses_before_allocating(monkeypatch):
    # abelian(3, 2) at level 5: L = 3^10, so the L x L division table alone
    # would take 28 GB.  The guard stops any table beyond level 4 from being
    # built even if the budget check were missing.
    real_table = GroupLevel.division_table

    def guarded_table(level):
        assert level.order <= 3 ** 8, "oversized division table built"
        return real_table(level)

    monkeypatch.setattr(GroupLevel, "division_table", guarded_table)
    P = make_module(GroundTruth(0, (1,), seed=1), GroupSpec.abelian(3, 2))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="lower --levels"):
            mu_profile(P, 6, [0, 5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("spec, m", [(GroupSpec.abelian(2, 2), 5), (GroupSpec.metacyclic(3), 3)], ids=str)
def test_level_matrix_peak_is_the_budgeted_division_table(spec, m):
    # Every relation pi^N e_j of a free module's pi^N-quotient vanishes over
    # O/pi^N, so the level matrix keeps no row, and its peak with the
    # division table it reads from its level is that table, which
    # check_expansion_budget counts as 8 L^2 bytes.
    N = 2
    P = quotient_pi(free_module(spec, RingBase(spec.p, 1, 1), 2), N)
    group_level.cache_clear()
    tracemalloc.start()
    try:
        _, G, _ = _level_matrix(P, m, N)
        div = G.div
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    L = quotient_order(spec, m)
    assert G.coords.shape[0] == 0 and div.shape == (L, L)
    assert peak < 8 * L * L + 2 ** 20


def level_peak(P, m, N):
    """(level matrix, diagonal form, traced peak bytes) of level m over
    O/pi^N, its tables built from scratch."""
    group_level.cache_clear()
    tracemalloc.start()
    try:
        ring, G, ncols = _level_matrix(P, m, N)
        form = diagonalize(ring, G, ncols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return G, form, peak


@pytest.mark.parametrize(
    "spec, m",
    [(GroupSpec.abelian(2, 1), 10), (GroupSpec.abelian(3, 2), 3), (GroupSpec.metacyclic(3), 3), (GroupSpec.abelian(5, 2), 2)],
    ids=str,
)
def test_subgroup_chain_peak_is_its_budget_term(spec, m):
    # A descent builds one stage per index-p step down to order p, and the
    # stages of every path have the same sizes: past the division table,
    # building them peaks within groupring._chain_bytes, which
    # check_expansion_budget counts, and above their tables alone,
    # 8 L^2/(p^2 - 1) bytes at most.
    L, p, r = quotient_order(spec, m), spec.p, spec.r
    for order in permutations(range(r)):
        group_level.cache_clear()
        level = group_level(spec, m)
        level.division_table()
        d = (0,) * r
        tracemalloc.start()
        try:
            for k in [k for k in order for _ in range(m)][:-1]:
                _, sub_div = level.stage(d, k)
                d = d[:k] + (d[k] + 1,) + d[k + 1 :]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(level._stages) == r * m - 1 and len(sub_div) == p
        assert 8 * L * L // (p * p - 1) < peak <= groupring._chain_bytes(p, L) + 2 ** 16
    group_level.cache_clear()


@pytest.mark.parametrize(
    "spec, m, base, size",
    [
        (GroupSpec.abelian(2, 1), 8, RingBase(2, 1, 1), 1),
        (GroupSpec.abelian(3, 1), 5, RingBase(3, 1, 1), 1),
        (GroupSpec.abelian(2, 1), 6, RingBase(2, 1, 1), 2),
        (GroupSpec.abelian(2, 1), 7, RingBase(2, 2, 1), 1),
        (GroupSpec.abelian(2, 2), 3, RingBase(2, 2, 1), 2),
        (GroupSpec.abelian(3, 1), 4, RingBase(3, 2, 2), 1),
        (GroupSpec.metacyclic(3), 2, RingBase(3, 1, 2), 2),
    ],
    ids=str,
)
def test_level_expanded_whole_peaks_within_its_budget(spec, m, base, size, monkeypatch):
    # Over O/pi every entry of (z - 1) Lambda, z of order p at level m, stays
    # a non-unit down the whole subgroup chain, so the level is expanded
    # whole, by the last stage down to the trivial group, and the pass over
    # the trivial group works on that expansion.
    # With the bound just below the measured peak the level is refused, and
    # with twice the peak it is accepted.
    p, r = spec.p, spec.r
    z = poly_sub(poly_gen(base, r, r, power=p ** (m - 1)), poly_int(base, 1, r))
    zg = poly_mul(spec, base, z, poly_gen(base, 1, r))
    P = presentation(spec, base, size, [[z if i == j else zg for j in range(size)] for i in range(size)])
    G, form, peak = level_peak(P, m, 1)
    L = quotient_order(spec, m)
    assert len(G.level._stages) == r * m and form.row_count == size * L
    monkeypatch.setattr(lambda_mod, "EXPANSION_BUDGET_BYTES", peak - 1)
    with pytest.raises(TooLarge):
        check_expansion_budget(spec, base, size, size, m, 1)
    monkeypatch.setattr(lambda_mod, "EXPANSION_BUDGET_BYTES", 2 * peak)
    check_expansion_budget(spec, base, size, size, m, 1)
