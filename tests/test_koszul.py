"""Koszul homology read from two strong bases in the group variables g_j
(lambda_mod.koszul_homology_ordq) against the route that expands everything
in T_j = g_j - 1 and pulls the boundaries back onto the cycles' generators,
and the staircase count of syzygy.quotient_ordq against brute force and an
exact identity."""

import time
import tracemalloc
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutower import lambda_mod, syzygy
from mutower.chainring import ChainRing, RingBase
from mutower.errors import InvalidInput, TooLarge
from mutower.groupring import GroupRingPoly, GroupSpec, poly_gen, poly_int, poly_sub
from mutower.lambda_mod import _elimination, _koszul_module, koszul_homology_ordq, presentation, quotient_pi
from mutower.synth import Garnish, GroundTruth, make_module
from mutower.syzygy import PolyContext, quotient_ordq, strong_groebner

# ---------------------------------------------------------------------------
# The reference: the relations and the tower operators expanded in
# T_j = g_j - 1 (the same ring, R[g] = R[T], in other coordinates), H_i as
# the quotient of the cycles' generators by the pull-back of the boundaries
# onto them, three Groebner calls per degree, and the order of that quotient
# walked cell by cell over its staircase.


def _binomial_row(p, M, e):
    """C(e, k) mod p^M for k = 0..e, by the running product C(e, k) =
    C(e, k-1) (e-k+1) / k on residues mod p^M: the p-parts of numerator and
    denominator only move the exponent v of C(e, k) = p^v u."""
    pM = p ** M
    row = [1]
    u, v = 1, 0
    for k in range(1, e + 1):
        num, den = e - k + 1, k
        while num % p == 0:
            num, v = num // p, v + 1
        while den % p == 0:
            den, v = den // p, v - 1
        u = u * num * pow(den, -1, pM) % pM
        row.append(u * p ** v % pM if v < M else 0)
    return tuple(row)


def _integer(ring, n):
    return ring.from_coeffs((n,) + (0,) * (len(ring.moduli) - 1))


def _entry_to_spoly(entry, ring, r):
    """Image of an abelian group-ring polynomial in R[T_1..T_r], g_j = 1 + T_j."""
    out = {}
    for coeffs, exps in entry.terms:
        monos = {(0,) * r: ring.from_coeffs(coeffs)}
        for j, e in enumerate(exps):
            new = {}
            for k, b in enumerate(_binomial_row(ring.p, ring.M, e)):
                if b:
                    for mono, c in monos.items():
                        new[mono[:j] + (k,) + mono[j + 1 :]] = ring.mul(c, _integer(ring, b))
            monos = new
        for mono, c in monos.items():
            out[mono] = ring.add(out.get(mono, ring.zero), c)
    return {mono: c for mono, c in out.items() if not ring.is_zero(c)}


def _t_module(P, ring, m):
    """(U, ts) in T: the nonzero relation rows and the tower operators
    g_j^(p^m) - 1 = sum_{k >= 1} C(p^m, k) T_j^k, none with a zero
    coefficient."""
    r = P.spec.r
    U = []
    for row in P.matrix:
        elem = {(j, mono): c for j, entry in enumerate(row) for mono, c in _entry_to_spoly(entry, ring, r).items()}
        if elem:
            U.append(elem)
    towers = [poly_sub(poly_gen(P.base, j + 1, r, power=P.spec.p ** m), poly_int(P.base, 1, r)) for j in range(r)]
    return U, [_entry_to_spoly(t, ring, r) for t in towers]


def _reference_preimage(ctx, target_rank, mapped, sub):
    """Generators of {v : sum_i v_i mapped[i] in <sub>}: the source-block
    elements of the graph's strong basis, the target block eliminated."""
    ring, zero = ctx.ring, (0,) * ctx.nvars
    gens = []
    for i, b in enumerate(mapped):
        g = dict(b)
        t = (target_rank + i, zero)
        g[t] = ring.add(g.get(t, ring.zero), ring.one)
        gens.append(g)
    return [
        {(pos - target_rank, mono): c for (pos, mono), c in g.items()}
        for g in strong_groebner(ctx, gens + list(sub), split=target_rank).decode()
        if next(iter(g))[0] >= target_rank
    ]


def _reference_quotient_ordq(ctx, rank, gens):
    """ord_q of S^rank / <gens>: every monomial below the pure unit powers of
    each position, each counting the least valuation of the leading terms
    dividing it."""
    ring = ctx.ring
    lts = {pos: [] for pos in range(rank)}
    for g in strong_groebner(ctx, gens).decode():
        lt = next(iter(g))
        lts[lt[0]].append((lt[1], ring.val(g[lt])))
    total = 0
    for entries in lts.values():
        bounds = []
        for k in range(ctx.nvars):
            pure = [
                mono[k] for mono, v in entries if v == 0 and all(mono[j] == 0 for j in range(ctx.nvars) if j != k)
            ]
            assert pure, "quotient module is not finite"
            bounds.append(min(pure))
        for t in product(*(range(b) for b in bounds)):
            total += min([v for mono, v in entries if all(a <= b for a, b in zip(mono, t))], default=ring.N)
    return total


def reference_koszul_ordq(P, m, i, N):
    """ord_q H_i(G_m, M) for an abelian preset, i >= 0."""
    r, b = P.spec.r, P.gens
    ring = ChainRing.from_base(P.base, N)
    ctx = PolyContext(ring, r)
    U, ts = _t_module(P, ring, m)

    def shifted(u, blk):
        return {(pos + blk * b, mono): c for (pos, mono), c in u.items()}

    def boundary(J, g, index):
        return {
            (index[J[:l] + J[l + 1 :]] * b + g, mono): ring.neg(c) if l % 2 else c
            for l, j in enumerate(J)
            for mono, c in ts[j].items()
        }

    if i == 0:
        towers = [{(g, mono): c for mono, c in t.items()} for t in ts for g in range(b)]
        return _reference_quotient_ordq(ctx, b, [*U, *towers])
    subsets_i = list(combinations(range(r), i))
    lo_index = {J: t for t, J in enumerate(combinations(range(r), i - 1))}
    mapped = [boundary(J, g, lo_index) for J in subsets_i for g in range(b)]
    sub = [shifted(u, blk) for blk in range(len(lo_index)) for u in U]
    K = _reference_preimage(ctx, len(lo_index) * b, mapped, sub)
    if not K:
        return 0
    i_index = {J: t for t, J in enumerate(subsets_i)}
    D = [e for J in combinations(range(r), i + 1) for g in range(b) if (e := boundary(J, g, i_index))]
    D += [shifted(u, blk) for blk in range(len(subsets_i)) for u in U]
    return _reference_quotient_ordq(ctx, len(K), _reference_preimage(ctx, len(subsets_i) * b, K, D))


PRESETS = [GroupSpec.abelian(2, 1), GroupSpec.abelian(3, 1), GroupSpec.abelian(2, 2), GroupSpec.abelian(3, 2)]


def _cases():
    for spec in PRESETS:
        for ef in [(1, 1), (2, 1), (1, 2)]:
            garnishes = [(), (Garnish(1),), (Garnish(2),)] if spec.r == 2 else [()]
            for garnish in garnishes:
                for free, alphas in [(0, (1, 2)), (1, (2,))]:
                    for m in (0, 1):
                        yield spec, ef, GroundTruth(free, alphas, garnish, seed=len(alphas) + 7 * m), m


CASES = list(_cases())


CASE_IDS = [f"{s}-{ef}-{len(g.garnish)}g-a{g.free_rank}-m{m}" for s, ef, g, m in CASES]


@pytest.mark.parametrize("spec, ef, gt, m", CASES, ids=CASE_IDS)
def test_koszul_matches_the_pull_back_route(spec, ef, gt, m):
    # every degree, e = 2 and f = 2 bases and garnished modules included; a
    # free summand is cut down to pi^N-torsion first
    N = max(gt.alphas)
    P = quotient_pi(make_module(gt, spec, RingBase(spec.p, *ef)), N)
    got = [koszul_homology_ordq(P, m, i, N) for i in range(spec.r + 1)]
    assert got == [reference_koszul_ordq(P, m, i, N) for i in range(spec.r + 1)]


def test_reference_route_gives_the_euler_characteristic():
    # the oracle itself on a module with a known mu
    spec = GroupSpec.abelian(2, 2)
    gt = GroundTruth(0, (1, 2), (Garnish(2),), seed=5)
    P = make_module(gt, spec, RingBase(2, 1, 1))
    euler = sum((-1) ** i * reference_koszul_ordq(P, 0, i, 2) for i in range(3))
    assert euler == gt.expected_rep().mu_total


@pytest.mark.parametrize("p, M", [(2, 1), (2, 5), (3, 1), (3, 4), (5, 3), (7, 2)])
def test_binomial_rows_are_binomials_mod_p_power(p, M):
    # the reference's binomial rows are C(e, k) mod p^M
    for e in range(61):
        assert _binomial_row(p, M, e) == tuple(comb(e, k) % p ** M for k in range(e + 1))


@pytest.mark.parametrize(
    "base, N",
    [(RingBase(2, 1, 1), 4), (RingBase(3, 1, 1), 3), (RingBase(2, 2, 1), 4), (RingBase(2, 2, 1), 1), (RingBase(3, 1, 2), 2)],
    ids=str,
)
def test_tower_operator_expansion(base, N):
    # g_j^(p^m) - 1 = sum_{k >= 1} C(p^m, k) T_j^k, the zero coefficients dropped
    ring = ChainRing.from_base(base, N)
    r = 2
    for m in range(3):
        pm = base.p ** m
        for j in range(r):
            g = poly_sub(poly_gen(base, j + 1, r, power=pm), poly_int(base, 1, r))
            expected = {}
            for k in range(1, pm + 1):
                c = _integer(ring, comb(pm, k))
                if not ring.is_zero(c):
                    expected[tuple(k if t == j else 0 for t in range(r))] = c
            assert _entry_to_spoly(g, ring, r) == expected, (m, j)


def test_entry_expansion_of_a_product_of_generators():
    # c g_1^2 g_2 = c (1 + T_1)^2 (1 + T_2)
    ring = ChainRing.from_base(RingBase(3, 1, 2), 2)
    c = ring.from_coeffs((2, 1))
    binomials = {(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1}
    expected = {t: ring.mul(c, _integer(ring, b)) for t, b in binomials.items()}
    assert _entry_to_spoly(GroupRingPoly((((2, 1), (2, 1)),)), ring, 2) == expected


def test_large_exponents_expand_fast():
    # the reference's row C(10^4, k) is one running product on residues mod 3
    base = RingBase(3, 1, 1)
    g = poly_sub(poly_gen(base, 1, 1, power=10 ** 4), poly_int(base, 1, 1))
    start = time.perf_counter()
    out = _entry_to_spoly(g, ChainRing.from_base(base, 1), 1)
    assert time.perf_counter() - start < 1.0
    for k in (1, 2, 3, 9, 10, 81, 1000, 4096, 9999, 10 ** 4):
        assert out.get((k,), 0) == comb(10 ** 4, k) % 3


# ---------------------------------------------------------------------------
# Work and budgets of one Euler sum.


def _clear_caches():
    _koszul_module.cache_clear()
    _elimination.cache_clear()


@pytest.mark.parametrize(
    "spec, gt",
    [
        (GroupSpec.abelian(3, 1), GroundTruth(0, (1, 2), seed=3)),
        (GroupSpec.abelian(2, 2), GroundTruth(0, (1, 2), (Garnish(2),), seed=5)),
        (GroupSpec.abelian(3, 2), GroundTruth(0, (2,), (Garnish(1),), seed=2)),
    ],
    ids=str,
)
def test_euler_sum_makes_r_plus_one_groebner_calls(spec, gt, monkeypatch):
    # E_1, ..., E_r and the relation module's basis (E_(r+1)), each once;
    # every call made inside a preimage_gens call, as the trace sees it
    P = make_module(gt, spec, RingBase(spec.p, 1, 1))
    N = max(gt.alphas)
    calls, depth = [], [0]
    groebner, preimage, quotient = syzygy.strong_groebner, lambda_mod.preimage_gens, lambda_mod.quotient_ordq

    def counted_groebner(*args, **kwargs):
        calls.append(depth[0])
        return groebner(*args, **kwargs)

    def counted_preimage(*args, **kwargs):
        depth[0] += 1
        try:
            return preimage(*args, **kwargs)
        finally:
            depth[0] -= 1

    quotients = []

    def counted_quotient(*args, **kwargs):
        quotients.append(args[1])
        return quotient(*args, **kwargs)

    monkeypatch.setattr(syzygy, "strong_groebner", counted_groebner)
    monkeypatch.setattr(lambda_mod, "preimage_gens", counted_preimage)
    monkeypatch.setattr(lambda_mod, "quotient_ordq", counted_quotient)
    _clear_caches()
    hs = [koszul_homology_ordq(P, 0, i, N) for i in range(spec.r + 1)]
    assert sum((-1) ** i * h for i, h in enumerate(hs)) == gt.expected_rep().mu_total
    assert calls == [1] * (spec.r + 1)
    assert 1 <= len(quotients) <= spec.r + 1
    for i, h in enumerate(hs):
        _clear_caches()
        assert koszul_homology_ordq(P, 0, i, N) == h
    _clear_caches()


def test_koszul_budget_covers_the_neighbouring_degrees(monkeypatch):
    # abelian(2, 2) at m = 1, b = 1: the chains have 4, 8 and 4 coordinates.
    # Degrees 0 and 2 read the degree-1 chains too (E_1 and E_2), so a
    # budget of 7 refuses every degree before any Groebner work, and one of
    # 8 admits them all.
    P = quotient_pi(presentation(GroupSpec.abelian(2, 2), RingBase(2, 1, 1), 1, []), 1)
    groebner = syzygy.strong_groebner

    def refuse(*args, **kwargs):
        raise AssertionError("Groebner work started above the budget")

    _clear_caches()
    monkeypatch.setattr(lambda_mod, "KOSZUL_BUDGET_CELLS", 7)
    monkeypatch.setattr(syzygy, "strong_groebner", refuse)
    for i in range(3):
        with pytest.raises(TooLarge, match=r"degree-1 chains, 8 coordinates .*lower m"):
            koszul_homology_ordq(P, 1, i, 1)
    monkeypatch.setattr(lambda_mod, "KOSZUL_BUDGET_CELLS", 8)
    monkeypatch.setattr(syzygy, "strong_groebner", groebner)
    assert [koszul_homology_ordq(P, 1, i, 1) for i in range(3)] == [reference_koszul_ordq(P, 1, i, 1) for i in range(3)]


def test_huge_level_is_refused_before_forming_its_order():
    # 3^(10^7) has millions of digits: the budget is decided from r m log2 p
    # first, without forming it, and the message stays short
    P = make_module(GroundTruth(0, (1,), seed=1), GroupSpec.abelian(3, 1))
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="lower m") as err:
        koszul_homology_ordq(P, 10 ** 7, 1, 1)
    assert time.perf_counter() - start < 0.25
    assert len(str(err.value)) < 200


# ---------------------------------------------------------------------------
# The staircase count.


def _brute_staircase(leads, box, N):
    return sum(
        min([v for mono, v in leads if all(a <= b for a, b in zip(mono, t))], default=N)
        for t in product(*(range(b) for b in box))
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=3).flatmap(
        lambda box: st.tuples(
            st.lists(st.tuples(st.tuples(*[st.integers(0, b) for b in box]), st.integers(0, 4)), max_size=6),
            st.just(box),
            st.integers(1, 4),
        )
    )
)
def test_staircase_sums_match_brute_force(data):
    leads, box, N = data
    leads = [(mono, min(v, N)) for mono, v in leads]
    expected = (_brute_staircase(leads, box, N), _brute_staircase(leads, [b + 1 for b in box], N))
    assert syzygy._staircase_sums(leads, box, N) == expected


@st.composite
def nested_modules(draw):
    """(ctx, rank, K, B): generators of K with S/K finite (caps T_j^D in
    every position), and of B in K: K's generators times each T_j^c, pi
    times K's other generators, and random multiples of them."""
    p = draw(st.sampled_from([2, 3]))
    ring = ChainRing(p, 1, 1, draw(st.integers(1, 3)))
    nvars, rank = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    D, c = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    ctx = PolyContext(ring, nvars)
    scalar = st.integers(1, p ** ring.N - 1)
    term = st.tuples(st.integers(0, rank - 1), st.tuples(*[st.integers(0, 2)] * nvars), scalar)
    G = [{(pos, m): a for pos, m, a in g} for g in draw(st.lists(st.lists(term, min_size=1, max_size=3), max_size=3))]
    caps = [{(pos, tuple(D if k == j else 0 for k in range(nvars))): 1} for pos in range(rank) for j in range(nvars)]
    K = G + caps

    def times(elem, a, shift):
        out = {}
        for (pos, m), x in elem.items():
            t = (pos, tuple(e + s for e, s in zip(m, shift)))
            out[t] = ring.add(out.get(t, ring.zero), ring.mul(a, x))
        return {t: x for t, x in out.items() if not ring.is_zero(x)}

    powers = [tuple(c if k == j else 0 for k in range(nvars)) for j in range(nvars)]
    B = [times(k, 1, s) for k in K for s in powers] + [times(g, p, (0,) * nvars) for g in G]
    for k in draw(st.lists(st.sampled_from(range(len(K))), max_size=2)):
        B.append(times(K[k], draw(scalar), draw(st.tuples(*[st.integers(0, 2)] * nvars))))
    return ctx, rank, K, [b for b in B if b]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(nested_modules())
def test_nested_quotient_order_is_the_difference(data):
    # ord(K/B) = ord(S/B) - ord(S/K) when S/K is finite
    ctx, rank, K, B = data
    bK, bB = strong_groebner(ctx, K).leads, strong_groebner(ctx, B).leads
    assert quotient_ordq(ctx, rank, bB, bK) == quotient_ordq(ctx, rank, bB) - quotient_ordq(ctx, rank, bK)
    assert quotient_ordq(ctx, rank, bB) == _reference_quotient_ordq(ctx, rank, B)


def test_infinite_nested_quotient_is_refused():
    # (T_0) / (T_0^2) in R[T_0, T_1] is T_0 R[T_1] / (T_0^2): infinite along
    # T_1, which the box one wider than the leading exponents shows
    ring = ChainRing(2, 1, 1, 2)
    ctx = PolyContext(ring, 2)
    with pytest.raises(InvalidInput, match="not finite"):
        quotient_ordq(ctx, 1, [(0, (2, 0), 0)], [(0, (1, 0), 0)])
    # with T_1^3 in the smaller module it is T_0 (R[T_0, T_1] / (T_0, T_1^3))
    # of order q^(2 * 3)
    assert quotient_ordq(ctx, 1, [(0, (2, 0), 0), (0, (1, 3), 0)], [(0, (1, 0), 0)]) == 6


@pytest.mark.parametrize("nvars", [1, 2])
def test_staircase_count_of_huge_exponents_allocates_nothing(nvars):
    # Leading exponents near the 2^24 field limit: the count splits the box
    # into slabs at the leading exponents, so it costs a few operations and
    # no memory per monomial.  Over O/pi^3, S / (pi^2, T_j^e) has order
    # q^(2 e^nvars) and S / (pi, T_j^(e/2)) q^((e/2)^nvars), so the quotient
    # of the second module by the first has the difference.
    e = 2 ** 23
    ring = ChainRing(3, 1, 1, 3)
    ctx = PolyContext(ring, nvars)
    zero = (0,) * nvars

    def power(j, k):
        return tuple(k if i == j else 0 for i in range(nvars))

    small = [(0, zero, 2)] + [(0, power(j, e), 0) for j in range(nvars)]
    big = [(0, zero, 1)] + [(0, power(j, e // 2), 0) for j in range(nvars)]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        inner = quotient_ordq(ctx, 1, small)
        outer = quotient_ordq(ctx, 1, big)
        nested = quotient_ordq(ctx, 1, small, big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5 and peak < 2 ** 16
    assert inner == 2 * e ** nvars and outer == (e // 2) ** nvars
    assert nested == inner - outer
