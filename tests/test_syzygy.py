import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutower.chainring import ChainRing, RingBase, cokernel_ordq
from mutower.errors import InvalidInput
from mutower.groupring import GroupSpec
from mutower.lambda_mod import koszul_homology_ordq
from mutower.synth import Garnish, GroundTruth, make_module
from mutower.syzygy import PolyContext, normal_form, preimage_gens, quotient_ordq, strong_groebner


def mono(r, **kw):
    m = [0] * r
    for k, v in kw.items():
        m[int(k[1:])] = v
    return tuple(m)


def poly1(ring, pairs):
    # univariate helper: pairs of (degree, scalar)
    return {(0, (d,)): ring.from_int(c) for d, c in pairs if ring.from_int(c) != ring.zero}


def test_quotient_order_pi_and_power():
    # S/(pi^a, T^b) over R = O/pi^N has order q^(a*b)
    ring = ChainRing(3, 1, 1, 3)
    ctx = PolyContext(ring, 1)
    for a in (1, 2, 3):
        for b in (1, 2, 4):
            gens = [poly1(ring, [(0, 3 ** a)]), poly1(ring, [(b, 1)])]
            gens = [g for g in gens if g]
            assert quotient_ordq(ctx, 1, gens) == min(a, 3) * b


def test_quotient_order_infinite_detected():
    ring = ChainRing(2, 1, 1, 2)
    ctx = PolyContext(ring, 2)
    # ideal (T0) in R[T0, T1]: no pure T1-power with unit coefficient
    gens = [{(0, (1, 0)): ring.one}]
    with pytest.raises(InvalidInput):
        quotient_ordq(ctx, 1, gens)


def _truncation_oracle_r1(ring, gens, D):
    """ord_q of R[T]/<gens + (T^D)> by expanding shift rows over the basis
    1..T^(D-1) and running the chain-ring diagonalization: an independent
    cross-check of the Groebner staircase count."""
    rows = []
    for g in gens + [{(0, (D,)): ring.one}]:
        deg = max(m[0] for (_p, m) in g)
        for shift in range(D):
            row = [ring.zero] * D
            for (_pos, m), c in g.items():
                d = m[0] + shift
                if d < D:
                    row[d] = ring.add(row[d], c)
            rows.append(row)
    return cokernel_ordq(ring, rows, D)


@pytest.mark.parametrize("seed", range(8))
def test_quotient_order_matches_truncation_oracle_r1(seed):
    rng = random.Random(seed)
    ring = ChainRing(rng.choice([2, 3]), 1, 1, rng.choice([2, 3]))
    ctx = PolyContext(ring, 1)
    D = rng.choice([2, 3, 4])
    gens = []
    for _ in range(rng.randrange(1, 3)):
        g = poly1(
            ring,
            [(d, rng.randrange(ring.p ** ring.N)) for d in range(rng.randrange(1, 4))],
        )
        if g:
            gens.append(g)
    full = gens + [{(0, (D,)): ring.one}]
    assert quotient_ordq(ctx, 1, full) == _truncation_oracle_r1(ring, gens, D)


def _truncation_oracle_r2(ring, gens, D):
    idx = {(i, j): i * D + j for i in range(D) for j in range(D)}
    caps = [{(0, (D, 0)): ring.one}, {(0, (0, D)): ring.one}]
    rows = []
    for g in gens + caps:
        for s1 in range(D):
            for s2 in range(D):
                row = [ring.zero] * (D * D)
                for (_pos, m), c in g.items():
                    d1, d2 = m[0] + s1, m[1] + s2
                    if d1 < D and d2 < D:
                        row[idx[(d1, d2)]] = ring.add(row[idx[(d1, d2)]], c)
                rows.append(row)
    return cokernel_ordq(ring, rows, D * D)


@pytest.mark.parametrize("seed", range(6))
def test_quotient_order_matches_truncation_oracle_r2(seed):
    rng = random.Random(100 + seed)
    ring = ChainRing(2, 1, 1, 2)
    ctx = PolyContext(ring, 2)
    D = 2
    gens = []
    for _ in range(rng.randrange(1, 3)):
        g = {}
        for _ in range(rng.randrange(1, 3)):
            m = (rng.randrange(2), rng.randrange(2))
            c = ring.from_int(rng.randrange(4))
            if not ring.is_zero(c):
                g[(0, m)] = c
        if g:
            gens.append(g)
    caps = [{(0, (D, 0)): ring.one}, {(0, (0, D)): ring.one}]
    assert quotient_ordq(ctx, 1, gens + caps) == _truncation_oracle_r2(ring, gens, D)


def test_membership_after_groebner():
    # every input generator reduces to zero against the basis
    rng = random.Random(9)
    ring = ChainRing(3, 1, 1, 2)
    ctx = PolyContext(ring, 1)
    gens = [poly1(ring, [(0, 3), (1, 2)]), poly1(ring, [(2, 1), (0, 4)])]
    basis = strong_groebner(ctx, gens)
    keyfn = ctx.key(0)
    for g in gens:
        assert normal_form(ctx, g, basis, keyfn) == {}
    # and a random combination also reduces to zero
    comb = {}
    for g in gens:
        shift = (rng.randrange(2),)
        for (pos, m), c in g.items():
            t = (pos, (m[0] + shift[0],))
            comb[t] = ring.add(comb.get(t, ring.zero), c)
    comb = {t: c for t, c in comb.items() if not ring.is_zero(c)}
    assert normal_form(ctx, comb, basis, keyfn) == {}


def test_preimage_gens_solves_membership():
    # P = {v : T v in (pi^2)} over R = O/pi^3 equals (pi^2)
    ring = ChainRing(2, 1, 1, 3)
    ctx = PolyContext(ring, 1)
    t = {(0, (1,)): ring.one}
    w = [{(0, (0,)): ring.from_int(4)}]
    pre = preimage_gens(ctx, 1, [t], w)
    basis = strong_groebner(ctx, pre)
    keyfn = ctx.key(0)
    # pi^2 must be in the preimage, pi must not
    assert normal_form(ctx, {(0, (0,)): ring.from_int(4)}, basis, keyfn) == {}
    assert normal_form(ctx, {(0, (0,)): ring.from_int(2)}, basis, keyfn) != {}
    # and every generator really maps into W
    wb = strong_groebner(ctx, w)
    for v in pre:
        image = {}
        for (pos, m), c in v.items():
            tm = (pos, (m[0] + 1,))
            image[tm] = ring.add(image.get(tm, ring.zero), c)
        image = {tt: c for tt, c in image.items() if not ring.is_zero(c)}
        assert normal_form(ctx, image, wb, keyfn) == {}


@st.composite
def generator_sets(draw):
    p = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 2))
    rank = draw(st.integers(1, 3))
    split = draw(st.integers(0, 1))
    ring = ChainRing(p, 1, 1, N)
    term = st.tuples(
        st.integers(0, rank - 1),
        st.tuples(*[st.integers(0, 2)] * nvars),
        st.integers(1, p ** N - 1),
    )
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=4), min_size=1, max_size=4))
    return PolyContext(ring, nvars), split, [{(pos, m): c for pos, m, c in g} for g in gens]


def _term_multiple(ring, elem, c, shift):
    """c * T^shift * elem, written out term by term."""
    out = {}
    for (pos, m), a in elem.items():
        t = (pos, tuple(x + y for x, y in zip(m, shift)))
        out[t] = ring.add(out.get(t, ring.zero), ring.mul(c, a))
    return {t: a for t, a in out.items() if not ring.is_zero(a)}


def _difference(ring, f, g):
    out = dict(f)
    for t, a in g.items():
        out[t] = ring.sub(out.get(t, ring.zero), a)
    return {t: a for t, a in out.items() if not ring.is_zero(a)}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(generator_sets())
def test_basis_certificate(data):
    # Buchberger's criterion for strong bases over a chain ring, checked on
    # every pair: the inputs, all S-pairs and all annihilator multiples
    # reduce to 0, so no pair the chain criterion skipped was needed.
    ctx, split, gens = data
    ring = ctx.ring
    keyfn = ctx.key(split)
    basis = strong_groebner(ctx, gens, split)
    for g in gens:
        assert normal_form(ctx, g, basis, keyfn) == {}
    zero = (0,) * ctx.nvars
    lead = []
    for g in basis:
        lt = max(g, key=keyfn)
        lead.append((lt, ring.val(g[lt]), ring.inv(ring.unit_part(g[lt]))))
    for g, (_lt, v, _u) in zip(basis, lead):
        ann = _term_multiple(ring, g, ring.pi_pow(ring.N - v), zero)
        assert normal_form(ctx, ann, basis, keyfn) == {}
    for j, (gj, ((pos_j, mj), vj, uj)) in enumerate(zip(basis, lead)):
        for gi, ((pos_i, mi), vi, ui) in zip(basis[:j], lead):
            if pos_i != pos_j:
                continue
            lcm = tuple(max(a, b) for a, b in zip(mi, mj))
            v = max(vi, vj)
            fi = _term_multiple(
                ring, gi, ring.mul(ui, ring.pi_pow(v - vi)), tuple(a - b for a, b in zip(lcm, mi))
            )
            fj = _term_multiple(
                ring, gj, ring.mul(uj, ring.pi_pow(v - vj)), tuple(a - b for a, b in zip(lcm, mj))
            )
            assert normal_form(ctx, _difference(ring, fi, fj), basis, keyfn) == {}


# Modules of the seed-1 koszul benchmark draw (ops 6, 172 and 207), each with
# at least two generators, on which skipping S-pairs with coprime leading
# monomials and a unit leading coefficient (the product criterion) makes a
# quotient look infinite or gives a wrong Euler sum.
PRODUCT_CRITERION_COUNTEREXAMPLES = [
    (GroupSpec.abelian(2, 2), GroundTruth(0, (1, 1), seed=357419)),
    (GroupSpec.abelian(2, 1), GroundTruth(0, (1, 2), seed=628952)),
    (GroupSpec.abelian(2, 2), GroundTruth(0, (1, 1), (Garnish(2),), seed=391519)),
]


@pytest.mark.parametrize("spec, gt", PRODUCT_CRITERION_COUNTEREXAMPLES)
def test_koszul_needs_pairs_with_coprime_leading_monomials(spec, gt):
    P = make_module(gt, spec, RingBase(spec.p, 1, 1))
    assert P.gens >= 2
    N = max(gt.alphas)
    euler = sum((-1) ** i * koszul_homology_ordq(P, 0, i, N) for i in range(spec.r + 1))
    assert euler == gt.expected_rep().mu_total
