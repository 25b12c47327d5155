import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutower.chainring import ChainRing, RingBase, cokernel_ordq
from mutower.errors import InvalidInput
from mutower.groupring import GroupSpec
from mutower.lambda_mod import koszul_homology_ordq
from mutower.synth import Garnish, GroundTruth, make_module
from mutower import syzygy
from mutower.errors import TooLarge
from mutower.syzygy import PolyContext, preimage_gens, quotient_ordq, strong_groebner
from test_koszul import _reference_quotient_ordq

# The reference: the Buchberger loop of mutower.syzygy on dict terms
# {(pos, mono): scalar}, ordered by term_key.  The kernel must return its
# bases element for element and in order, and the basis certificate reduces
# with its normal_form, so no check runs the kernel against itself.


def term_key(split):
    """Sort key of the term order: block flag, total degree, the exponents
    lexicographically, then lower positions first.  The key is a flat tuple
    of integers, so its negation reverses the order."""

    def _key(term):
        pos, mono = term
        return (1 if pos < split else 0, sum(mono), *mono, -pos)

    return _key


def _add_into(ring, acc, other, factor, shift, negate):
    for (pos, mono), c in other.items():
        val = ring.mul(factor, c)
        if negate:
            val = ring.neg(val)
        t = (pos, tuple(a + b for a, b in zip(mono, shift)))
        cur = acc.get(t)
        new = val if cur is None else ring.add(cur, val)
        if ring.is_zero(new):
            acc.pop(t, None)
        else:
            acc[t] = new


def _scale(ctx, elem, factor):
    out = {}
    _add_into(ctx.ring, out, elem, factor, (0,) * ctx.nvars, False)
    return out


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def normal_form(ctx, elem, basis, keyfn, lead=None):
    """Full strong reduction of ``elem`` by ``basis`` (leading coefficients
    pi^v), the terms taken from a heap, largest first; the result lists its
    terms in decreasing order."""
    ring = ctx.ring
    if lead is None:
        lead = []
        for g in basis:
            lt = max(g, key=keyfn)
            lead.append((lt, ring.val(g[lt])))
    work = dict(elem)
    heap = [(tuple(-x for x in keyfn(t)), t) for t in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            continue
        vc = ring.val(c)
        pos, mono = t
        for g, ((lpos, lmono), vg) in zip(basis, lead):
            if vg <= vc and lpos == pos and _divides(lmono, mono):
                break
        else:
            out[t] = c
            continue
        factor = ring.div_pi_pow(c, vg)
        shift = tuple(a - b for a, b in zip(mono, lmono))
        for (gpos, gmono), cg in g.items():
            if gpos == lpos and gmono == lmono:
                continue
            s = (gpos, tuple(a + b for a, b in zip(gmono, shift)))
            val = ring.mul(factor, cg)
            if ring.is_zero(val):
                continue
            cur = work.get(s)
            if cur is None:
                work[s] = ring.neg(val)
                heapq.heappush(heap, (tuple(-x for x in keyfn(s)), s))
                continue
            new = ring.sub(cur, val)
            if ring.is_zero(new):
                del work[s]
            else:
                work[s] = new
    return out


def reference_groebner(ctx, gens, split=0):
    """strong_groebner on dict terms: pairs by (lcm degree, lcm key, j, i),
    the chain criterion on S-pairs, every annihilator pair reduced."""
    ring = ctx.ring
    keyfn = term_key(split)
    basis, lead, by_pos, pairs, treated = [], [], {}, [], set()

    def push(i, j, lcm):
        heapq.heappush(pairs, (sum(lcm[1]), keyfn(lcm), j, i))

    def append(elem, lt):
        v = ring.val(elem[lt])
        u = ring.unit_part(elem[lt])
        if u != ring.one:
            elem = _scale(ctx, elem, ring.inv(u))
        k = len(basis)
        basis.append(elem)
        lead.append((lt, v))
        pos, mono = lt
        if v:
            push(k, k, lt)
        same = by_pos.setdefault(pos, [])
        for i in same:
            push(i, k, (pos, tuple(max(a, b) for a, b in zip(lead[i][0][1], mono))))
        same.append(k)

    for g in gens:
        g = {t: c for t, c in g.items() if not ring.is_zero(c)}
        if g:
            append(g, max(g, key=keyfn))

    while pairs:
        _deg, _key, j, i = heapq.heappop(pairs)
        (pos, mono_i), vi = lead[i]
        if i == j:
            cand = _scale(ctx, basis[i], ring.pi_pow(ring.N - vi))
        else:
            treated.add((i, j))
            (_, mono_j), vj = lead[j]
            lcm = tuple(max(a, b) for a, b in zip(mono_i, mono_j))
            v = max(vi, vj)
            if any(
                k != i
                and k != j
                and lead[k][1] <= v
                and _divides(lead[k][0][1], lcm)
                and (min(i, k), max(i, k)) in treated
                and (min(j, k), max(j, k)) in treated
                for k in by_pos[pos]
            ):
                continue
            cand = {}
            _add_into(ring, cand, basis[i], ring.pi_pow(v - vi), tuple(a - b for a, b in zip(lcm, mono_i)), False)
            _add_into(ring, cand, basis[j], ring.pi_pow(v - vj), tuple(a - b for a, b in zip(lcm, mono_j)), True)
        if not cand:
            continue
        rem = normal_form(ctx, cand, basis, keyfn, lead)
        if rem:
            append(rem, next(iter(rem)))
    return basis


def mono(r, **kw):
    m = [0] * r
    for k, v in kw.items():
        m[int(k[1:])] = v
    return tuple(m)


def poly1(ring, pairs):
    # univariate helper: pairs of (degree, scalar)
    return {(0, (d,)): ring.from_coeffs((c,)) for d, c in pairs if ring.from_coeffs((c,)) != ring.zero}


def test_quotient_order_pi_and_power():
    # S/(pi^a, T^b) over R = O/pi^N has order q^(a*b)
    ring = ChainRing(3, 1, 1, 3)
    ctx = PolyContext(ring, 1)
    for a in (1, 2, 3):
        for b in (1, 2, 4):
            gens = [poly1(ring, [(0, 3 ** a)]), poly1(ring, [(b, 1)])]
            gens = [g for g in gens if g]
            assert quotient_ordq(ctx, 1, strong_groebner(ctx, gens).leads) == min(a, 3) * b


def test_quotient_order_infinite_detected():
    ring = ChainRing(2, 1, 1, 2)
    ctx = PolyContext(ring, 2)
    # ideal (T0) in R[T0, T1]: no pure T1-power with unit coefficient
    gens = [{(0, (1, 0)): ring.one}]
    with pytest.raises(InvalidInput):
        quotient_ordq(ctx, 1, strong_groebner(ctx, gens).leads)


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
    assert quotient_ordq(ctx, 1, strong_groebner(ctx, full).leads) == _truncation_oracle_r1(ring, gens, D)


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
            c = ring.from_coeffs((rng.randrange(4),))
            if not ring.is_zero(c):
                g[(0, m)] = c
        if g:
            gens.append(g)
    caps = [{(0, (D, 0)): ring.one}, {(0, (0, D)): ring.one}]
    assert quotient_ordq(ctx, 1, strong_groebner(ctx, gens + caps).leads) == _truncation_oracle_r2(ring, gens, D)


def test_membership_after_groebner():
    # every input generator reduces to zero against the basis
    rng = random.Random(9)
    ring = ChainRing(3, 1, 1, 2)
    ctx = PolyContext(ring, 1)
    gens = [poly1(ring, [(0, 3), (1, 2)]), poly1(ring, [(2, 1), (0, 4)])]
    basis = strong_groebner(ctx, gens).decode()
    keyfn = term_key(0)
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
    w = [{(0, (0,)): ring.from_coeffs((4,))}]
    pre, image = (half.decode() for half in preimage_gens(ctx, 1, [t], w))
    basis = strong_groebner(ctx, pre).decode()
    keyfn = term_key(0)
    # the image <T, pi^2> = (T, pi^2): its strong basis is T and pi^2
    assert sorted(next(iter(g)) for g in image) == [(0, (0,)), (0, (1,))]
    # pi^2 must be in the preimage, pi must not
    assert normal_form(ctx, {(0, (0,)): ring.from_coeffs((4,))}, basis, keyfn) == {}
    assert normal_form(ctx, {(0, (0,)): ring.from_coeffs((2,))}, basis, keyfn) != {}
    # and every generator really maps into W
    wb = strong_groebner(ctx, w).decode()
    for v in pre:
        image = {}
        for (pos, m), c in v.items():
            tm = (pos, (m[0] + 1,))
            image[tm] = ring.add(image.get(tm, ring.zero), c)
        image = {tt: c for tt, c in image.items() if not ring.is_zero(c)}
        assert normal_form(ctx, image, wb, keyfn) == {}


@st.composite
def generator_sets(draw, max_nvars=2, ring=None):
    """(ctx, split, gens) over Z/p^N for p in {2, 3} and N <= 3, or over
    ``ring`` when given."""
    if ring is None:
        p = draw(st.sampled_from([2, 3]))
        N = draw(st.integers(1, 3))
        ring = ChainRing(p, 1, 1, N)
        scalar = st.integers(1, p ** N - 1)
    else:
        scalar = st.tuples(*(st.integers(0, m - 1) for m in ring.moduli)).filter(any)
    nvars = draw(st.integers(1, max_nvars))
    rank = draw(st.integers(1, 3))
    split = draw(st.integers(0, 1))
    term = st.tuples(
        st.integers(0, rank - 1),
        st.tuples(*[st.integers(0, 2)] * nvars),
        scalar,
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
    keyfn = term_key(split)
    basis = strong_groebner(ctx, gens, split).decode()
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generator_sets(max_nvars=3))
def test_packed_kernel_matches_reference(data):
    ctx, split, gens = data
    assert strong_groebner(ctx, gens, split) == reference_groebner(ctx, gens, split)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generator_sets(max_nvars=3, ring=ChainRing(2, 2, 1, 3)))
def test_packed_kernel_matches_reference_over_ramified_ring(data):
    ctx, split, gens = data
    assert strong_groebner(ctx, gens, split) == reference_groebner(ctx, gens, split)


def _first_term_leads(ring, elems):
    """(position, monomial, valuation) of the first term of each element."""
    return [(pos, mono, ring.val(g[pos, mono])) for g in elems for pos, mono in [next(iter(g))]]


def _check_lead_hand_off(ctx, split, gens):
    ring, zero = ctx.ring, (0,) * ctx.nvars
    basis = strong_groebner(ctx, gens, split)
    decoded = basis.decode()
    assert len(basis) == len(decoded)
    assert basis.leads == _first_term_leads(ring, decoded)
    # preimage_gens on the graph of the even generators, restricted to the
    # first split + 1 positions, with the odd ones restricted there as W;
    # its halves against the full decode split by leading position
    target_rank = split + 1
    mapped = [{t: c for t, c in g.items() if t[0] < target_rank} for g in gens[::2]]
    sub = [w for g in gens[1::2] if (w := {t: c for t, c in g.items() if t[0] < target_rank})]
    graph = []
    for i, b in enumerate(mapped):
        g = dict(b)
        g[target_rank + i, zero] = ring.one
        graph.append(g)
    full = strong_groebner(ctx, graph + sub, split=target_rank).decode()
    kernel_ref = [
        {(pos - target_rank, mono): c for (pos, mono), c in g.items()} for g in full if next(iter(g))[0] >= target_rank
    ]
    image_ref = [{t: c for t, c in g.items() if t[0] < target_rank} for g in full if next(iter(g))[0] < target_rank]
    kernel, image = preimage_gens(ctx, target_rank, mapped, sub)
    assert kernel.leads == _first_term_leads(ring, kernel_ref)
    assert image.leads == _first_term_leads(ring, image_ref)
    assert kernel.decode() == kernel_ref and image.decode() == image_ref
    # the staircase count on the packed leads, in any block order, against
    # the cell-by-cell count of the same module
    rank = 1 + max(pos for g in gens for pos, _mono in g)
    caps = [
        {(pos, tuple(3 if k == j else 0 for k in range(ctx.nvars))): ring.one}
        for pos in range(rank)
        for j in range(ctx.nvars)
    ]
    expected = _reference_quotient_ordq(ctx, rank, gens + caps)
    assert quotient_ordq(ctx, rank, strong_groebner(ctx, gens + caps, split).leads) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generator_sets(max_nvars=3))
def test_packed_leads_hand_off(data):
    _check_lead_hand_off(*data)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(generator_sets(max_nvars=2, ring=ChainRing(2, 2, 1, 3)))
def test_packed_leads_hand_off_over_ramified_ring(data):
    _check_lead_hand_off(*data)


def test_kept_layouts_stay_bounded():
    # One relation with 2^12 distinct monomials, four times the memo bound:
    # its layout is kept for the next call with the same fields, and its
    # memos stay within MEMO_ENTRIES however many monomials a call packs
    # and unpacks.
    ring = ChainRing(3, 1, 1, 1)
    ctx = PolyContext(ring, 2)
    elem = {(0, (a, b)): 1 for a in range(64) for b in range(64)}
    assert len(elem) == 2 ** 12 > syzygy.MEMO_ENTRIES
    basis = strong_groebner(ctx, [elem])
    assert basis == [elem]
    layout = basis.layout
    assert 0 < len(layout.fields) <= syzygy.MEMO_ENTRIES
    assert 0 < len(layout.monos) <= syzygy.MEMO_ENTRIES
    assert strong_groebner(ctx, [{(0, (1, 1)): 1}]).layout is layout
    for maxpos in range(syzygy.LAYOUTS + 4):
        strong_groebner(ctx, [{(maxpos, (0, 0)): 1}])
    assert syzygy._layout.cache_info().currsize <= syzygy.LAYOUTS


def test_basis_lists_leading_terms_first():
    ring = ChainRing(3, 1, 1, 2)
    ctx = PolyContext(ring, 2)
    gens = [{(0, (0, 0)): 1, (0, (1, 2)): 2, (1, (2, 0)): 1}, {(1, (0, 1)): 3, (0, (1, 0)): 1}]
    for split in (0, 1):
        keyfn = term_key(split)
        basis = strong_groebner(ctx, gens, split).decode()
        assert basis == reference_groebner(ctx, gens, split)
        assert all(next(iter(g)) == max(g, key=keyfn) for g in basis)


def test_exponent_past_the_fields_is_too_large():
    ring = ChainRing(2, 1, 1, 2)
    w = syzygy.EXPONENT_BITS
    with pytest.raises(TooLarge):
        strong_groebner(PolyContext(ring, 1), [{(0, (2 ** w,)): 1}])
    # each exponent fits, the total degree does not
    with pytest.raises(TooLarge):
        strong_groebner(PolyContext(ring, 2), [{(0, (2 ** (w - 1), 2 ** (w - 1))): 1}])
    assert strong_groebner(PolyContext(ring, 1), [{(0, (2 ** w - 1,)): 1}]) == [{(0, (2 ** w - 1,)): 1}]


@pytest.mark.parametrize(
    "gens, split",
    [
        # the S-pair y g_1 - x g_2 = y^8 e_2
        ([{(0, (1, 0)): 1, (2, (0, 7)): 1}, {(0, (0, 1)): 1}], 1),
        # g_1 is alone in e_0, so it makes no S-pair; the S-pair g_2 - y g_3
        # = x y e_0 of e_1 is reduced by it to -y^8 e_2
        ([{(0, (1, 0)): 1, (2, (0, 7)): 1}, {(1, (0, 3)): 1, (0, (1, 1)): 1}, {(1, (0, 2)): 1}], 2),
    ],
    ids=["s-pair", "reduction"],
)
def test_kernel_term_past_the_fields_is_too_large(gens, split, monkeypatch):
    # With the first blocks eliminated every input and every lcm of leading
    # terms fits 3-bit fields, but a Buchberger step makes y^8 e_2.
    ring = ChainRing(3, 1, 1, 1)
    ctx = PolyContext(ring, 2)
    reference = reference_groebner(ctx, gens, split)
    assert max(sum(mono) for g in reference for _pos, mono in g) == 8
    assert strong_groebner(ctx, gens, split) == reference
    monkeypatch.setattr(syzygy, "EXPONENT_BITS", 3)
    with pytest.raises(TooLarge):
        strong_groebner(ctx, gens, split)


def test_lcm_past_the_fields_is_too_large(monkeypatch):
    # x^4 and y^4 fit 3-bit fields, their lcm x^4 y^4, the first term of
    # their S-pair, does not
    ring = ChainRing(3, 1, 1, 1)
    ctx = PolyContext(ring, 2)
    monkeypatch.setattr(syzygy, "EXPONENT_BITS", 3)
    with pytest.raises(TooLarge):
        strong_groebner(ctx, [{(0, (4, 0)): 1}, {(0, (0, 4)): 1}])


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
