import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutower.chainring import ChainRing, RingBase
from mutower.errors import InvalidInput
from mutower.groupring import (
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
    reduce_poly,
)
from mutower.lambda_mod import _level_matrix, presentation, quotient_pi
from mutower.synth import Garnish, GroundTruth, make_module


def test_quotient_order_examples():
    assert quotient_order(GroupSpec.abelian(3, 1), 2) == 9
    assert quotient_order(GroupSpec.abelian(2, 2), 3) == 64
    assert quotient_order(GroupSpec.metacyclic(3), 0) == 1
    assert quotient_order(GroupSpec.metacyclic(5), 2) == 5 ** 4


def test_metacyclic_rejects_p2():
    with pytest.raises(InvalidInput):
        GroupSpec.metacyclic(2)


def test_metacyclic_action_unit():
    assert GroupSpec.metacyclic(3).action_unit == 4
    with pytest.raises(InvalidInput):
        GroupSpec.abelian(3, 1).action_unit


def test_reduce_poly_augmentation_at_level_zero():
    spec = GroupSpec.abelian(3, 1)
    base = RingBase(3, 1, 1)
    ring = ChainRing(3, 1, 1, 2)
    x = poly_sub(poly_gen(base, 1, 1), poly_int(base, 1, 1))
    vec = reduce_poly([x], spec, 0, ring)
    assert vec.shape == (1, 1, 1) and vec.tolist() == [[[0]]]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_reduce_poly_kills_pm_power(m):
    spec = GroupSpec.abelian(2, 1)
    base = RingBase(2, 1, 1)
    ring = ChainRing(2, 1, 1, 3)
    x = poly_sub(poly_gen(base, 1, 1, power=2 ** m), poly_int(base, 1, 1))
    assert all(c == 0 for c in reduce_poly([x], spec, m, ring).flat)


def test_reduce_poly_metacyclic_rewriting():
    # b*a = a^(1+p) b exactly; at level 1 (p=3) the exponent 4 reduces to 1
    spec = GroupSpec.metacyclic(3)
    base = RingBase(3, 1, 1)
    b = poly_gen(base, 2, 2)
    a = poly_gen(base, 1, 2)
    ba = poly_mul(spec, base, b, a)
    assert ba.terms == (((1,), (4, 1)),)
    ring = ChainRing(3, 1, 1, 2)
    vec = reduce_poly([ba], spec, 1, ring)[0, :, 0].tolist()
    level = group_level(spec, 1)
    # the level's elements in their documented lexicographic order
    exps = list(itertools.product(range(level.radix), repeat=spec.r))
    assert [level.index(x) for x in exps] == list(range(level.order))
    nonzero = [(exps[i], c) for i, c in enumerate(vec) if c]
    assert nonzero == [((1, 1), 1)]


def scalar_reduce(x, spec, m, ring):
    """Oracle for reduce_poly: the image of x term by term in scalar
    arithmetic, as a list of canonical scalars over the level's elements."""
    level = group_level(spec, m)
    vec = [ring.zero] * level.order
    for coeffs, exps in x.terms:
        idx = level.index(exps)
        vec[idx] = ring.add(vec[idx], ring.from_coeffs(coeffs))
    return vec


def scalar_expansion(P, m, N):
    """Oracle for the level matrix's expansion: scalar_reduce on every entry,
    and one table scatter per nonzero coefficient, as an array of shape
    (kept relations, L, gens * L, e*f)."""
    ring = ChainRing.from_base(P.base, N)
    level = group_level(P.spec, m)
    L = level.order
    kept = []
    for row in P.matrix:
        terms = [
            (j, h, ring.to_coeffs(c))
            for j, entry in enumerate(row)
            if not entry.is_zero
            for h, c in enumerate(scalar_reduce(entry, P.spec, m, ring))
            if not ring.is_zero(c)
        ]
        if terms:
            kept.append(terms)
    tab = level.table()
    A = np.zeros((len(kept), L, P.gens * L, ring.e * ring.f), dtype=ring.dtype)
    for i, terms in enumerate(kept):
        for j, h, coeffs in terms:
            A[i, np.arange(L), j * L + tab[:, h]] = coeffs
    return ring, A, P.gens * L


@pytest.mark.parametrize(
    "ring",
    [ChainRing(3, 1, 1, 4), ChainRing(2, 2, 1, 5), ChainRing(2, 1, 2, 3), ChainRing(3, 3, 1, 4), ChainRing(3, 1, 1, 20)],
    ids=repr,
)
def test_reduce_poly_matches_scalar_oracle(ring):
    # Terms that meet at one element of the level with an unreduced sum above
    # p^M, coefficients that are negative or above 2^63 in absolute value,
    # and exponents above 2^64.
    k = ring.e * ring.f
    big = 2 ** 64
    specs = [GroupSpec.abelian(ring.p, 1), GroupSpec.abelian(ring.p, 2)]
    if ring.p > 2:
        specs.append(GroupSpec.metacyclic(ring.p))
    rng = random.Random(ring.p * 100 + ring.N)
    for spec in specs:
        r = spec.r
        for m in (0, 1, 2):
            radix = spec.p ** m
            polys = [GroupRingPoly(())]
            for _ in range(4):
                exps = tuple(rng.randrange(radix) for _ in range(r))
                terms = []
                for t in range(3):
                    # the same element of G/G_m, not the same exponents
                    far = tuple(e + radix * (big + t) * rng.randrange(1, 4) for e in exps)
                    terms.append(([ring.pM - 1 + t * big for _ in range(k)], far))
                    terms.append(([-rng.randrange(2 ** 70) for _ in range(k)], tuple(rng.randrange(3 * big) for _ in range(r))))
                polys.append(_norm_terms(terms))
            out = reduce_poly(polys, spec, m, ring)
            assert out.dtype == ring.dtype and out.shape == (len(polys), radix ** r, k)
            expected = [[list(ring.to_coeffs(c)) for c in scalar_reduce(x, spec, m, ring)] for x in polys]
            assert out.tolist() == expected
    assert (ring.dtype is object) == (ring.N == 20)


def regular_rep(spec, base, x, m, N):
    """Right-regular representation of x on (O/pi^N)[G/G_m]: the expansion
    of the 1x1 presentation [[x]], as an L x L integer matrix (e = f = 1).
    Row k holds the coordinates of g_k * x; the level matrix drops the row,
    which happens exactly when x vanishes at this level."""
    _, G, L = _level_matrix(presentation(spec, base, 1, [[x]]), m, N)
    A = G.expand()
    assert A.shape in ((0, L, 1), (L, L, 1))
    return A[:, :, 0] if len(A) else np.zeros((L, L), dtype=np.int64)


def test_regular_rep_identity_and_pi():
    spec = GroupSpec.abelian(3, 1)
    base = RingBase(3, 1, 1)
    eye = regular_rep(spec, base, poly_int(base, 1, 1), 1, 2)
    assert eye.tolist() == [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    pi = regular_rep(spec, base, poly_pi_pow(base, 1, 1), 1, 2)
    assert pi.tolist() == [[3 if i == j else 0 for j in range(3)] for i in range(3)]


def test_regular_rep_swap():
    # abelian r=1, p=2, m=1, x = g1: permutation swapping {1, g1}
    spec = GroupSpec.abelian(2, 1)
    base = RingBase(2, 1, 1)
    assert regular_rep(spec, base, poly_gen(base, 1, 1), 1, 1).tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "spec",
    [GroupSpec.abelian(2, 1), GroupSpec.abelian(3, 2), GroupSpec.metacyclic(3)],
    ids=str,
)
def test_regular_rep_is_ring_homomorphism(spec):
    base = RingBase(spec.p, 1, 1)
    mod = spec.p ** 2
    rng = random.Random(41)
    r = spec.r

    def rand_poly():
        out = poly_int(base, 0, r)
        for _ in range(rng.randrange(1, 4)):
            term = poly_gen(
                base,
                rng.randrange(1, r + 1),
                r,
                power=rng.randrange(4),
                coeff=rng.randrange(-3, 4),
            )
            out = poly_add(out, term)
        return out

    for m in (0, 1, 2):
        if spec.p ** (spec.r * m) > 81:
            continue
        for _ in range(4):
            x, y = rand_poly(), rand_poly()
            rx = regular_rep(spec, base, x, m, 2)
            ry = regular_rep(spec, base, y, m, 2)
            rxy = regular_rep(spec, base, poly_mul(spec, base, x, y), m, 2)
            assert (rxy == (rx @ ry) % mod).all()
            rsum = regular_rep(spec, base, poly_add(x, y), m, 2)
            assert (rsum == (rx + ry) % mod).all()


@pytest.mark.parametrize(
    "spec",
    [GroupSpec.abelian(3, 1), GroupSpec.abelian(2, 2), GroupSpec.metacyclic(3)],
    ids=str,
)
def test_reduce_commutes_with_projection(spec):
    base = RingBase(spec.p, 1, 1)
    ring = ChainRing(spec.p, 1, 1, 2)
    rng = random.Random(13)
    r = spec.r
    for m in (1, 2):
        level = group_level(spec, m)
        low = group_level(spec, m - 1)
        # G/G_m -> G/G_(m-1) on the lexicographic element order of level m
        proj = [low.index(x) for x in itertools.product(range(level.radix), repeat=r)]
        for _ in range(5):
            terms = []
            poly = poly_int(base, 0, r)
            for _ in range(3):
                poly = poly_add(
                    poly,
                    poly_gen(
                        base,
                        rng.randrange(1, r + 1),
                        r,
                        power=rng.randrange(6),
                        coeff=rng.randrange(-2, 3),
                    ),
                )
            hi = reduce_poly([poly], spec, m, ring)[0, :, 0].tolist()
            pushed = [ring.zero] * low.order
            for idx, c in enumerate(hi):
                tgt = int(proj[idx])
                pushed[tgt] = ring.add(pushed[tgt], c)
            assert pushed == reduce_poly([poly], spec, m - 1, ring)[0, :, 0].tolist()


@pytest.mark.parametrize("m", [0, 1, 2])
def test_metacyclic_level_group_is_a_group(m):
    # order p^(2m), associativity, identity, inverses: exhaustive for p=3, m<=2
    spec = GroupSpec.metacyclic(3)
    level = group_level(spec, m)
    L = level.order
    assert L == 3 ** (2 * m)
    tab = level.table()
    assert tab.shape == (L, L)
    # identity at index 0
    assert (tab[0, :] == np.arange(L)).all()
    assert (tab[:, 0] == np.arange(L)).all()
    # every row/column is a permutation (cancellation)
    for i in range(L):
        assert sorted(tab[i, :].tolist()) == list(range(L))
        assert sorted(tab[:, i].tolist()) == list(range(L))
    # associativity, fully vectorized: (ij)k == i(jk)
    left = tab[tab, :]  # [i, j, k] = tab[tab[i, j], k]
    right = tab[:, tab]  # [i, j, k] = tab[i, tab[j, k]]
    assert (left == right).all()


def test_metacyclic_associativity_triple_loop_small():
    spec = GroupSpec.metacyclic(3)
    level = group_level(spec, 1)
    tab = level.table()
    L = level.order
    for i in range(L):
        for j in range(L):
            for k in range(L):
                assert tab[tab[i, j], k] == tab[i, tab[j, k]]


PRESETS = [GroupSpec.abelian(2, 1), GroupSpec.abelian(3, 1), GroupSpec.abelian(2, 2), GroupSpec.abelian(3, 2), GroupSpec.metacyclic(3)]
# O = Z_p and the rings of the generic_ring benchmark workload
BASES = {
    2: [RingBase(2, 1, 1), RingBase(2, 2, 1), RingBase(2, 1, 2)],
    3: [RingBase(3, 1, 1), RingBase(3, 2, 1), RingBase(3, 1, 2)],
}


@st.composite
def synth_levels(draw):
    spec = draw(st.sampled_from(PRESETS))
    base = draw(st.sampled_from(BASES[spec.p]))
    alphas = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    garnish = (Garnish(draw(st.integers(1, 2))),) if spec.r == 2 and draw(st.booleans()) else ()
    gt = GroundTruth(draw(st.integers(0, 1)), alphas, garnish, seed=draw(st.integers(0, 10 ** 6)))
    N = draw(st.integers(1, 6))
    return quotient_pi(make_module(gt, spec, base), N), draw(st.integers(0, 2)), N


@settings(max_examples=60, deadline=None, derandomize=True)
@given(synth_levels())
def test_expansion_matches_per_term_scatter(case):
    P, m, N = case
    _, G, ncols = _level_matrix(P, m, N)
    A = G.expand()
    _, expected, expected_cols = scalar_expansion(P, m, N)
    assert ncols == expected_cols
    # the oracle keeps the block rows as an axis: (kept, L, gens * L, e*f)
    assert A.dtype == expected.dtype and A.shape == (expected.shape[0] * expected.shape[1],) + expected.shape[2:]
    assert (A == expected.reshape(A.shape)).all()


@pytest.mark.parametrize("base", [RingBase(3, 1, 1), RingBase(2, 2, 1)], ids=str)
def test_expansion_uses_no_scalar_arithmetic(base, monkeypatch):
    spec = GroupSpec.abelian(base.p, 2)
    P = quotient_pi(make_module(GroundTruth(1, (1, 3), (Garnish(1),), seed=5), spec, base), 4)
    _, expected, _ = scalar_expansion(P, 2, 4)

    def refuse(*args):
        raise AssertionError("scalar arithmetic in the expansion")

    for name in ("from_coeffs", "add", "to_coeffs", "is_zero"):
        monkeypatch.setattr(ChainRing, name, refuse)
    _, G, _ = _level_matrix(P, 2, 4)
    A = G.expand()
    assert A.shape == (expected.shape[0] * expected.shape[1],) + expected.shape[2:]
    assert (A == expected.reshape(A.shape)).all()
