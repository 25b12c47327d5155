import itertools
import random

import numpy as np
import pytest

from mutower.chainring import ChainRing, RingBase
from mutower.errors import InvalidInput
from mutower.groupring import (
    GroupSpec,
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
from mutower.lambda_mod import _expanded_matrix, presentation


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
    vec = reduce_poly(x, spec, 0, ring)
    assert vec == [0]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_reduce_poly_kills_pm_power(m):
    spec = GroupSpec.abelian(2, 1)
    base = RingBase(2, 1, 1)
    ring = ChainRing(2, 1, 1, 3)
    x = poly_sub(poly_gen(base, 1, 1, power=2 ** m), poly_int(base, 1, 1))
    assert all(c == 0 for c in reduce_poly(x, spec, m, ring))


def test_reduce_poly_metacyclic_rewriting():
    # b*a = a^(1+p) b exactly; at level 1 (p=3) the exponent 4 reduces to 1
    spec = GroupSpec.metacyclic(3)
    base = RingBase(3, 1, 1)
    b = poly_gen(base, 2, 2)
    a = poly_gen(base, 1, 2)
    ba = poly_mul(spec, base, b, a)
    assert ba.terms == (((1,), (4, 1)),)
    ring = ChainRing(3, 1, 1, 2)
    vec = reduce_poly(ba, spec, 1, ring)
    level = group_level(spec, 1)
    # the level's elements in their documented lexicographic order
    exps = list(itertools.product(range(level.radix), repeat=spec.r))
    assert [level.index(x) for x in exps] == list(range(level.order))
    nonzero = [(exps[i], c) for i, c in enumerate(vec) if c]
    assert nonzero == [((1, 1), 1)]


def regular_rep(spec, base, x, m, N):
    """Right-regular representation of x on (O/pi^N)[G/G_m]: the expansion
    of the 1x1 presentation [[x]], as an L x L integer matrix (e = f = 1).
    Row k holds the coordinates of g_k * x; the expansion drops the block
    row, which happens exactly when x vanishes at this level."""
    _, A, L = _expanded_matrix(presentation(spec, base, 1, [[x]]), m, N)
    assert A.shape[0] in (0, 1)
    return A[0, :, :, 0] if A.shape[0] else np.zeros((L, L), dtype=np.int64)


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
            hi = reduce_poly(poly, spec, m, ring)
            pushed = [ring.zero] * low.order
            for idx, c in enumerate(hi):
                tgt = int(proj[idx])
                pushed[tgt] = ring.add(pushed[tgt], c)
            assert pushed == reduce_poly(poly, spec, m - 1, ring)


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
