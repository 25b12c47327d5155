import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from mutower import chainring
from mutower.chainring import (
    ChainRing,
    RingBase,
    _block_inverse,
    _diagonalize_coordinates,
    _diagonalize_numpy,
    _div_pi_pow,
    _eliminate_unit_blocks,
    _float_exact,
    cokernel_ordq,
    diagonalize,
    ordq_from_form,
)
from mutower.errors import InvalidInput, SingularBlock
from mutower.groupring import (
    GroupSpec,
    pi_pow_coeffs,
    poly_add,
    poly_gen,
    poly_int,
    poly_mul,
    poly_sub,
    poly_zero,
)
from mutower.lambda_mod import _expanded_matrix, presentation, quotient_pi
from mutower.synth import Garnish, GroundTruth, brute_force_ordq, make_module

RINGS = [
    ChainRing(2, 1, 1, 2),
    ChainRing(2, 1, 1, 3),
    ChainRing(3, 1, 1, 2),
    ChainRing(3, 1, 1, 4),
    ChainRing(2, 2, 1, 3),
    ChainRing(2, 1, 2, 2),
    ChainRing(3, 2, 2, 3),
]


def rand_matrix(ring, rng, nrows, ncols):
    return [[ring.random_scalar(rng) for _ in range(ncols)] for _ in range(nrows)]


def test_ring_sizes():
    ring = ChainRing(3, 2, 2, 5)
    assert ring.q == 9
    assert ring.size == 9 ** 5


def test_invalid_spec():
    with pytest.raises(InvalidInput):
        ChainRing(4, 1, 1, 2)
    with pytest.raises(InvalidInput):
        ChainRing(3, 0, 1, 2)
    with pytest.raises(InvalidInput):
        ChainRing(3, 1, 1, 0)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_arithmetic_axioms_and_reconstruction(ring):
    rng = random.Random(17)
    for _ in range(120):
        a = ring.random_scalar(rng)
        b = ring.random_scalar(rng)
        c = ring.random_scalar(rng)
        assert ring.mul(a, ring.mul(b, c)) == ring.mul(ring.mul(a, b), c)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        # x = unit * pi^val(x) reconstructs x exactly
        v = ring.val(a)
        assert ring.mul(ring.unit_part(a), ring.pi_pow(v)) == a
        if v == 0:
            assert ring.mul(a, ring.inv(a)) == ring.one


@pytest.mark.parametrize("ring", [ChainRing(2, 2, 1, 4), ChainRing(3, 2, 2, 3)], ids=repr)
def test_newton_failure_raises_typed_error(ring, monkeypatch):
    # 1 + pi is a unit whose inverse is not the residue-field start 1, so
    # Newton without steps cannot return it.
    x = ring.add(ring.one, ring.pi)
    assert ring.mul(x, ring.inv(x)) == ring.one
    monkeypatch.setattr(chainring, "_newton_steps", lambda N: 0)
    with pytest.raises(SingularBlock):
        ring.inv(x)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_valuation_structure(ring):
    assert ring.val(ring.zero) == ring.N
    assert ring.val(ring.one) == 0
    for v in range(ring.N):
        assert ring.val(ring.pi_pow(v)) == v
    assert ring.is_zero(ring.pi_pow(ring.N))


def test_diagonalize_already_diagonal():
    # [[pi^2, 0], [0, 1]] over p=3, N=4: coker = O/pi^2
    ring = ChainRing(3, 1, 1, 4)
    form = diagonalize(ring, [[9, 0], [0, 1]])
    assert form.diag_valuations == (0, 2)
    assert form.free_cols == 0


def test_diagonalize_no_relations():
    ring = ChainRing(3, 1, 1, 4)
    form = diagonalize(ring, [], ncols=3)
    assert form.diag_valuations == ()
    assert form.free_cols == 3


def test_cokernel_ordq_pi_powers():
    # [[pi^alpha]] -> alpha, |O/pi^alpha| = q^alpha
    for alpha, N in [(1, 4), (2, 4), (3, 3), (2, 2)]:
        ring = ChainRing(3, 1, 1, N)
        assert cokernel_ordq(ring, [[3 ** alpha % 3 ** N]]) == min(alpha, N)


def test_cokernel_ordq_zero_matrix_saturates():
    ring = ChainRing(3, 1, 1, 3)
    assert cokernel_ordq(ring, [[0]]) == 3


def test_cokernel_random_vs_bruteforce_documented_case():
    # the spec's 2x3 example over p=2, N=3: enumeration of (O/pi^3)^3
    ring = ChainRing(2, 1, 1, 3)
    rng = random.Random(5)
    for _ in range(10):
        rows = rand_matrix(ring, rng, 2, 3)
        assert cokernel_ordq(ring, rows) == brute_force_ordq(ring, rows)


@pytest.mark.parametrize(
    "ring", [r for r in RINGS if r.size <= 512], ids=repr
)
def test_cokernel_matches_bruteforce(ring):
    # all shapes up to 3x3, seeded entries; rings of size <= 512
    rng = random.Random(23)
    for nrows in range(0, 4):
        for ncols in range(1, 4):
            if ring.size ** ncols > 2 ** 24 or ring.size ** nrows > 2 ** 24:
                continue
            rows = rand_matrix(ring, rng, nrows, ncols)
            assert cokernel_ordq(ring, rows, ncols) == brute_force_ordq(ring, rows, ncols)


def test_block_diagonal_additivity():
    rng = random.Random(3)
    ring = ChainRing(2, 1, 1, 3)
    for _ in range(25):
        a = rand_matrix(ring, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        b = rand_matrix(ring, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        ca, cb = len(a[0]), len(b[0])
        block = [row + [0] * cb for row in a] + [[0] * ca + row for row in b]
        assert cokernel_ordq(ring, block) == cokernel_ordq(ring, a) + cokernel_ordq(ring, b)


def test_invariance_under_permutation_and_units():
    rng = random.Random(11)
    ring = ChainRing(3, 1, 1, 3)
    mod = 27
    for _ in range(25):
        rows = rand_matrix(ring, rng, 3, 3)
        base = cokernel_ordq(ring, rows)
        perm = [rows[2], rows[0], rows[1]]
        assert cokernel_ordq(ring, perm) == base
        flipped = [list(r) for r in zip(*rows)]
        cols_swapped = [[r[1], r[0], r[2]] for r in rows]
        assert cokernel_ordq(ring, cols_swapped) == base
        unit = rng.choice([1, 2, 4, 5])
        scaled = [[(unit * x) % mod for x in rows[0]]] + rows[1:]
        assert cokernel_ordq(ring, scaled) == base


def structured_array(rng, p, K, nrows, ncols):
    """Random residues mod p^K scaled by random p-powers, so that pivots of
    every valuation occur."""
    mod = p ** K
    A = [[rng.randrange(mod) * p ** rng.choice([0, 0, 1, 2, K]) % mod for _ in range(ncols)] for _ in range(nrows)]
    return np.array(A, dtype=np.int64)


@pytest.mark.parametrize("p, K", [(2, 5), (3, 4), (3, 14), (37, 6)])
def test_object_kernel_matches_int64_kernel(p, K):
    # (2, 5), (3, 4): valuation table against the object scan; (3, 14) and
    # (37, 6) exceed VAL_TABLE_MAX, so both dtypes scan.
    rng = random.Random(7)
    for _ in range(12):
        A = structured_array(rng, p, K, rng.randrange(1, 9), rng.randrange(1, 9))
        assert _diagonalize_numpy(A.copy(), p, K) == _diagonalize_numpy(A.astype(object), p, K)


def coordinate_array(ring, rng, nrows, ncols):
    """O-coordinates of a random matrix with pi-power scalings of every
    valuation below N, zero included."""
    rows = [
        [ring.mul(ring.random_scalar(rng), ring.pi_pow(rng.choice([0, 0, 1, 2, 3, ring.N]))) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    k = ring.e * ring.f
    return np.array([[ring.to_coeffs(x) for x in r] for r in rows], dtype=np.int64).reshape(nrows, ncols, k)


@pytest.mark.parametrize(
    "ring, table",
    [
        (ChainRing(2, 2, 1, 5), True),
        (ChainRing(2, 2, 1, 44), False),
        (ChainRing(3, 1, 2, 4), True),
        (ChainRing(3, 1, 2, 14), False),
        (ChainRing(3, 2, 2, 4), True),
        (ChainRing(3, 2, 2, 28), False),
    ],
    ids=repr,
)
def test_object_coordinate_kernel_matches_int64_kernel(ring, table):
    # int64 pivots through the valuation table below VAL_TABLE_MAX and by a
    # residue scan above it; object arrays always scan.
    assert ring.dtype is np.int64
    assert (ring.pM <= chainring.VAL_TABLE_MAX) == table
    rng = random.Random(ring.N)
    for _ in range(8):
        A = coordinate_array(ring, rng, rng.randrange(1, 8), rng.randrange(1, 8))
        assert _diagonalize_coordinates(A, ring) == _diagonalize_coordinates(A.astype(object), ring)


@pytest.mark.parametrize(
    "ring", [ChainRing(2, 2, 1, 5), ChainRing(2, 3, 1, 7), ChainRing(3, 3, 1, 5), ChainRing(2, 3, 2, 5)], ids=repr
)
def test_coordinate_division_by_pi_power_is_exact(ring):
    # u * pi^v == x for x / pi^v = u at every v <= N: every shift of the
    # pi-digits, those that wrap below 0 included.
    rng = random.Random(41)
    for v in range(ring.N + 1):
        xs = [ring.mul(ring.random_scalar(rng), ring.pi_pow(v)) for _ in range(20)]
        U = _div_pi_pow(np.array([ring.to_coeffs(x) for x in xs], dtype=np.int64), ring, v)
        for x, u in zip(xs, U.tolist()):
            assert ring.mul(ring.from_coeffs(u), ring.pi_pow(v)) == x


def test_ramified_ring_eliminates_once(monkeypatch):
    # Over e > 1 one pi-adic elimination gives every valuation; no
    # elimination per truncation n <= N.
    ring = ChainRing(2, 2, 1, 64)
    calls = []

    def counted(A, r):
        calls.append(A.shape)
        return _diagonalize_coordinates(A, r)

    def refuse(*args):
        raise AssertionError("scalar elimination over a ramified ring")

    monkeypatch.setattr(chainring, "_diagonalize_coordinates", counted)
    monkeypatch.setattr(chainring, "_diagonalize_numpy", refuse)
    form = diagonalize(ring, [[ring.pi_pow(7), ring.one, ring.zero], [ring.zero, ring.pi_pow(50), ring.pi_pow(3)]])
    assert calls == [(2, 3, 2)]
    assert form.diag_valuations == (0, 3) and form.free_cols == 1


def test_object_kernel_beyond_int64():
    # p^K > 2^63: the ring computes on Python ints end to end
    ring = ChainRing(5, 1, 1, 30)
    assert ring.dtype is object
    assert cokernel_ordq(ring, [[5 ** 29, 0], [1, 5]]) == 30  # O/pi^N (+) 0
    form = diagonalize(ring, [[5 ** 7, 5 ** 12], [0, 5 ** 20]])
    assert form.diag_valuations == (7, 20) and form.free_cols == 0
    # the pi-adic elimination on Python ints: e > 1, f > 1
    ram = ChainRing(2, 2, 1, 128)
    assert ram.dtype is object
    form = diagonalize(ram, [[ram.pi_pow(7), ram.one], [ram.zero, ram.pi_pow(100)]])
    assert form.diag_valuations == (0, 107) and form.free_cols == 0
    unr = ChainRing(3, 1, 2, 41)
    assert unr.dtype is object
    form = diagonalize(unr, [[unr.from_coeffs((0, 3 ** 5))], [unr.pi_pow(9)]])
    assert form.diag_valuations == (5,) and form.free_cols == 0


def test_large_modulus_needs_no_valuation_table():
    # p^N = 3^19 would need a 9 GB valuation table
    ring = ChainRing(3, 1, 1, 19)
    rng = random.Random(5)
    rows = structured_array(rng, 3, 19, 6, 6)
    tracemalloc.start()
    try:
        form = diagonalize(ring, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert len(form.diag_valuations) + form.free_cols == 6


# Rings with e > 1, f > 1 and both, and Z_p itself, at truncations small
# enough for brute-force enumeration.
ORACLE_RINGS = [ChainRing(2, 2, 1, 3), ChainRing(2, 1, 2, 2), ChainRing(3, 2, 2, 2), ChainRing(3, 1, 1, 3)]


@st.composite
def small_matrices(draw):
    ring = draw(st.sampled_from(ORACLE_RINGS))
    ncols = draw(st.integers(1, 2))
    nrows = draw(st.integers(0, 3 if ring.size <= 32 else 2))
    k = ring.e * ring.f
    coeffs = st.lists(st.integers(0, ring.pM - 1), min_size=k, max_size=k)
    rows = [[ring.from_coeffs(draw(coeffs)) for _ in range(ncols)] for _ in range(nrows)]
    return ring, rows, ncols


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_matrices())
def test_restriction_of_scalars_matches_bruteforce(case):
    ring, rows, ncols = case
    assert cokernel_ordq(ring, rows, ncols) == brute_force_ordq(ring, rows, ncols)


E3_RING = ChainRing(2, 3, 1, 3)


@st.composite
def e3_matrices(draw):
    # pi^3 = 2 over Z_2 at N = 3, small enough to enumerate: pivots of
    # every valuation v < e.  The digits that wrap below 0 in the division
    # by pi^v vanish at this N; test_coordinate_division_by_pi_power_is_exact
    # covers them.
    ncols = draw(st.integers(1, 3))
    nrows = draw(st.integers(0, 3))
    coeffs = st.lists(st.integers(0, 1), min_size=3, max_size=3)
    rows = [[E3_RING.from_coeffs(draw(coeffs)) for _ in range(ncols)] for _ in range(nrows)]
    return rows, ncols


@settings(max_examples=60, deadline=None, derandomize=True)
@given(e3_matrices())
def test_totally_ramified_e3_matches_bruteforce(case):
    rows, ncols = case
    assert cokernel_ordq(E3_RING, rows, ncols) == brute_force_ordq(E3_RING, rows, ncols)


def z_restriction(ring, rows, ncols, n):
    """[A; pi^n I] over Z with scalar arithmetic: row (i, a) holds the
    O-coordinates of b_a * A[i] for the basis b_a = pi^i x^j of O, and the
    rows b_a * pi^n e_c are exact O-products."""
    base = ring.base
    k = ring.e * ring.f
    unit = [tuple(int(s == a) for s in range(k)) for a in range(k)]
    basis = [ring.from_coeffs(u) for u in unit]
    out = []
    for row in rows:
        for b in basis:
            out.append([c for x in row for c in ring.to_coeffs(ring.mul(b, x))])
    pi_n = pi_pow_coeffs(base, n)
    for col in range(ncols):
        for u in unit:
            line = [0] * (ncols * k)
            line[col * k : (col + 1) * k] = base.mul(pi_n, u)
            out.append(line)
    return out


def sympy_ordq(ring, rows, ncols, n):
    """ord_q of coker(A) over O/pi^n from sympy's Hermite normal form over Z.

    The row lattice of the restriction contains p^K Z^(ncols*ef) (K =
    ceil(n/e)), so sympy's modular Hermite form (modulo that determinant
    bound) is a square basis of it and |coker| is the product of its
    diagonal.  sympy's Smith form over ZZ is not used: on some of these
    30 x 30 inputs its integer elimination ran for minutes."""
    k = ring.e * ring.f
    K = -(-n // ring.e)
    H = hermite_normal_form(Matrix(z_restriction(ring, rows, ncols, n)).T, D=ring.p ** (K * ncols * k))
    assert H.shape == (ncols * k, ncols * k)
    total = 0
    for i in range(ncols * k):
        d = abs(int(H[i, i]))
        while d % ring.p == 0:
            d //= ring.p
            total += 1
        assert d == 1
    assert total % ring.f == 0
    return total // ring.f


def pi_adic_matrix(ring, rng, nrows, ncols):
    """Random matrix with row and column pi-power scalings, so the cokernel
    has summands of several exponents."""
    rv = [rng.choice([0, 0, 1, 2]) for _ in range(nrows)]
    cv = [rng.choice([0, 0, 1]) for _ in range(ncols)]
    return [
        [ring.mul(ring.random_scalar(rng), ring.pi_pow(rv[i] + cv[j])) for j in range(ncols)]
        for i in range(nrows)
    ]


@pytest.mark.parametrize(
    "ring, nrows, ncols",
    [
        (ChainRing(2, 2, 1, 4), 13, 15),
        (ChainRing(2, 1, 2, 3), 13, 15),
        (ChainRing(3, 2, 2, 3), 7, 8),
        (ChainRing(2, 3, 1, 5), 9, 10),
        (ChainRing(3, 3, 1, 4), 7, 8),
        (ChainRing(2, 3, 2, 4), 5, 6),
        (ChainRing(3, 1, 1, 4), 28, 30),
        (ChainRing(37, 1, 1, 6), 10, 12),
    ],
    ids=repr,
)
def test_diagonal_form_matches_sympy_hermite_form(ring, nrows, ncols):
    # Every truncation n <= N: ordq_from_form at each n pins down the whole
    # valuation multiset, not only the total order.
    rng = random.Random(ring.p * 100 + ring.e * 10 + ring.f)
    for _ in range(3):
        rows = pi_adic_matrix(ring, rng, nrows, ncols)
        form = diagonalize(ring, rows, ncols)
        assert form.free_cols >= ncols - nrows
        for n in range(1, ring.N + 1):
            assert ordq_from_form(form, ring.N, n) == sympy_ordq(ring, rows, ncols, n)


def test_diagonal_valuations_sorted_ascending():
    rng = random.Random(29)
    for ring in RINGS[:4]:
        for _ in range(10):
            rows = rand_matrix(ring, rng, 3, 3)
            form = diagonalize(ring, rows)
            assert list(form.diag_valuations) == sorted(form.diag_valuations)


def test_mixed_ring_entries_rejected():
    ring = ChainRing(3, 1, 1, 2)
    with pytest.raises(InvalidInput):
        diagonalize(ring, [[100]])  # out of canonical range
    with pytest.raises(InvalidInput):
        diagonalize(ring, [[((1,),)]])  # scalar of a non-simple ring
    big = ChainRing(3, 2, 2, 3)
    with pytest.raises(InvalidInput):
        diagonalize(big, [[1]])  # simple scalar fed to an Eisenstein ring


# ---------------------------------------------------------------------------
# Unit-block elimination on level expansions (4d arrays).

BLOCK_SPECS = [
    GroupSpec.abelian(2, 1),
    GroupSpec.abelian(3, 1),
    GroupSpec.abelian(2, 2),
    GroupSpec.abelian(3, 2),
    GroupSpec.metacyclic(3),
]


def scalar_form(ring, A, ncols):
    """The same expansion as one (rows, cols, 1) array: the per-pivot path."""
    return diagonalize(ring, A.reshape(A.shape[0] * A.shape[1], ncols, 1), ncols)


@st.composite
def level_expansions(draw):
    spec = draw(st.sampled_from(BLOCK_SPECS))
    m = draw(st.integers(0, 2))
    alphas = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    garnish = (Garnish(draw(st.integers(1, 2))),) if spec.r == 2 and draw(st.booleans()) else ()
    gt = GroundTruth(draw(st.integers(0, 1)), alphas, garnish, seed=draw(st.integers(0, 10 ** 6)))
    N = draw(st.integers(1, 6))
    return _expanded_matrix(quotient_pi(make_module(gt, spec), N), m, N)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(level_expansions())
def test_unit_blocks_match_per_pivot_path(case):
    ring, A, ncols = case
    assert diagonalize(ring, A, ncols) == scalar_form(ring, A, ncols)


def test_garnished_residual_goes_to_per_pivot_kernel():
    # (pi, g1 - 1): g1 - 1 has augmentation 0 but is not divisible by p, so
    # the block pass stops with a residual for _diagonalize_numpy.
    spec = GroupSpec.abelian(3, 2)
    P = quotient_pi(make_module(GroundTruth(0, (2,), (Garnish(1),), seed=3), spec), 6)
    ring, A, ncols = _expanded_matrix(P, 2, 6)
    L = A.shape[1]
    _, residual, _, _ = _eliminate_unit_blocks(A[..., 0].reshape(-1, ncols).astype(np.float64), 3, 6, L)
    assert residual.size and (residual % 3).any()
    assert diagonalize(ring, A, ncols) == scalar_form(ring, A, ncols)


def test_zero_block_rows():
    spec = GroupSpec.abelian(3, 1)
    base = RingBase(3, 1, 1)
    # g^3 - 1 vanishes at level 1, so the expansion drops its block row
    vanishing = poly_sub(poly_gen(base, 1, 1, power=3), poly_int(base, 1, 1))
    P = presentation(spec, base, 2, [[vanishing, poly_zero()], [poly_int(base, 3, 1), poly_gen(base, 1, 1)]])
    ring, A, ncols = _expanded_matrix(quotient_pi(P, 2), 1, 4)
    assert A.shape == (3, 3, 6, 1)
    form = diagonalize(ring, A, ncols)
    assert form == scalar_form(ring, A, ncols) and form.row_count == 9
    # explicit zero block rows, kept in the array, change nothing
    padded = np.concatenate([np.zeros_like(A[:1]), A, np.zeros_like(A[:2])])
    padded_form = diagonalize(ring, padded, ncols)
    assert (padded_form.diag_valuations, padded_form.free_cols) == (form.diag_valuations, form.free_cols)


def test_modulus_above_float_bound_keeps_per_pivot_path(monkeypatch):
    spec = GroupSpec.abelian(3, 1)
    assert _float_exact(81, 3 ** 6)
    assert not _float_exact(9, 3 ** 16)
    P = quotient_pi(make_module(GroundTruth(1, (2, 5), seed=8), spec), 16)
    ring, A, ncols = _expanded_matrix(P, 2, 16)
    expected = scalar_form(ring, A, ncols)

    def refuse(*args):
        raise AssertionError("float64 block elimination above 2^53")

    monkeypatch.setattr(chainring, "_eliminate_unit_blocks", refuse)
    assert diagonalize(ring, A, ncols) == expected
    assert expected.diag_valuations.count(2) == 9 and expected.diag_valuations.count(5) == 9


def regular_block(spec, x, m, K):
    """rho(x) over Z/p^K at level m, as float64 residues."""
    _, A, _ = _expanded_matrix(presentation(spec, RingBase(spec.p, 1, 1), 1, [[x]]), m, K)
    return A[0, :, :, 0].astype(np.float64)


def test_block_inverse_of_unit_and_singular_blocks():
    spec = GroupSpec.metacyclic(3)
    base = RingBase(3, 1, 1)
    a, b = poly_gen(base, 1, 2), poly_gen(base, 2, 2)
    unit = poly_add(poly_int(base, 1, 2), poly_mul(spec, base, a, b))  # augmentation 2
    block = regular_block(spec, unit, 1, 5)
    X = _block_inverse(block, 3, 5)
    assert ((block @ X) % 3 ** 5 == np.eye(9)).all()
    # a - 1 lies in the augmentation ideal: not a unit
    with pytest.raises(SingularBlock):
        _block_inverse(regular_block(spec, poly_sub(a, poly_int(base, 1, 2)), 1, 5), 3, 5)
    # unit row sum, but singular and not a group-ring block: Newton must not
    # return
    with pytest.raises(SingularBlock):
        _block_inverse(np.array([[1.0, 0.0], [1.0, 0.0]]), 3, 5)
