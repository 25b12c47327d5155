import random
import time
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix, eye
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

from mutower import chainring, lambda_mod
from mutower.chainring import (
    ChainRing,
    RingBase,
    DiagonalForm,
    GroupRingMatrix,
    _div_pi_pow,
    _eliminate_units,
    _group_ring_inverse,
    _restrict,
    _structure_tensor,
    cokernel_ordq,
    diagonalize,
    ordq_from_form,
)
from mutower.errors import InvalidInput, SingularBlock, TooLarge
from mutower.groupring import (
    GroupLevel,
    GroupRingPoly,
    GroupSpec,
    _norm_terms,
    group_level,
    pi_pow_coeffs,
    poly_add,
    poly_gen,
    poly_int,
    poly_mul,
    poly_sub,
)
from mutower.lambda_mod import _level_matrix, check_expansion_budget, presentation, quotient_pi
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


def test_primality_check_is_exact_and_fast():
    # The Mersenne prime 2^61 - 1: the check must not take time in sqrt(p).
    start = time.perf_counter()
    assert RingBase(2 ** 61 - 1, 1, 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.5
    # 2047 and 3215031751 are strong pseudoprimes to the bases 2 and 2..7,
    # 561 a Carmichael number, and 318665857834031151167461 a strong
    # pseudoprime to the first twelve prime bases 2..37.
    for n in (2047, 3215031751, 561, 318665857834031151167461):
        with pytest.raises(InvalidInput, match="not prime"):
            RingBase(n, 1, 1)
    # Above the bound where the bases are exact, p is refused, not guessed.
    with pytest.raises(InvalidInput, match="too large"):
        RingBase(2 ** 89 - 1, 1, 1)


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
    x = ring.add(ring.one, ring.pi_pow(1))
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


def coordinate_array(ring, rng, nrows, ncols):
    """O-coordinates of a random matrix with pi-power scalings of every
    valuation below N, zero included."""
    rows = [
        [ring.mul(ring.random_scalar(rng), ring.pi_pow(rng.choice([0, 0, 1, 2, 3, ring.N]))) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    k = ring.e * ring.f
    return np.array([[ring.to_coeffs(x) for x in r] for r in rows], dtype=ring.dtype).reshape(nrows, ncols, k)


def per_pivot_valuations(A, ring):
    """Reference: diagonalize the coordinate array A over O/pi^N (shape
    (rows, cols, e*f), int64 or Python ints; not modified) one pivot at a
    time, apart from the group-ring pass.  The pivot is the first unit
    entry, row-major, one whose pi^0-digit coordinates are not all divisible
    by p; when none is left the elimination stops at a zero block, and
    otherwise divides the block by pi and goes on over O/pi^(N-1).  Returns
    the pivot valuations, the divisions made before each pivot."""
    p, f, k = ring.p, ring.f, ring.e * ring.f
    dtype = A.dtype
    moduli = np.array(ring.moduli, dtype=dtype)
    A = A % moduli
    S = chainring._product_matrix(ring, dtype)
    vals, shift = [], 0
    while min(A.shape[:2]):
        unit = (A[..., :f] % p != 0).any(axis=2)
        pos = int(np.argmax(unit))
        if not unit.flat[pos]:
            if not A.any():
                break
            A = _div_pi_pow(A, ring, 1)
            ring = ChainRing.from_base(ring.base, ring.N - 1)
            moduli = np.array(ring.moduli, dtype=dtype)
            shift += 1
            continue
        i, j = divmod(pos, A.shape[1])
        if i:
            A[[0, i]] = A[[i, 0]]
        if j:
            A[:, [0, j]] = A[:, [j, 0]]
        if min(A.shape[:2]) > 1:
            # F[i] * pivot = A[i, 0]: the row multipliers over O.
            F = A[1:, 0] @ chainring._inverse_matrix(ring, tuple(A[0, 0].tolist()), dtype) % moduli
            c = A.shape[1] - 1
            P = (A[0, 1:] @ S).reshape(c, k, k) % moduli
            block = A[1:, 1:]
            block -= (F @ P.transpose(1, 0, 2).reshape(k, c * k)).reshape(-1, c, k)
            block %= moduli
        vals.append(shift)
        A = A[1:, 1:]
    return vals


TRIVIAL_DIV = np.zeros((1, 1), dtype=np.intp)


def trivial_pass(A, ring):
    """_eliminate_units over the trivial group on a copy of the reduced
    coordinate array A (shape (rows, cols, e*f)): (pivot valuations, N' of
    the ring it stops over, shift)."""
    R = A.copy() if ring.is_simple else A[:, :, None].copy()
    vals, _, sub_ring, shift = _eliminate_units(R, TRIVIAL_DIV, ring)
    return vals, sub_ring.N, shift


def assert_matches_reference(ring, A):
    """diagonalize on A against the per-pivot reference, and the pass over
    the trivial group on int64 against the same pass on Python ints."""
    form = diagonalize(ring, A)
    assert form.diag_valuations == tuple(sorted(per_pivot_valuations(A, ring)))
    assert form.free_cols == A.shape[1] - len(form.diag_valuations)
    assert trivial_pass(A, ring) == trivial_pass(A.astype(object), ring)


@pytest.mark.parametrize("p, K", [(2, 5), (3, 4), (3, 14), (37, 6)])
def test_object_kernel_matches_int64_kernel(p, K):
    # e = f = 1, one coordinate per entry, small and large moduli.
    ring = ChainRing(p, 1, 1, K)
    assert ring.dtype is np.int64
    rng = random.Random(7)
    for _ in range(12):
        assert_matches_reference(ring, structured_array(rng, p, K, rng.randrange(1, 9), rng.randrange(1, 9))[:, :, None])


@pytest.mark.parametrize(
    "ring",
    [
        ChainRing(2, 2, 1, 5),
        ChainRing(2, 2, 1, 44),
        ChainRing(3, 1, 2, 4),
        ChainRing(3, 1, 2, 14),
        ChainRing(3, 2, 2, 4),
        ChainRing(3, 2, 2, 28),
    ],
    ids=repr,
)
def test_object_coordinate_kernel_matches_int64_kernel(ring):
    assert ring.dtype is np.int64
    rng = random.Random(ring.N)
    for _ in range(8):
        assert_matches_reference(ring, coordinate_array(ring, rng, rng.randrange(1, 8), rng.randrange(1, 8)))


@pytest.mark.parametrize(
    "ring",
    [
        ChainRing(2, 1, 1, 9),
        ChainRing(3, 2, 1, 7),
        ChainRing(2, 1, 2, 6),
        ChainRing(3, 2, 2, 5),
        ChainRing(5, 1, 1, 30),
        ChainRing(2, 2, 1, 128),
        ChainRing(3, 1, 2, 41),
    ],
    ids=repr,
)
def test_trivial_group_pass_matches_per_pivot_reference(ring):
    # The pass over the trivial group is the whole elimination of every
    # matrix; the last three rings compute on Python ints.
    assert (ring.dtype is object) == (ring.N > 20)
    rng = random.Random(ring.N)
    for _ in range(40):
        A = coordinate_array(ring, rng, rng.randrange(0, 7), rng.randrange(1, 7))
        assert diagonalize(ring, A).diag_valuations == tuple(sorted(per_pivot_valuations(A, ring)))


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
            assert ring.mul(ring.div_pi_pow(x, v), ring.pi_pow(v)) == x


def test_ramified_ring_eliminates_once(monkeypatch):
    # Over e > 1 one pi-adic elimination, the pass over the trivial group,
    # gives every valuation; no elimination per truncation n <= N.
    ring = ChainRing(2, 2, 1, 64)
    calls, eliminate = [], chainring._eliminate_units

    def counted(R, div, r):
        calls.append((len(div), R.shape))
        return eliminate(R, div, r)

    monkeypatch.setattr(chainring, "_eliminate_units", counted)
    form = diagonalize(ring, [[ring.pi_pow(7), ring.one, ring.zero], [ring.zero, ring.pi_pow(50), ring.pi_pow(3)]])
    assert calls == [(1, (2, 3, 1, 2))]
    assert form.diag_valuations == (0, 3) and form.free_cols == 1


def pairwise_structure_tensor(base):
    """The structure tensor from all k^2 products of basis vectors."""
    k = base.e * base.f
    basis = [tuple(int(a == s) for s in range(k)) for a in range(k)]
    return np.array([[base.mul(a, s) for s in basis] for a in basis], dtype=object)


@pytest.mark.parametrize(
    "base",
    # the generic_ring rings, the e = 3 rings, and f = 3
    [RingBase(2, 2, 1), RingBase(2, 1, 2), RingBase(3, 2, 1), RingBase(3, 1, 2), RingBase(3, 2, 2),
     RingBase(2, 3, 1), RingBase(3, 3, 1), RingBase(2, 3, 2), RingBase(5, 3, 1), RingBase(2, 1, 3)],
    ids=str,
)
def test_structure_tensor_matches_pairwise_products(base):
    T = _structure_tensor(base)
    expected = pairwise_structure_tensor(base)
    assert T.dtype == object and T.shape == expected.shape and (T == expected).all()


def test_structure_tensor_builds_fast():
    # k = 120: (2e - 1) = 239 products instead of k^2 = 14400
    base = RingBase(2, 120, 1)
    _structure_tensor.cache_clear()
    start = time.perf_counter()
    T = _structure_tensor(base)
    assert time.perf_counter() - start < 1.0
    # pi^119 * pi^119 = p pi^118 and pi^60 * pi^70 = p pi^10
    assert T[119, 119, 118] == 2 and T[60, 70, 10] == 2 and T[60, 70].sum() == 2


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
    rows = structured_array(rng, 3, 19, 6, 6)[:, :, None]
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
def test_oracle_rings_match_bruteforce(case):
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


# When no unit is left, the elimination divides the block by pi and goes
# on over O/pi^(N-1), one higher in every later pivot valuation.  These
# matrices reach that step at the first pivot or after a few unit pivots, and
# their whole diagonal form is checked: a valuation >= N, which a division
# that kept O/pi^N can leave, changes no order but the form.


def division_matrix(ring, rng, nrows, ncols, units):
    """Random entries with every row after the first ``units`` in (pi), so
    that no unit is left after at most ``units`` pivots, and the last row pi
    times a combination of the others, so that rows and columns are left
    when the block vanishes."""
    rv = [0] * units + [min(rng.choice([1, 1, 2]), ring.N - 1) for _ in range(nrows - units - 1)]
    rows = [[ring.mul(ring.random_scalar(rng), ring.pi_pow(v)) for _ in range(ncols)] for v in rv]
    last = [ring.zero] * ncols
    for r in rows:
        c = ring.mul(ring.random_scalar(rng), ring.pi_pow(1))
        last = [ring.add(x, ring.mul(c, y)) for x, y in zip(last, r)]
    return rows + [last]


def truncate(ring, rows, n):
    """O/pi^n (n <= N) and the matrix reduced to it."""
    small = ChainRing(ring.p, ring.e, ring.f, n)
    return small, [[small.from_coeffs(ring.to_coeffs(x)) for x in r] for r in rows]


def form_from_orders(orders, ncols):
    """(diag_valuations, free_cols) pinned down by orders[n - 1], ord_q of the
    cokernel over O/pi^n for n = 1..N: ord(n) - ord(n - 1) summands have
    length >= n."""
    longer = [ncols] + [b - a for a, b in zip([0] + orders, orders)]
    vals = tuple(v for v in range(len(orders)) for _ in range(longer[v] - longer[v + 1]))
    return vals, longer[-1]


def assert_division_form(ring, rows, ncols, units, ordq):
    form = diagonalize(ring, rows, ncols)
    orders = [ordq(n) for n in range(1, ring.N + 1)]
    assert (form.diag_valuations, form.free_cols) == form_from_orders(orders, ncols)
    if units == 0:
        assert form.diag_valuations and form.diag_valuations[0] >= 1
    return form


@pytest.mark.parametrize("ring", ORACLE_RINGS + [ChainRing(2, 3, 1, 4)], ids=repr)
def test_division_by_pi_matches_bruteforce(ring):
    # ChainRing(2, 3, 1, 4): the pi^0 digit holds p c with c not always 0
    # mod p, so the division wraps it to the pi^2 digit.
    rng = random.Random(ring.size)
    nrows = 3 if ring.size <= 32 else 2
    for units in range(nrows - 1):
        for _ in range(2):
            rows = division_matrix(ring, rng, nrows, 2, units)
            assert_division_form(ring, rows, 2, units, lambda n: brute_force_ordq(*truncate(ring, rows, n), 2))


@pytest.mark.parametrize(
    "ring, nrows, ncols",
    [
        (ChainRing(2, 2, 1, 6), 6, 7),
        (ChainRing(2, 3, 1, 7), 5, 6),
        (ChainRing(3, 1, 2, 4), 5, 6),
        (ChainRing(37, 2, 1, 14), 4, 5),
    ],
    ids=repr,
)
def test_division_by_pi_matches_sympy_hermite_form(ring, nrows, ncols):
    # ChainRing(37, 2, 1, 14) eliminates Python ints (object dtype).
    assert (ring.dtype is object) == (ring.p == 37)
    rng = random.Random(ring.N)
    for units in (0, 0, 1, 2, nrows - 2):
        rows = division_matrix(ring, rng, nrows, ncols, units)
        form = assert_division_form(ring, rows, ncols, units, lambda n: sympy_ordq(ring, rows, ncols, n))
        assert any(form.diag_valuations)


def test_diagonal_valuations_sorted_ascending():
    rng = random.Random(29)
    for ring in RINGS[:4]:
        for _ in range(10):
            rows = rand_matrix(ring, rng, 3, 3)
            form = diagonalize(ring, rows)
            assert list(form.diag_valuations) == sorted(form.diag_valuations)


def test_lower_precision_rings_are_shared(monkeypatch):
    # Every division by pi, in the unit pass over a level's group and over
    # the trivial group, takes O/pi^(N-1) from the one cached constructor.
    base = RingBase(3, 1, 1)
    ring = ChainRing.from_base(base, 4)
    assert ChainRing.from_base(RingBase(3, 1, 1), 4) is ring
    _, G, ncols = _level_matrix(presentation(GroupSpec.abelian(3, 1), base, 1, [[poly_int(base, 9, 1)]]), 1, 4)
    cases = [([[3, 0], [0, 9]], None), (G, ncols)]
    expected = [diagonalize(ring, rows, ncols) for rows, ncols in cases]
    assert expected[0].diag_valuations == (1, 2) and expected[1].diag_valuations == (2, 2, 2)

    def refuse(self, *args):
        raise AssertionError(f"ChainRing{args} built again")

    monkeypatch.setattr(ChainRing, "__init__", refuse)
    assert [diagonalize(ring, rows, ncols) for rows, ncols in cases] == expected


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
# Unit-block elimination on level matrices (GroupRingMatrix).

BLOCK_SPECS = [
    GroupSpec.abelian(2, 1),
    GroupSpec.abelian(3, 1),
    GroupSpec.abelian(2, 2),
    GroupSpec.abelian(3, 2),
    GroupSpec.metacyclic(3),
]


def scalar_form(ring, G, ncols):
    """Reference: the diagonal form of the whole expansion from
    per_pivot_valuations."""
    A = G.expand()
    assert A.shape[1] == ncols
    vals = per_pivot_valuations(A, ring)
    return DiagonalForm(tuple(sorted(vals)), ncols - len(vals), len(A), ncols)


def regular_representation(R, div):
    """Oracle: the expansion of the group-ring matrix R (shape (rels, gens,
    L, ...)) with division table div, block by block: row g of block (i, j),
    g * entry, is R[i, j, div[g]]."""
    rels, gens, L = R.shape[:3]
    A = R[np.arange(rels)[:, None, None, None], np.arange(gens)[:, None], div[:, None, :]]
    return A.reshape(rels * L, gens * L, *R.shape[3:])


def dense_block_inverse(B, p, K):
    """Oracle: inverse over Z/p^K of an L x L block rho(x) (float64 residues)
    by Newton iteration X <- X (2I - B X) on the dense block from a^-1 I."""
    mod = p ** K
    L = B.shape[0]
    a = int(B[0].sum()) % mod
    if a % p == 0:
        raise SingularBlock(f"block augmentation {a} is not a unit mod {p}")
    eye = np.eye(L)
    X = eye * pow(a, -1, mod)
    for _ in range((K * L - 1).bit_length() + 1):
        E = (eye - B @ X) % mod
        if not E.any():
            return X
        X = (X + X @ E) % mod
    raise SingularBlock(f"Newton inversion of a {L}x{L} block mod {p}^{K} did not converge")


def dense_unit_blocks(W, p, K, L):
    """Oracle: the unit-block pass on the dense expansion W (float64 residues
    mod p^K, shape (r L, c L), overwritten), eliminating each unit L x L
    block whole with a dense Newton inverse and a dense Schur complement,
    and stopping at a zero block.  Returns (pivot valuations, int64
    residual, K', shift) like _eliminate_units, with the residual
    expanded."""
    mod = p ** K
    vals, shift, d = [], 0, 0
    while d < min(W.shape):
        S = W[d:, d:]
        nr, nc = S.shape[0] // L, S.shape[1] // L
        hit = np.flatnonzero(S[::L].reshape(nr, nc, L).sum(axis=2) % p)
        if hit.size:
            i, j = divmod(int(hit[0]), nc)
            if i:
                S[:L], S[i * L : (i + 1) * L] = S[i * L : (i + 1) * L].copy(), S[:L].copy()
            if j:
                S[:, :L], S[:, j * L : (j + 1) * L] = S[:, j * L : (j + 1) * L].copy(), S[:, :L].copy()
            XA = dense_block_inverse(S[:L, :L], p, K) @ S[:L, L:] % mod
            T = S[L:, L:]
            T -= S[L:, :L] @ XA
            np.remainder(T, mod, out=T)
            vals += [shift] * L
            d += L
        elif K > 1 and S.any() and not np.fmod(S, p).any():
            S /= p
            K -= 1
            mod //= p
            shift += 1
        else:
            break
    return vals, W[d:, d:].astype(np.int64), K, shift


def group_law(div):
    """(product, inverse) of a group from its division table div[g, c] =
    g^-1 c: g^-1 = div[g, 0] and g h = div[g^-1, h]."""
    inv = div[:, 0]
    return (lambda g, h: div[inv[g], h]), inv


def stripped(d, k):
    """d with one more digit of generator k stripped."""
    return d[:k] + (d[k] + 1,) + d[k + 1 :]


def assert_stages_permute_the_expansion(G, p):
    """Each stage's restriction of the level matrix G (no elimination)
    expands to its parent's expansion with rows and columns permuted,
    (i, s, z) <-> (i, z t_s), t_s the transversal.  The subgroup and the
    transversal are read off the gather at s = 0 and z = 1, where t_0 = 1.
    Checked on the descents that strip the generators' digits in each fixed
    order, g_1 first, g_2 first, ..., each down to order p, one index p at
    a time."""
    level = G.level
    r, m = level.spec.r, level.m
    for order in permutations(range(r)):
        R, div, d = G.coords[..., 0], G.div, (0,) * r
        for k in [k for k in order for _ in range(m)][:-1]:
            gather, sub_div = level.stage(d, k)
            sub, L = _restrict(R, gather), len(div)
            mul, _ = group_law(div)
            members, t = gather[0, 0], gather[0, :, 0]
            cosets = mul(members[None, :], t[:, None]).ravel()
            assert sorted(cosets) == list(range(L))
            rows = (np.arange(len(R))[:, None] * L + cosets).ravel()
            cols = (np.arange(R.shape[1])[:, None] * L + cosets).ravel()
            parent = regular_representation(R, div)
            assert sub.shape == (len(R) * p, R.shape[1] * p, L // p)
            assert (regular_representation(sub, sub_div) == parent[rows][:, cols]).all()
            R, div, d = sub, sub_div, stripped(d, k)
        assert len(div) == min(len(G.div), p)


def garnishes(draw, spec):
    """None, one or two pseudo-null summands Lambda/(pi, g_j - 1) for r = 2:
    g_1, g_2, g_1 and g_2, or g_2 twice."""
    if spec.r != 2:
        return ()
    return tuple(Garnish(j) for j in draw(st.sampled_from([(), (1,), (2,), (1, 2), (2, 2)])))


@st.composite
def level_matrices(draw):
    spec = draw(st.sampled_from(BLOCK_SPECS))
    m = draw(st.integers(0, 2))
    alphas = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    gt = GroundTruth(draw(st.integers(0, 1)), alphas, garnishes(draw, spec), seed=draw(st.integers(0, 10 ** 6)))
    N = draw(st.integers(1, 6))
    return _level_matrix(quotient_pi(make_module(gt, spec), N), m, N)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(level_matrices())
def test_unit_blocks_match_per_pivot_path(case):
    ring, G, ncols = case
    A = G.expand()
    assert A.shape == (len(G.coords) * len(G.div), ncols, 1)
    assert (A == regular_representation(G.coords, G.div)).all()
    assert_stages_permute_the_expansion(G, ring.p)
    assert diagonalize(ring, G, ncols) == scalar_form(ring, G, ncols)


def assert_matches_dense_oracle(ring, G):
    L = len(G.div)
    W = G.expand()[..., 0].astype(np.float64)
    expected_vals, expected_residual, expected_K, expected_shift = dense_unit_blocks(W, ring.p, ring.N, L)
    vals, residual, sub_ring, shift = _eliminate_units(G.coords[..., 0].copy(), G.div, ring)
    assert (vals, sub_ring.N, shift) == (expected_vals, expected_K, expected_shift)
    assert residual.dtype == np.int64
    expanded = GroupRingMatrix(residual[..., None], G.level).expand()[..., 0]
    assert expanded.shape == expected_residual.shape and (expanded == expected_residual).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(level_matrices())
def test_compact_unit_pass_matches_dense_block_oracle(case):
    ring, G, _ = case
    assert_matches_dense_oracle(ring, G)


# G/G_1 of the metacyclic preset is abelian; at m = 2 the group ring is not
# commutative, so these pin the order of every product in the pass.
@pytest.mark.parametrize(
    "gt, N",
    [
        (GroundTruth(0, (1, 2), (Garnish(1),), seed=0), 4),
        (GroundTruth(1, (2,), seed=1), 6),
        (GroundTruth(0, (2, 3), seed=2), 5),
    ],
)
def test_compact_unit_pass_matches_dense_block_oracle_on_nonabelian_level(gt, N):
    ring, G, _ = _level_matrix(quotient_pi(make_module(gt, GroupSpec.metacyclic(3)), N), 2, N)
    assert_matches_dense_oracle(ring, G)


def test_garnished_residual_descends_past_the_first_pass(monkeypatch):
    # (pi, g1 - 1): g1 - 1 has augmentation 0 but is not divisible by p, so
    # the block pass over Q stops with a residual, and the descent leaves
    # the pass over the trivial group nothing.  The one pass over the
    # trivial group is level 0's own pass over the projected residual.
    spec = GroupSpec.abelian(3, 2)
    P = quotient_pi(make_module(GroundTruth(0, (2,), (Garnish(1),), seed=3), spec), 6)
    ring, G, ncols = _level_matrix(P, 2, 6)
    _, residual, _, _ = _eliminate_units(G.coords[..., 0].copy(), G.div, ring)
    assert residual.size and (residual % 3).any()
    trivial, eliminate = [], chainring._eliminate_units

    def recording_eliminate(R, div, r):
        if len(div) == 1:
            trivial.append(R.shape)
        return eliminate(R, div, r)

    monkeypatch.setattr(chainring, "_eliminate_units", recording_eliminate)
    form = diagonalize(ring, G, ncols)
    assert trivial == [(3, 2, 1)]
    assert form == scalar_form(ring, G, ncols)


def test_zero_residual_stops_the_pass(monkeypatch):
    # Two equal relation rows at abelian(3, 1), m = 2, N = 12: one pivot
    # leaves a zero (1, 2, 9) residual, which the pass returns over O/pi^N
    # with shift 0, neither divided by pi nor restricted further.  Its
    # projections to levels 0 and 1 take their own passes, which find
    # nothing; level 2 takes no pass of its own, as its loop starts at the
    # first restriction and the residual is zero.
    spec, base = GroupSpec.abelian(3, 1), RingBase(3, 1, 1)
    g = poly_gen(base, 1, 1)
    row = [poly_add(poly_int(base, 1, 1), g), poly_sub(g, poly_int(base, 1, 1)), poly_int(base, 3, 1)]
    ring, G, ncols = _level_matrix(presentation(spec, base, 3, [row, row]), 2, 12)
    calls, eliminate = [], chainring._eliminate_units

    def recording_eliminate(R, div, r):
        out = eliminate(R, div, r)
        calls.append((len(div), out))
        return out

    monkeypatch.setattr(chainring, "_eliminate_units", recording_eliminate)
    form = diagonalize(ring, G, ncols)
    assert [L for L, _ in calls] == [9, 1, 3]
    vals, residual, sub_ring, shift = calls[0][1]
    assert vals == [0] * 9 and residual.shape == (1, 2, 9) and not residual.any()
    assert (sub_ring.N, shift) == (12, 0)
    monkeypatch.undo()
    assert form == scalar_form(ring, G, ncols) and form.free_cols == 18


def test_zero_block_rows():
    spec = GroupSpec.abelian(3, 1)
    base = RingBase(3, 1, 1)
    # g^3 - 1 vanishes at level 1, so the level matrix drops its row
    vanishing = poly_sub(poly_gen(base, 1, 1, power=3), poly_int(base, 1, 1))
    P = presentation(spec, base, 2, [[vanishing, GroupRingPoly(())], [poly_int(base, 3, 1), poly_gen(base, 1, 1)]])
    ring, G, ncols = _level_matrix(quotient_pi(P, 2), 1, 4)
    assert G.coords.shape == (3, 2, 3, 1) and G.expand().shape == (9, 6, 1)
    form = diagonalize(ring, G, ncols)
    assert form == scalar_form(ring, G, ncols) and form.row_count == 9
    # explicit zero rows, kept in the array, change nothing
    R = G.coords
    padded = GroupRingMatrix(np.concatenate([np.zeros_like(R[:1]), R, np.zeros_like(R[:2])]), G.level)
    padded_form = diagonalize(ring, padded, ncols)
    assert (padded_form.diag_valuations, padded_form.free_cols) == (form.diag_valuations, form.free_cols)


# abelian(3, 1) at m = 2 (L = 9): the one exactness rule, _kernel_dtype(3^N, L),
# admits the unit pass up to N = 18, while an int64 ring admits N = 19.
INT64_BOUND_MODULE = GroundTruth(1, (2, 5), seed=8)


@pytest.mark.parametrize("N", [16, 18])
def test_unit_pass_runs_up_to_the_int64_bound(N, monkeypatch):
    P = quotient_pi(make_module(INT64_BOUND_MODULE, GroupSpec.abelian(3, 1)), N)
    ring, G, ncols = _level_matrix(P, 2, N)
    assert chainring._kernel_dtype(ring.pM, 9) is np.int64
    passes, eliminate = [], chainring._eliminate_units

    def recording_eliminate(*args):
        passes.append(args[0].dtype)
        return eliminate(*args)

    monkeypatch.setattr(chainring, "_eliminate_units", recording_eliminate)
    form = diagonalize(ring, G, ncols)
    assert passes and set(passes) == {np.dtype(np.int64)}
    assert form == scalar_form(ring, G, ncols)
    assert form.diag_valuations.count(2) == 9 and form.diag_valuations.count(5) == 9


def recording_pass_dtypes(monkeypatch):
    """[(L, dtype the pass ran on, dtype the rule gives)] of every unit pass
    from here on; the pass runs on the array its residual views."""
    passes, eliminate = [], chainring._eliminate_units

    def recording_eliminate(R, div, ring):
        out = eliminate(R, div, ring)
        passes.append((len(div), out[1].dtype, np.dtype(chainring._kernel_dtype(ring.pM, len(div) * ring.e * ring.f))))
        return out

    monkeypatch.setattr(chainring, "_eliminate_units", recording_eliminate)
    return passes


def test_unit_pass_above_the_int64_bound_runs_on_python_ints(monkeypatch):
    # At N = 19 the rule fails for L = 9 though not for the trivial group:
    # the level's unit pass runs on its compact array of Python ints.  That
    # pass divides by pi five times, and over O/pi^14 the rule admits L = 9,
    # so every later pass runs on int64 (level 2 takes none of its own: its
    # loop starts at the first restriction, and no residual is left); the
    # form agrees with the per-pivot reference.
    P = quotient_pi(make_module(INT64_BOUND_MODULE, GroupSpec.abelian(3, 1)), 19)
    ring, G, ncols = _level_matrix(P, 2, 19)
    assert ring.dtype is np.int64 and chainring._kernel_dtype(ring.pM, 9) is object
    expected = scalar_form(ring, G, ncols)
    passes = recording_pass_dtypes(monkeypatch)
    assert diagonalize(ring, G, ncols) == expected
    assert passes[0][:2] == (9, np.dtype(object)) and all(ran == rule for _, ran, rule in passes)
    int64 = np.dtype(np.int64)
    assert [(L, ran) for L, ran, _ in passes[1:]] == [(1, int64), (3, int64)]
    assert expected.diag_valuations.count(2) == 9 and expected.diag_valuations.count(5) == 9


def test_python_int_level_returns_to_int64_at_a_small_stage(monkeypatch):
    # Garnished abelian(3, 2) at m = 2, N = 19: the rule fails for L >= 9, so
    # the top pass runs on Python ints; level 1's projection descends to
    # <g1>, of order 3, where the pass runs on int64 again, as does level
    # 0's.  Every pass runs in the dtype _kernel_dtype(p^M', L' e f) gives
    # for its own order and precision.
    spec, ef, m, N, gt = PYTHON_INT_LEVELS[5]
    assert (spec, ef, m, N) == (GroupSpec.abelian(3, 2), (1, 1), 2, 19)
    ring, G, ncols = _level_matrix(quotient_pi(make_module(gt, spec, RingBase(spec.p, *ef)), N), m, N)
    expected = scalar_form(ring, G, ncols)
    passes = recording_pass_dtypes(monkeypatch)
    form = diagonalize(ring, G, ncols)
    assert passes[0][:2] == (81, np.dtype(object)) and all(ran == rule for _, ran, rule in passes)
    assert (3, np.dtype(np.int64)) in [(L, ran) for L, ran, _ in passes[1:]]
    assert form == expected


# Levels whose unit pass runs on Python ints, _kernel_dtype(p^M, L e f) is
# object, on every preset and on e = 2 and f = 2 rings: (spec, (e, f), m,
# N, module).  At abelian(3, r) with N = 19 only the compact pass fails the
# rule; the expansion of each level is int64.
PYTHON_INT_LEVELS = [
    (GroupSpec.abelian(2, 1), (1, 1), 3, 100, GroundTruth(1, (2, 40), seed=8)),
    (GroupSpec.abelian(3, 1), (1, 1), 2, 19, INT64_BOUND_MODULE),
    (GroupSpec.abelian(3, 1), (2, 1), 2, 40, GroundTruth(1, (2, 5), seed=8)),
    (GroupSpec.abelian(2, 1), (1, 2), 2, 40, GroundTruth(1, (2, 5), seed=8)),
    (GroupSpec.abelian(2, 2), (1, 1), 2, 40, GroundTruth(1, (2, 5), (Garnish(1),), seed=8)),
    (GroupSpec.abelian(3, 2), (1, 1), 2, 19, GroundTruth(1, (2, 5), (Garnish(2),), seed=8)),
    (GroupSpec.abelian(3, 2), (2, 1), 1, 100, GroundTruth(0, (3, 30), (Garnish(1),), seed=2)),
    (GroupSpec.metacyclic(3), (1, 1), 2, 100, GroundTruth(0, (2, 40), seed=3)),
    (GroupSpec.metacyclic(3), (1, 2), 1, 40, GroundTruth(1, (2, 5), seed=8)),
]


@pytest.mark.parametrize("spec, ef, m, N, gt", PYTHON_INT_LEVELS)
def test_python_int_tower_matches_per_level_reference(spec, ef, m, N, gt):
    # Each level's reference is the per-pivot form of its own expansion,
    # reduced to that level from the presentation, not projected; its rows
    # omit the relations that vanish there, which a form below keeps.
    P = quotient_pi(make_module(gt, spec, RingBase(spec.p, *ef)), N)
    ring, G, ncols = _level_matrix(P, m, N)
    assert chainring._kernel_dtype(ring.pM, len(G.div) * ring.e * ring.f) is object
    form = diagonalize(ring, G, ncols)
    assert form == scalar_form(ring, G, ncols) and len(form.below) == m
    for k, lower in enumerate(form.below):
        expected = scalar_form(*_level_matrix(P, k, N))
        assert (lower.diag_valuations, lower.free_cols, lower.col_count) == (
            expected.diag_valuations,
            expected.free_cols,
            expected.col_count,
        )
        assert lower.row_count == len(G.coords) * spec.p ** (spec.r * k)


@pytest.mark.parametrize(
    "spec, m, N", [(GroupSpec.abelian(3, 1), 3, 40), (GroupSpec.metacyclic(3), 2, 100)]
)
def test_python_int_tower_peaks_below_the_budget(spec, m, N, monkeypatch):
    # The tower of a Python-int level works on the compact array, so its
    # traced peak, stages of the descent included, stays below the bytes
    # check_expansion_budget counts for the level's expansion: with the
    # bound at the peak, the level is refused.
    P = quotient_pi(make_module(GroundTruth(0, (1, 2), seed=4), spec), N)
    group_level.cache_clear()
    ring, G, ncols = _level_matrix(P, m, N)
    assert G.coords.dtype == object
    tracemalloc.start()
    try:
        form = diagonalize(ring, G, ncols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(form.below) == m
    monkeypatch.setattr(lambda_mod, "EXPANSION_BUDGET_BYTES", peak)
    with pytest.raises(TooLarge):
        check_expansion_budget(spec, P.base, P.rels, P.gens, m, N)


def group_ring_element(spec, x, m, K):
    """x at level m over Z/p^K as int64 coefficients, with the division
    table of the level."""
    _, G, _ = _level_matrix(presentation(spec, RingBase(spec.p, 1, 1), 1, [[x]]), m, K)
    return G.coords[0, 0, :, 0], G.div


def test_block_inverse_of_unit_and_singular_blocks():
    spec = GroupSpec.metacyclic(3)
    base = RingBase(3, 1, 1)
    a, b = poly_gen(base, 1, 2), poly_gen(base, 2, 2)
    unit = poly_add(poly_int(base, 1, 2), poly_mul(spec, base, a, b))  # augmentation 2
    mod, ring = 3 ** 5, ChainRing(3, 1, 1, 5)
    for m in (1, 2):
        x, div = group_ring_element(spec, unit, m, 5)
        y = _group_ring_inverse(x, div, ring)
        one = np.eye(len(div), dtype=np.int64)[0]
        assert (x @ y[div] % mod == one).all() and (y @ x[div] % mod == one).all()
        # a - 1 lies in the augmentation ideal: not a unit
        with pytest.raises(SingularBlock):
            _group_ring_inverse(group_ring_element(spec, poly_sub(a, poly_int(base, 1, 2)), m, 5)[0], div, ring)


def test_unit_pass_builds_no_dense_expansion(monkeypatch):
    # Ungarnished Lambda (+) Lambda/p^2 (+) Lambda/p^3 at m = 2 (L = 81): the
    # pass eliminates every torsion relation on the compact array.  The
    # residual, the free summand with no rows left, projects to levels 0
    # and 1 for their own passes, level 2 takes no pass of its own (its
    # loop starts at the first restriction, and no rows are left), and
    # nothing is expanded.
    spec = GroupSpec.abelian(3, 2)
    P = quotient_pi(make_module(GroundTruth(1, (2, 3), seed=1), spec), 6)
    ring, G, ncols = _level_matrix(P, 2, 6)
    assert G.coords.shape == (3, 4, 81, 1)
    events = []
    expand, eliminate = GroupRingMatrix.expand, chainring._eliminate_units

    def recording_expand(self):
        A = expand(self)
        events.append(("expand", A.shape))
        return A

    def recording_eliminate(*args):
        out = eliminate(*args)
        events.append(("pass", args[0].shape))
        return out

    monkeypatch.setattr(GroupRingMatrix, "expand", recording_expand)
    monkeypatch.setattr(chainring, "_eliminate_units", recording_eliminate)
    form = diagonalize(ring, G, ncols)
    assert (form.row_count, form.col_count, form.free_cols) == (243, 324, 81)
    assert events == [("pass", (3, 4, 81)), ("pass", (0, 1, 1)), ("pass", (0, 1, 9))]


# ---------------------------------------------------------------------------
# The descent on metacyclic levels, where the group ring is not commutative.

METACYCLIC = GroupSpec.metacyclic(3)
BASE3 = RingBase(3, 1, 1)


def metacyclic_entry(terms):
    """sum of c a^i b^j over the (c, i, j) in terms."""
    return _norm_terms(((c,), (i, j)) for c, i, j in terms)


@st.composite
def metacyclic_levels(draw):
    """A level of a metacyclic(3) module whose entries are drawn term by term,
    so that products of a and b that do not commute are common; garnished
    with Lambda/(pi, g - 1) for g = a or b."""
    gens, rels = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    term = st.tuples(st.integers(-4, 4), st.integers(0, 8), st.integers(0, 8))
    rows = [[metacyclic_entry(draw(st.lists(term, max_size=3))) for _ in range(gens)] for _ in range(rels)]
    if draw(st.booleans()):
        g = poly_gen(BASE3, draw(st.integers(1, 2)), 2)
        zero = GroupRingPoly(())
        rows = [row + [zero] for row in rows]
        rows += [[zero] * gens + [poly_int(BASE3, 3, 2)], [zero] * gens + [poly_sub(g, poly_int(BASE3, 1, 2))]]
        gens += 1
    N = draw(st.integers(1, 6))
    return _level_matrix(presentation(METACYCLIC, BASE3, gens, rows), draw(st.integers(0, 2)), N)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(metacyclic_levels())
def test_descent_on_metacyclic_levels_matches_per_pivot_kernel(case):
    ring, G, ncols = case
    assert_stages_permute_the_expansion(G, 3)
    assert diagonalize(ring, G, ncols) == scalar_form(ring, G, ncols)


class CommutedLevel:
    """A level whose stages out of Q read x(z t_s^-1 t_s') in place of
    x(t_s^-1 z t_s'), the same on abelian levels; at metacyclic m = 2 it is
    wrong."""

    def __init__(self, level):
        self.level, self.m, self.spec = level, level.m, level.spec

    def division_table(self):
        return self.level.division_table()

    def quotient(self, m):
        return self.level.quotient(m)

    def digit_sums(self, X, d, keep):
        return self.level.digit_sums(X, d, keep)

    def stage(self, d, k):
        gather, sub_div = self.level.stage(d, k)
        if any(d):
            return gather, sub_div
        mul, inv = group_law(self.level.division_table())
        members, t = gather[0, 0], gather[0, :, 0]
        return mul(mul(members, inv[t][:, None, None]), t[None, :, None]), sub_div


def test_commuted_restriction_fails_on_a_metacyclic_level():
    rows = [
        [metacyclic_entry([(1, 1, 1), (-1, 0, 0)]), metacyclic_entry([(1, 0, 1), (2, 1, 0)])],
        [metacyclic_entry([(1, 2, 1), (1, 1, 0)]), metacyclic_entry([(3, 0, 0), (1, 1, 2), (-1, 0, 0)])],
    ]
    ring, G, ncols = _level_matrix(presentation(METACYCLIC, BASE3, 2, rows), 2, 4)
    mul, inv = group_law(G.div)
    for k in (0, 1):
        gather, _ = G.level.stage((0, 0), k)
        members, t = gather[0, 0], gather[0, :, 0]
        assert (gather == mul(mul(inv[t][:, None, None], members), t[None, :, None])).all()
    wrong = GroupRingMatrix(G.coords, CommutedLevel(G.level))
    expected = scalar_form(ring, G, ncols)
    assert diagonalize(ring, G, ncols) == expected
    assert diagonalize(ring, wrong, ncols).diag_valuations != expected.diag_valuations


@pytest.mark.parametrize("spec", [GroupSpec.abelian(3, 2), GroupSpec.metacyclic(3)], ids=str)
def test_stage_depends_only_on_the_subgroup(spec):
    # Q_(1,1) = <g_1^3, g_2^3> at m = 2, reached by stripping a digit of g_1
    # and then of g_2, or of g_2 and then of g_1: the same members, labelled
    # in the same increasing order, and the same division table.
    level = group_level(spec, 2)

    def descend(ks):
        members, d = np.arange(level.order), (0, 0)
        for k in ks:
            gather, div = level.stage(d, k)
            members, d = members[gather[0, 0]], stripped(d, k)
        return members, div

    (a, div_a), (b, div_b) = descend((0, 1)), descend((1, 0))
    assert a.tolist() == b.tolist() == [9 * e1 + e2 for e1 in (0, 3, 6) for e2 in (0, 3, 6)]
    assert (div_a == div_b).all()


@pytest.mark.parametrize("spec", [GroupSpec.abelian(3, 2), GroupSpec.metacyclic(3), GroupSpec.abelian(2, 2)], ids=str)
def test_g2_garnish_sends_nothing_to_the_kernel(spec, monkeypatch):
    # Lambda/pi (+) Lambda/pi^3 (+) Lambda/(pi, g2 - 1) at m = 2: g2 - 1 is
    # no unit over Q, but over <g1, g2^p> its diagonal blocks are -1, so the
    # descent strips a digit of g2 first and the unit passes leave nothing
    # for the pass over the trivial group, which sees only the 4 x 3
    # level-0 projection of each module (a chain that stripped g1 first
    # left it 270 x 189, 270 x 189 and 56 x 40 here).  The same module with a g1 garnish
    # descends first, stripping g1, so the g2 descent runs on a cached level
    # that keeps the other path's stages: the traced peak of both still lies
    # within what check_expansion_budget counts for either.
    modules = [quotient_pi(make_module(GroundTruth(0, (1, 3), (Garnish(j),), seed=0), spec), 6) for j in (1, 2)]
    steps, trivial = [], []
    stage, eliminate = GroupLevel.stage, chainring._eliminate_units

    def recording_stage(self, d, k):
        steps[-1].append(k)
        return stage(self, d, k)

    def recording_eliminate(R, div, ring):
        if len(div) == 1:
            trivial.append(R.size)
        return eliminate(R, div, ring)

    monkeypatch.setattr(GroupLevel, "stage", recording_stage)
    monkeypatch.setattr(chainring, "_eliminate_units", recording_eliminate)
    group_level.cache_clear()
    tracemalloc.start()
    try:
        for P in modules:
            steps.append([])
            ring, G, ncols = _level_matrix(P, 2, 6)
            form = diagonalize(ring, G, ncols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [ks[0] for ks in steps] == [0, 1] and trivial == [12, 12]
    assert {((0, 0), 0), ((0, 0), 1)} <= set(G.level._stages)
    monkeypatch.undo()
    assert form == scalar_form(ring, G, ncols)
    # The budget holds: with the bound just below the measured peak, each
    # level is refused, so the budgeted bytes are at least the peak.
    monkeypatch.setattr(lambda_mod, "EXPANSION_BUDGET_BYTES", peak - 1)
    for P in modules:
        with pytest.raises(TooLarge):
            check_expansion_budget(spec, P.base, P.rels, P.gens, 2, 6)
    group_level.cache_clear()


def smith_valuations(A, p, N):
    """Oracle: the p-adic valuations, capped at N, of the Smith invariants
    over Z of the integer matrix A stacked on p^N I, those of its cokernel
    over Z/p^N.  The lattice contains p^N Z^cols, so sympy's modular
    Hermite form is a square basis of it, and sympy's Smith form is taken of
    that: on the whole stack it ran for seconds to minutes."""
    cols = A.shape[1]
    H = hermite_normal_form(Matrix(A.tolist()).col_join(p ** N * eye(cols)).T, D=p ** (N * cols))
    vals = []
    for x in invariant_factors(H, domain=ZZ):
        x, v = abs(int(x)), 0
        while x % p == 0 and v < N:
            x, v = x // p, v + 1
        vals.append(v)
    assert len(vals) == cols
    return sorted(vals)


@pytest.mark.parametrize(
    "gt, m, N",
    [
        (GroundTruth(0, (1,), (Garnish(2),), seed=0), 1, 3),
        (GroundTruth(0, (1,), (Garnish(2),), seed=0), 2, 3),
        (GroundTruth(0, (1, 2), (Garnish(1), Garnish(2)), seed=1), 2, 4),
        (GroundTruth(1, (2,), (Garnish(2), Garnish(2)), seed=2), 2, 4),
    ],
    ids=str,
)
def test_garnished_levels_match_sympy_smith_form(gt, m, N):
    # abelian(2, 2) levels of L <= 16 over Z_2: the valuations of the
    # diagonal form, free columns counting N, are those of the Smith form.
    ring, G, ncols = _level_matrix(quotient_pi(make_module(gt, GroupSpec.abelian(2, 2)), N), m, N)
    form = diagonalize(ring, G, ncols)
    assert sorted(form.diag_valuations + (N,) * form.free_cols) == smith_valuations(G.expand()[..., 0], 2, N)


def test_tower_level_matches_sympy_smith_form():
    # Level 1 (L = 4) of the garnished abelian(2, 2) level-2 tower, derived
    # from the level-2 pass, against the Smith form of level 1's own
    # expansion.
    N = 3
    P = quotient_pi(make_module(GroundTruth(0, (1, 2), (Garnish(1), Garnish(2)), seed=1), GroupSpec.abelian(2, 2)), N)
    ring, G, ncols = _level_matrix(P, 2, N)
    form = diagonalize(ring, G, ncols).below[1]
    _, G1, _ = _level_matrix(P, 1, N)
    assert sorted(form.diag_valuations + (N,) * form.free_cols) == smith_valuations(G1.expand()[..., 0], 2, N)


# ---------------------------------------------------------------------------
# The unit pass and the descent over ramified and unramified O (e*f > 1).

WIDE_RINGS = [RingBase(2, 2, 1), RingBase(2, 1, 2), RingBase(3, 2, 1), RingBase(3, 1, 2), RingBase(3, 2, 2)]
WIDE_SPECS = [GroupSpec.abelian(2, 1), GroupSpec.abelian(2, 2), GroupSpec.abelian(3, 1), GroupSpec.metacyclic(3)]


@st.composite
def wide_levels(draw):
    base = draw(st.sampled_from(WIDE_RINGS))
    spec = draw(st.sampled_from([s for s in WIDE_SPECS if s.p == base.p]))
    alphas = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    gt = GroundTruth(draw(st.integers(0, 1)), alphas, garnishes(draw, spec), seed=draw(st.integers(0, 10 ** 6)))
    N = draw(st.integers(1, 5))
    return _level_matrix(quotient_pi(make_module(gt, spec, base), N), draw(st.integers(0, 2)), N)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(wide_levels())
def test_wide_unit_pass_matches_per_pivot_kernel(case):
    # The oracle is the per-pivot reference on the whole expansion.
    ring, G, ncols = case
    assert G.level.order == len(G.div)
    assert diagonalize(ring, G, ncols) == scalar_form(ring, G, ncols)


def test_wide_g2_garnish_sends_nothing_to_the_kernel(monkeypatch):
    # Garnished abelian(3, 2) over the ramified O = Z_3[sqrt 3] at m = 2:
    # g2 - 1 is a unit over <g1, g2^3>, so the descent strips a digit of g2
    # first, with the O-coordinate axis, at level 1 as at level 2 (whose
    # loop starts at that restriction of its residual), and the unit passes
    # leave nothing for the pass over the trivial group, which sees only
    # the level-0 projection.
    spec, base = GroupSpec.abelian(3, 2), RingBase(3, 2, 1)
    P = quotient_pi(make_module(GroundTruth(0, (2,), (Garnish(2),), seed=3), spec, base), 6)
    events, trivial = [], []
    stage, eliminate = GroupLevel.stage, chainring._eliminate_units

    def recording_stage(self, d, k):
        events.append(("stage", d, k))
        return stage(self, d, k)

    def recording_eliminate(R, div, ring):
        events.append(("pass", len(div), R.shape[3:], ring.N))
        if len(div) == 1:
            trivial.append(R.size)
        return eliminate(R, div, ring)

    monkeypatch.setattr(GroupLevel, "stage", recording_stage)
    monkeypatch.setattr(chainring, "_eliminate_units", recording_eliminate)
    ring, G, ncols = _level_matrix(P, 2, 6)
    form = diagonalize(ring, G, ncols)
    assert events[:7] == [
        ("pass", 81, (2,), 6),
        ("pass", 1, (2,), 6),
        ("pass", 9, (2,), 6),
        ("stage", (0, 0), 1),
        ("pass", 3, (2,), 6),
        ("stage", (0, 0), 1),
        ("pass", 27, (2,), 6),
    ]
    assert trivial == [12]
    monkeypatch.undo()
    assert form == scalar_form(ring, G, ncols)


def naive_product(x, y, div, ring):
    """Oracle: x y in (O/pi^N)[Q] on coordinate tuples, term by term through
    RingBase.mul: (x y)(h) = sum_g x(g) y(g^-1 h), g^-1 h = div[g, h]."""
    L = len(div)
    out = [ring.zero] * L
    for g in range(L):
        for h in range(L):
            term = ring.mul(tuple(x[g].tolist()), tuple(y[div[g, h]].tolist()))
            out[h] = ring.add(out[h], term)
    return np.array(out, dtype=np.int64)


def wide_element(spec, base, x, m, N):
    """x at level m over O/pi^N as int64 O-coordinates, with the division
    table of the level."""
    ring, G, _ = _level_matrix(presentation(spec, base, 1, [[x]]), m, N)
    return ring, G.coords[0, 0], G.div


@pytest.mark.parametrize("base", WIDE_RINGS, ids=repr)
def test_wide_group_ring_inverse(base):
    spec = GroupSpec.metacyclic(3) if base.p == 3 else GroupSpec.abelian(2, 2)
    a, b = poly_gen(base, 1, 2), poly_gen(base, 2, 2)
    # 1 + pi a + a b - b: augmentation 1 + pi, a unit in every O
    pi_a = _norm_terms([(pi_pow_coeffs(base, 1), (1, 0))])
    unit = poly_sub(poly_add(poly_add(poly_int(base, 1, 2), poly_mul(spec, base, a, b)), pi_a), b)
    for m in (1, 2):
        ring, x, div = wide_element(spec, base, unit, m, 4)
        y = _group_ring_inverse(x, div, ring)
        one = np.zeros_like(x)
        one[0, 0] = 1
        assert (naive_product(x, y, div, ring) == one).all() and (naive_product(y, x, div, ring) == one).all()
        # a - 1 lies in the augmentation ideal: not a unit
        with pytest.raises(SingularBlock):
            _group_ring_inverse(wide_element(spec, base, poly_sub(a, poly_int(base, 1, 2)), m, 4)[1], div, ring)
    # A table with no group law behind it: with row 1 constant at 2, u = g - 1
    # (g the element 1) has u u = -u, so for x = 2 - g the error never vanishes.
    fake = div.copy()
    fake[1] = 2
    x = np.zeros_like(x)
    x[0, 0], x[1, 0] = 2, ring.moduli[0] - 1
    with pytest.raises(SingularBlock):
        _group_ring_inverse(x, fake, ring)


def test_wide_group_ring_inverse_takes_every_newton_step():
    # Over GR(16, 2)[C_2], x = 2 - g has u = 1 - x = g - 1 with u^j =
    # (-2)^(j-1) u, so u^4 = -8 u is not 0 and the error vanishes only at the
    # third squaring, u^8: all ceil(log2(N L)) = 3 of them.
    spec, base = GroupSpec.abelian(2, 1), RingBase(2, 1, 2)
    x = poly_sub(poly_int(base, 2, 1), poly_gen(base, 1, 1))
    ring, xs, div = wide_element(spec, base, x, 1, 4)
    y = _group_ring_inverse(xs, div, ring)
    assert (naive_product(xs, y, div, ring) == [[1, 0], [0, 0]]).all()


@pytest.mark.parametrize(
    "ring",
    [ChainRing(3, 1, 1, 5), ChainRing(2, 2, 1, 6), ChainRing(3, 1, 2, 4), ChainRing(2, 1, 1, 80), ChainRing(2, 2, 2, 130)],
    ids=repr,
)
def test_trivial_group_inverse_is_the_scalar_inverse(ring, monkeypatch):
    # Over the trivial group the inverse is a^-1 straight after the unit
    # test: no Newton step, so no group-ring product is formed.
    def refuse(*args, **kwargs):
        raise AssertionError("Newton set-up over the trivial group")

    monkeypatch.setattr(chainring, "_group_ring_products", refuse)
    monkeypatch.setattr(chainring, "_product_matrix", refuse)
    rng = random.Random(7)
    div = np.zeros((1, 1), dtype=np.int64)
    units = [a for a in (ring.random_scalar(rng) for _ in range(40)) if ring.val(a) == 0]
    assert units
    for a in units:
        coords = ring.to_coeffs(a)
        x = np.array([coords[0]] if ring.is_simple else [coords], dtype=ring.dtype)
        y = _group_ring_inverse(x, div, ring)
        assert y.shape == x.shape and y.dtype == x.dtype
        assert tuple(y.ravel().tolist()) == ring.to_coeffs(ring.inv(a))
