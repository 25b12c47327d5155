"""Finitely presented left modules over the Iwasawa algebra O[[G]] and their
exact finite-level images.

A Presentation describes M = coker(Lambda^a -> Lambda^b), rows acting as
relations (the map sends x to x * matrix, coefficients multiplying entries on
the left).  Nothing is truncated at definition time; the pi-power truncation N
is chosen per computation.

The two computational primitives are

  * coinvariants_ordq: ord_q of (O/pi^N)[G/G_m] (x)_Lambda M, obtained by
    reducing every entry to the level-m group ring and diagonalizing the
    matrix over O/pi^N that it stands for through the regular representation
    (chainring.GroupRingMatrix);

  * koszul_homology_ordq: for the abelian presets, the exact q-order of
    H_i(G_m, M) as degree-i Koszul homology of (g_1^(p^m) - 1, ...,
    g_r^(p^m) - 1), computed with strong Groebner bases over the polynomial
    ring R[g_1, ..., g_r], R = O/pi^N, on the relation terms as they are.
    Over Lambda the homology is taken in the completion of that ring at the
    maximal ideal (pi, g_1 - 1, ..., g_r - 1); it is killed by pi^N and by
    every g_j^(p^m) - 1, and R[g]/(pi, g_j^(p^m) - 1) = F_q[g]/((g_j - 1)^(p^m))
    is local, so it is supported at that ideal alone and the polynomial ring
    computes it faithfully.  (R[g] = R[T] with T_j = g_j - 1 is only a change
    of coordinates, so nothing is expanded in T.)  No working-depth
    truncation is involved and the answers are exact.
    H_i is K_i / B_i, the cycles over the boundaries (both modulo the
    relations), read off two strong bases: K_i from degree i's one
    elimination and B_i from degree i + 1's, so the r + 1 degrees of an
    Euler sum share r + 1 Groebner calls.  The bases stay packed
    (syzygy.StrongBasis), and the order is counted from their leading
    terms alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from functools import cached_property, lru_cache
from math import comb, prod
from typing import Dict, Optional, Tuple

import numpy as np

from .chainring import ChainRing, DiagonalForm, GroupRingMatrix, RingBase, _kernel_dtype, diagonalize, ordq_from_form
from .errors import InvalidInput, NonAbelianUnsupported, SaturationWarning, TooLarge
from .groupring import (
    ABELIAN,
    GroupRingPoly,
    GroupSpec,
    _chain_bytes,
    group_level,
    poly_pi_pow,
    quotient_order,
    reduce_poly,
)
from .syzygy import Element, PolyContext, StrongBasis, preimage_gens, quotient_ordq


@dataclass(frozen=True)
class Presentation:
    """A finitely presented left O[[G]]-module M = coker(Lambda^rels -> Lambda^gens).

    ``pi_quotient`` marks presentations produced by quotient_pi: it records an
    n with pi^n * M = 0, which certifies exactness of truncated computations.
    """

    spec: GroupSpec
    base: RingBase
    gens: int
    rels: int
    matrix: Tuple[Tuple[GroupRingPoly, ...], ...]
    pi_quotient: Optional[int] = None

    def __post_init__(self):
        if self.base.p != self.spec.p:
            raise InvalidInput("coefficient prime and group prime disagree")
        if self.gens < 0 or self.rels < 0:
            raise InvalidInput("negative dimensions")
        if len(self.matrix) != self.rels:
            raise InvalidInput("relation count disagrees with the matrix")
        width = self.base.e * self.base.f
        for row in self.matrix:
            if len(row) != self.gens:
                raise InvalidInput("generator count disagrees with the matrix")
            for entry in row:
                for coeffs, exps in entry.terms:
                    if len(coeffs) != width:
                        raise InvalidInput("coefficient vector width mismatch")
                    if len(exps) != self.spec.r:
                        raise InvalidInput("exponent arity disagrees with the group")
                    if min(exps, default=0) < 0:
                        raise InvalidInput("negative generator exponents are not allowed")

    # The Koszul caches hash P on every lookup, so the matrix is walked on
    # the first hash only (and not at construction: most presentations are
    # never hashed).
    @cached_property
    def _hash(self) -> int:
        return hash((self.spec, self.base, self.gens, self.rels, self.matrix, self.pi_quotient))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # a str hash (spec.kind) differs between processes, so a kept hash
        # does not travel
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def presentation(spec: GroupSpec, base: RingBase, gens: int, rows) -> Presentation:
    rows = tuple(tuple(row) for row in rows)
    return Presentation(spec, base, gens, len(rows), rows)


def quotient_pi(P: Presentation, n: int) -> Presentation:
    """Presentation of M/pi^n: appends the relations pi^n e_j."""
    if n < 1:
        raise InvalidInput("need n >= 1")
    r = P.spec.r
    extra = []
    for j in range(P.gens):
        row = [GroupRingPoly(())] * P.gens
        row[j] = poly_pi_pow(P.base, n, r)
        extra.append(tuple(row))
    marker = n if P.pi_quotient is None else min(n, P.pi_quotient)
    return Presentation(
        P.spec, P.base, P.gens, P.rels + P.gens, P.matrix + tuple(extra), marker
    )


# Largest dense expansion a level may build: the L x L int64 division table
# of G/G_m (built in that one allocation, 8 L^2 bytes); the stages of one
# descent of a level with rows (_chain_bytes; stages that earlier descents
# left on a kept level are bounded by groupring.LEVEL_CACHE_BYTES); for every cell of the
# expanded matrix, four arrays of its k = e*f coordinates and 16 bytes more
# (the expansion, which is the last descent stage's restriction to the
# trivial group and which the pass over it eliminates in place; its copy
# when that pass casts it to int64 from a Python-int level; the
# temporaries of the unit test and Schur update; and the compact residual
# the expansion is gathered from: a measured peak of 2.9 to 3.7 times
# 8 k bytes a cell with 8-byte coordinates), a coordinate counted at its
# width in the level's dtype (check_expansion_budget); and the k x k x k
# structure tensor of O that the elimination multiplies through, held with
# its reduced copy and its copy in that dtype (a measured peak of
# 3 * 8 k^3 bytes with 8-byte coordinates).  The unit pass and its tower
# work on the compact (rels, gens, L, k) array, L times smaller than the
# expansion, and each level below the top one works on a projection of
# the top level's residual, never larger than it, before the top level's
# own descent.
EXPANSION_BUDGET_BYTES = 2 ** 30


def check_expansion_budget(spec: GroupSpec, base: RingBase, rels: int, gens: int, m: int, N: int) -> None:
    """Raises TooLarge when the level-m expansion of a rels x gens relation
    matrix over O/pi^N would exceed EXPANSION_BUDGET_BYTES.  Works from the
    shape and (p, e, f, N) alone, so it builds no ring and no large integer."""
    if spec.r * m * math.log2(spec.p) > 32:  # L > 2^32: the division table alone is too large
        raise TooLarge(f"level m={m} has {spec.p}^{spec.r * m} elements; lower --levels")
    L = quotient_order(spec, m)
    M, k = -(-N // base.e), base.e * base.f
    bits = M * math.log2(base.p)
    # Bytes a coordinate takes: 8 in int64, and in an object array
    # (ChainRing.dtype) a pointer plus a CPython int of about M log2 p bits in
    # 30-bit digits.  p^M is formed only when it is small.
    width = 8 if bits < 64 and _kernel_dtype(base.p ** M, k) is np.int64 else 32 + 4 * math.ceil(bits / 30)
    chain = _chain_bytes(spec.p, L) if L > 1 and rels else 0
    need = 8 * L * L + chain + rels * L * gens * L * (4 * k * width + 16) + 24 * k ** 3
    if need > EXPANSION_BUDGET_BYTES:
        raise TooLarge(
            f"level m={m} expands to {L}x{L} group-ring blocks over O/pi^{N} of rank "
            f"{k} ({width} bytes a coordinate), about {need / 2 ** 30:.1f} GiB of dense "
            f"arrays (budget {EXPANSION_BUDGET_BYTES / 2 ** 30:.0f} GiB); lower --levels or e*f"
            + ("" if width == 8 else ", or --n-max")
        )


def _level_matrix(P: Presentation, m: int, N: int) -> Tuple[ChainRing, GroupRingMatrix, int]:
    """(O/pi^N, the relation matrix reduced to level m as a GroupRingMatrix
    without the relations that vanish there, its expanded column count).
    Raises TooLarge, before allocating anything, when the expansion would
    exceed EXPANSION_BUDGET_BYTES."""
    check_expansion_budget(P.spec, P.base, P.rels, P.gens, m, N)
    ring = ChainRing.from_base(P.base, N)
    level = group_level(P.spec, m)
    entries = [entry for row in P.matrix for entry in row]
    R = reduce_poly(entries, P.spec, m, ring).reshape(P.rels, P.gens, level.order, ring.e * ring.f)
    # A relation that vanishes at this level would stand for L zero rows.
    R = R[R.any(axis=(1, 2, 3))]
    return ring, GroupRingMatrix(R, level), P.gens * level.order


def level_diagonal_form(P: Presentation, m: int, N: int) -> DiagonalForm:
    """Diagonal form of the level-m expansion over O/pi^N, with the forms of
    the levels below m in its ``below`` (chainring.diagonalize).  Exposed
    so that callers can base-change the results to every n <= N
    (ordq_from_form)."""
    ring, rows, ncols = _level_matrix(P, m, N)
    return diagonalize(ring, rows, ncols)


def coinvariants_ordq(P: Presentation, m: int, N: int) -> int:
    """ord_q of (O/pi^N)[G/G_m] (x)_Lambda M.

    Equals ord_q(M_{G_m}) exactly when pi^N M = 0 (the caller's
    responsibility; in the invariant pipelines P is always an explicit
    pi^n-quotient with n <= N).  A free target coordinate saturates at N; if
    that happens without an explicit pi^n-quotient certificate (n <= N), a
    SaturationWarning signals possible truncation loss.
    """
    form = level_diagonal_form(P, m, N)
    if form.free_cols > 0 and not (P.pi_quotient is not None and P.pi_quotient <= N):
        warnings.warn(
            SaturationWarning(
                f"diagonal saturated at N={N} for an uncertified presentation"
            )
        )
    return ordq_from_form(form, N)


# ---------------------------------------------------------------------------
# Koszul homology for the abelian presets.


# An Euler sum asks for r + 1 degrees of one (P, N, m) in a row, so a few
# entries serve it.
@lru_cache(maxsize=8)
def _koszul_module(P: Presentation, N: int, m: int) -> Tuple[Tuple[Element, ...], Tuple[Dict[Tuple[int, ...], object], ...]]:
    """(U, ts) over O/pi^N: the nonzero relation rows of P as elements of
    S^b, each term c g^e of an entry kept as it is, and the tower operators
    g_j^(p^m) - 1 in R[g_1..g_r], none with a zero coefficient.  Cached, so
    the elements are shared between calls and never mutated.  Raises
    TooLarge, before building any element, when the relation terms span more
    than KOSZUL_BUDGET_CELLS monomials below their exponents; a raise is not
    cached, so every call for P refuses."""
    # Reducing a term c g^e may walk every monomial below it, prod_j (e_j + 1)
    # of them, so this bounds the reduction work that high exponents cost.
    terms = sum(prod(e + 1 for e in exps) for row in P.matrix for entry in row for _, exps in entry.terms)
    if terms > KOSZUL_BUDGET_CELLS:
        raise TooLarge(
            f"the relation terms span {terms} monomials below their exponents, which "
            f"bounds their reduction work (budget {KOSZUL_BUDGET_CELLS}); lower the generator exponents"
        )
    ring = ChainRing.from_base(P.base, N)
    r = P.spec.r
    U = []
    for row in P.matrix:
        # _norm_terms made the exponents of an entry unique: nothing to merge
        elem: Element = {}
        for j, entry in enumerate(row):
            for coeffs, exps in entry.terms:
                c = ring.from_coeffs(coeffs)
                if not ring.is_zero(c):
                    elem[(j, exps)] = c
        if elem:
            U.append(elem)
    pm, minus_one = P.spec.p ** m, ring.neg(ring.one)
    ts = tuple({tuple(pm if t == j else 0 for t in range(r)): ring.one, (0,) * r: minus_one} for j in range(r))
    return tuple(U), ts


def _shift_block(elem: Element, offset: int) -> Element:
    return {(pos + offset, mono): c for (pos, mono), c in elem.items()}


def _boundary(
    ts: Tuple[Dict[Tuple[int, ...], object], ...],
    ring: ChainRing,
    J: Tuple[int, ...],
    g: int,
    b: int,
    index: Dict[Tuple[int, ...], int],
) -> Element:
    """d(e_J (x) e_g) = sum_l (-1)^l t_{J[l]} e_{J \\ J[l]} (x) e_g, the
    (|J|-1)-subsets placed in blocks of b positions by ``index``.  The l-th
    terms land in a block of their own, so no two terms meet."""
    return {
        (index[J[:l] + J[l + 1 :]] * b + g, mono): ring.neg(c) if l % 2 else c
        for l, j in enumerate(J)
        for mono, c in ts[j].items()
    }


# An Euler sum needs E_1, ..., E_(r+1) of one (P, N, m), and each E_i
# serves degrees i - 1 and i, so a few entries serve it.
@lru_cache(maxsize=8)
def _elimination(P: Presentation, N: int, m: int, i: int) -> Tuple[StrongBasis, StrongBasis]:
    """E_i for 1 <= i <= r + 1: (strong basis of K_i, strong basis of
    B_(i-1)) over O/pi^N, the two halves of one strong basis of the graph
    of the Koszul boundary d_i: C_i -> C_(i-1) with the relation blocks
    U_(i-1) of C_(i-1), the target block eliminated (syzygy.preimage_gens),
    both still packed.  Here C_i = Lambda^b (x) ext^i has a block of b
    positions for each i-subset of the generators (in combinations order),
    U_i is U copied into each block of C_i, K_i = {v in C_i : d_i v in
    U_(i-1)} and B_(i-1) = d_i C_i + U_(i-1).  E_(r+1) has no source
    (C_(r+1) = 0): its image is a strong basis of U_r.  Cached, so the
    bases are shared by the two degrees that read their leads and never
    mutated."""
    r, b = P.spec.r, P.gens
    U, ts = _koszul_module(P, N, m)
    ring = ChainRing.from_base(P.base, N)
    lo = {J: t for t, J in enumerate(combinations(range(r), i - 1))}
    mapped = [_boundary(ts, ring, J, g, b, lo) for J in combinations(range(r), i) for g in range(b)]
    sub = [_shift_block(u, blk * b) for blk in range(len(lo)) for u in U]
    return preimage_gens(PolyContext(ring, r), len(lo) * b, mapped, sub)


# Largest Koszul chain module koszul_homology_ordq may take: p^(r m) * b *
# C(r, i), the rank over O/pi^N of the degree-i chains of the free cover
# Lambda^b at level m.  The Groebner bases grow with it.  The largest
# tested case has 162 (abelian(3,2), m = 2, b = 1, i = 1).
KOSZUL_BUDGET_CELLS = 2 ** 20


def koszul_homology_ordq(P: Presentation, m: int, i: int, N: int) -> int:
    """ord_q(H_i(G_m, M)) for pi-power-torsion M of exponent <= N.

    Degree 0 equals coinvariants_ordq; higher degrees require an abelian
    preset (Koszul complex on the commuting operators t_j = g_j^(p^m) - 1
    of R[g_1..g_r]).
    With M = Lambda^b / U, H_i = K_i / B_i, where K_i, the cycles modulo
    U, comes from degree i's elimination E_i (K_0 = C_0) and B_i =
    d C_(i+1) + U_i from degree i + 1's, E_(i+1) (_elimination).  The order
    is read off the leads of the two strong bases by quotient_ordq (finite,
    as every t_j maps K_i into B_i), so an Euler sum makes r + 1
    strong_groebner calls and decodes no basis element.

    Raises TooLarge, before any Groebner work, when a chain module that
    degree i reads (degrees i - 1, i and i + 1) exceeds
    KOSZUL_BUDGET_CELLS, or when the relation terms span more than that many
    monomials below their exponents (_koszul_module).  The check starts
    from r m log2 p, so a huge m is refused without forming p^(r m).
    """
    spec = P.spec
    if i < 0 or i > spec.r:
        raise InvalidInput(f"Koszul degree {i} outside [0, {spec.r}]")
    if m < 0:
        raise InvalidInput("level m must be >= 0")
    if spec.kind != ABELIAN:
        if i == 0:
            return coinvariants_ordq(P, m, N)
        raise NonAbelianUnsupported(
            "higher Koszul homology is only defined here for abelian presets"
        )
    b, r = P.gens, spec.r
    if b == 0:
        return 0
    if r * m * math.log2(spec.p) > math.log2(KOSZUL_BUDGET_CELLS):
        raise TooLarge(
            f"Koszul degree {i} at level m={m} reads chains of {spec.p}^{r * m} coordinates "
            f"per generator (budget {KOSZUL_BUDGET_CELLS}); lower m"
        )
    k = max(range(max(i - 1, 0), min(i + 1, r) + 1), key=lambda d: comb(r, d))
    cells = spec.p ** (r * m) * b * comb(r, k)
    if cells > KOSZUL_BUDGET_CELLS:
        raise TooLarge(
            f"Koszul degree {i} at level m={m} reads the degree-{k} chains, {cells} "
            f"coordinates (p^(r m) b C(r, {k}); budget {KOSZUL_BUDGET_CELLS}); lower m"
        )
    over = None  # K_0 = C_0
    if i:
        K = _elimination(P, N, m, i)[0]
        if not K:
            return 0
        over = K.leads
    B = _elimination(P, N, m, i + 1)[1]
    ctx = PolyContext(ChainRing.from_base(P.base, N), r)
    return quotient_ordq(ctx, b * comb(r, i), B.leads, over)
