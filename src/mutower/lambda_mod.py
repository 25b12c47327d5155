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
    g_r^(p^m) - 1).  Since the homology is killed by (pi^N, all g_j^(p^m)-1)
    it is supported at the maximal ideal, so it is computed faithfully over
    the polynomial ring R[T_1, ..., T_r] (g_j = 1 + T_j) with strong Groebner
    bases; no working-depth truncation is involved and the answers are exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from functools import lru_cache
from math import comb, prod
from typing import Dict, List, Optional, Tuple

import numpy as np

from .chainring import ChainRing, DiagonalForm, GroupRingMatrix, RingBase, _kernel_dtype, diagonalize, ordq_from_form
from .errors import InvalidInput, NonAbelianUnsupported, SaturationWarning, TooLarge
from .groupring import (
    ABELIAN,
    GroupRingPoly,
    GroupSpec,
    group_level,
    poly_gen,
    poly_int,
    poly_pi_pow,
    poly_sub,
    quotient_order,
    reduce_poly,
)
from .syzygy import Element, PolyContext, preimage_gens, quotient_ordq


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


def presentation(spec: GroupSpec, base: RingBase, gens: int, rows) -> Presentation:
    rows = tuple(tuple(row) for row in rows)
    return Presentation(spec, base, gens, len(rows), rows)


@dataclass(frozen=True)
class LevelOrders:
    """The map m -> ord_q((M/pi^n)_{G_m}) for one pi-power n."""

    n: int
    orders: Dict[int, int]
    truncation: int

    def __post_init__(self):
        if self.truncation < self.n:
            raise InvalidInput("ring truncation below the pi-power")


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


# Largest dense expansion a level may build: the L x L group table, the
# expanded coordinate array with 8 more bytes a cell (the int64 copy the
# per-pivot elimination reduces it into over Z_p; the float64 copy of the
# unit-block pass is compact, L times smaller), and the k x k x k structure
# tensor of O (k = e*f) that the elimination multiplies through, held with
# its reduced and int64 copies (a measured peak of 3 * 8 k^3 bytes).
EXPANSION_BUDGET_BYTES = 2 ** 30


def check_expansion_budget(spec: GroupSpec, base: RingBase, rels: int, gens: int, m: int, N: int) -> None:
    """Raises TooLarge when the level-m expansion of a rels x gens relation
    matrix over O/pi^N would exceed EXPANSION_BUDGET_BYTES.  Works from the
    shape and (p, e, f, N) alone, so it builds no ring and no large integer."""
    if spec.r * m * math.log2(spec.p) > 32:  # L > 2^32: the group table alone is too large
        raise TooLarge(f"level m={m} has {spec.p}^{spec.r * m} elements; lower --levels")
    L = quotient_order(spec, m)
    M, k = -(-N // base.e), base.e * base.f
    bits = M * math.log2(base.p)
    # Bytes a coordinate takes: 8 in int64, and in an object array
    # (ChainRing.dtype) a pointer plus a CPython int of about M log2 p bits in
    # 30-bit digits.  p^M is formed only when it is small.
    width = 8 if bits < 64 and _kernel_dtype(base.p ** M, k) is np.int64 else 32 + 4 * math.ceil(bits / 30)
    need = 8 * L * L + rels * L * gens * L * (k * width + 8) + 24 * k ** 3
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
    tab = group_level(P.spec, m).table()
    entries = [entry for row in P.matrix for entry in row]
    R = reduce_poly(entries, P.spec, m, ring).reshape(P.rels, P.gens, len(tab), ring.e * ring.f)
    # A relation that vanishes at this level would stand for L zero rows.
    # Row g of the division table inverts row g of the multiplication table.
    return ring, GroupRingMatrix(R[R.any(axis=(1, 2, 3))], np.argsort(tab, axis=1)), P.gens * len(tab)


def level_diagonal_form(P: Presentation, m: int, N: int) -> DiagonalForm:
    """Diagonal form of the level-m expansion over O/pi^N.  Exposed so that
    callers can base-change the result to every n <= N (ordq_from_form)."""
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


# Rows stay cached, so the cache is kept small: a row has at most
# KOSZUL_BUDGET_CELLS + 1 entries (the budgets are checked before any
# expansion), and the seed-0 koszul draw uses about 50 rows.
@lru_cache(maxsize=64)
def _binomial_row(p: int, M: int, e: int) -> Tuple[int, ...]:
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


def _entry_to_spoly(entry: GroupRingPoly, ring: ChainRing, r: int) -> Dict[Tuple[int, ...], object]:
    """Image of an abelian group-ring polynomial in R[T_1..T_r], g_j = 1 + T_j."""
    out: Dict[Tuple[int, ...], object] = {}
    for coeffs, exps in entry.terms:
        c = ring.from_coeffs(coeffs)
        monos = {(0,) * r: c}
        for j, e in enumerate(exps):
            if e == 0:
                continue
            new: Dict[Tuple[int, ...], object] = {}
            for k, b in enumerate(_binomial_row(ring.p, ring.M, e)):
                if b:
                    b = ring.from_int(b)
                    for mono, cc in monos.items():
                        new[mono[:j] + (k,) + mono[j + 1 :]] = ring.mul(cc, b)
            monos = new
        for mono, cc in monos.items():
            cur = out.get(mono)
            tot = cc if cur is None else ring.add(cur, cc)
            if ring.is_zero(tot):
                out.pop(mono, None)
            else:
                out[mono] = tot
    return out


def _shift_block(elem: Element, offset: int) -> Element:
    return {(pos + offset, mono): c for (pos, mono), c in elem.items()}


# Largest Koszul chain module koszul_homology_ordq may take: p^(r m) * b *
# C(r, i), the rank over O/pi^N of the degree-i chains of the free cover
# Lambda^b at level m.  The staircase count of quotient_ordq walks up to that
# many cells, and the Groebner bases grow with it.  The largest tested case
# has 162 (abelian(3,2), m = 2, b = 1, i = 1).
KOSZUL_BUDGET_CELLS = 2 ** 20


def koszul_homology_ordq(P: Presentation, m: int, i: int, N: int) -> int:
    """ord_q(H_i(G_m, M)) for pi-power-torsion M of exponent <= N.

    Degree 0 equals coinvariants_ordq; higher degrees require an abelian
    preset (Koszul complex on the commuting operators g_j^(p^m) - 1).
    Raises TooLarge, before any Groebner work, when the degree-i chains
    exceed KOSZUL_BUDGET_CELLS, and before expanding any entry when the
    relation matrix would expand to more than that many monomials in T.
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
    ring = ChainRing.from_base(P.base, N)
    ctx = PolyContext(ring, spec.r)
    b = P.gens
    r = spec.r
    if b == 0:
        return 0
    cells = spec.p ** (r * m) * b * comb(r, i)
    if cells > KOSZUL_BUDGET_CELLS:
        raise TooLarge(
            f"Koszul degree {i} at level m={m} has {cells} chain coordinates "
            f"(p^(r m) b C(r, i); budget {KOSZUL_BUDGET_CELLS}); lower m"
        )
    # a term c g^e expands to prod_j (e_j + 1) monomials in T
    terms = sum(prod(e + 1 for e in exps) for row in P.matrix for entry in row for _, exps in entry.terms)
    if terms > KOSZUL_BUDGET_CELLS:
        raise TooLarge(
            f"the relation matrix expands to {terms} monomials in T_j = g_j - 1 "
            f"(budget {KOSZUL_BUDGET_CELLS}); lower the generator exponents"
        )
    # relation rows as elements of S^b
    U: List[Element] = []
    for row in P.matrix:
        elem: Element = {}
        for j, entry in enumerate(row):
            if entry.is_zero:
                continue
            for mono, c in _entry_to_spoly(entry, ring, r).items():
                elem[(j, mono)] = c
        if elem:
            U.append(elem)
    # the tower operators g_j^(p^m) - 1, none with a zero coefficient
    one = poly_int(P.base, 1, r)
    ts = [_entry_to_spoly(poly_sub(poly_gen(P.base, j, r, power=spec.p ** m), one), ring, r) for j in range(1, r + 1)]

    if i == 0:
        return quotient_ordq(ctx, b, U + [{(g, mono): c for mono, c in t.items()} for t in ts for g in range(b)])

    subsets_i = list(combinations(range(r), i))
    subsets_lo = list(combinations(range(r), i - 1))
    lo_index = {J: t for t, J in enumerate(subsets_lo)}
    ci = len(subsets_i)
    clo = len(subsets_lo)

    def boundary(J: Tuple[int, ...], g: int, index: Dict[Tuple[int, ...], int]) -> Element:
        # d(e_J (x) e_g) = sum_l (-1)^l t_{J[l]} e_{J \ J[l]} (x) e_g, the
        # (|J|-1)-subsets placed in blocks by ``index``.  The l-th terms land
        # in a block of their own, so no two terms meet.
        return {
            (index[J[:l] + J[l + 1 :]] * b + g, mono): ring.neg(c) if l % 2 else c
            for l, j in enumerate(J)
            for mono, c in ts[j].items()
        }

    mapped = [boundary(J, g, lo_index) for J in subsets_i for g in range(b)]
    sub_lo = [_shift_block(u, blk * b) for blk in range(clo) for u in U]
    K = preimage_gens(ctx, clo * b, mapped, sub_lo)
    if not K:
        return 0

    D: List[Element] = []
    if i < r:
        i_index = {J: t for t, J in enumerate(subsets_i)}
        for J in combinations(range(r), i + 1):
            for g in range(b):
                elem = boundary(J, g, i_index)
                if elem:
                    D.append(elem)
    D.extend(_shift_block(u, blk * b) for blk in range(ci) for u in U)

    rels = preimage_gens(ctx, ci * b, K, D)
    return quotient_ordq(ctx, len(K), rels)
