"""Finitely presented left modules over the Iwasawa algebra O[[G]] and their
exact finite-level images.

A Presentation describes M = coker(Lambda^a -> Lambda^b), rows acting as
relations (the map sends x to x * matrix, coefficients multiplying entries on
the left).  Nothing is truncated at definition time; the pi-power truncation N
is chosen per computation.

The two computational primitives are

  * coinvariants_ordq: ord_q of (O/pi^N)[G/G_m] (x)_Lambda M, obtained by
    reducing every entry to the level-m group ring, expanding through the
    regular representation into an array of O-coordinates and diagonalizing
    it over O/pi^N (chainring);

  * koszul_homology_ordq: for the abelian presets, the exact q-order of
    H_i(G_m, M) as degree-i Koszul homology of (g_1^(p^m) - 1, ...,
    g_r^(p^m) - 1).  Since the homology is killed by (pi^N, all g_j^(p^m)-1)
    it is supported at the maximal ideal, so it is computed faithfully over
    the polynomial ring R[T_1, ..., T_r] (g_j = 1 + T_j) with strong Groebner
    bases; no working-depth truncation is involved and the answers are exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from .chainring import ChainRing, DiagonalForm, RingBase, diagonalize, ordq_from_form
from .errors import InvalidInput, NonAbelianUnsupported, SaturationWarning, TooLarge
from .groupring import (
    ABELIAN,
    GroupRingPoly,
    GroupSpec,
    group_level,
    poly_pi_pow,
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
# expanded coordinate array and the float64 working copy of the unit-block
# elimination together.
EXPANSION_BUDGET_BYTES = 2 ** 30


def _expanded_matrix(P: Presentation, m: int, N: int):
    """Reduce all entries at level m and expand through the right-regular
    representation into an (rels*L) x (gens*L) matrix over O/pi^N, held as
    an integer array of O-coordinates of shape (rels, L, gens*L, e*f) that
    keeps the block rows as an axis; relations that vanish at level m get no
    block row.

    Raises TooLarge, before allocating anything, when the expansion would
    exceed EXPANSION_BUDGET_BYTES."""
    ring = ChainRing.from_base(P.base, N)
    level = group_level(P.spec, m)
    L = level.order
    cells = P.rels * L * P.gens * L
    need = 8 * L * L + 8 * cells * (ring.e * ring.f + 1)
    if need > EXPANSION_BUDGET_BYTES:
        raise TooLarge(
            f"level m={m} expands to {L}x{L} group-ring blocks, about "
            f"{need / 2 ** 30:.1f} GiB of dense arrays (budget "
            f"{EXPANSION_BUDGET_BYTES / 2 ** 30:.0f} GiB); lower --levels"
        )
    # The nonzero coefficients of each relation at this level.  A relation
    # that vanishes here would give L zero rows, so it gets no block row.
    kept = []
    for row in P.matrix:
        terms = [
            (j, h, ring.to_coeffs(c))
            for j, entry in enumerate(row)
            if not entry.is_zero
            for h, c in enumerate(reduce_poly(entry, P.spec, m, ring))
            if not ring.is_zero(c)
        ]
        if terms:
            kept.append(terms)
    tab = level.table()
    A = np.zeros((len(kept), L, P.gens * L, ring.e * ring.f), dtype=ring.dtype)
    rows_idx = np.arange(L)
    for i, terms in enumerate(kept):
        for j, h, coeffs in terms:
            # Row k of the block is g_k * entry; every row of the table is a
            # permutation, so each cell is written once and stays canonical.
            A[i, rows_idx, j * L + tab[:, h]] = coeffs
    return ring, A, P.gens * L


def level_diagonal_form(P: Presentation, m: int, N: int) -> DiagonalForm:
    """Diagonal form of the level-m expansion over O/pi^N.  Exposed so that
    callers can base-change the result to every n <= N (ordq_from_form)."""
    ring, rows, ncols = _expanded_matrix(P, m, N)
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
            for k in range(e + 1):
                b = ring.from_int(comb(e, k))
                if ring.is_zero(b):
                    continue
                for mono, cc in monos.items():
                    m2 = list(mono)
                    m2[j] += k
                    m2 = tuple(m2)
                    val = ring.mul(cc, b)
                    cur = new.get(m2)
                    new[m2] = val if cur is None else ring.add(cur, val)
            monos = new
        for mono, cc in monos.items():
            cur = out.get(mono)
            tot = cc if cur is None else ring.add(cur, cc)
            if ring.is_zero(tot):
                out.pop(mono, None)
            else:
                out[mono] = tot
    return out


def _tower_operator(ring: ChainRing, r: int, j: int, m: int) -> Dict[Tuple[int, ...], object]:
    """(1 + T_j)^(p^m) - 1 as a polynomial over the chain ring."""
    pm = ring.p ** m
    out: Dict[Tuple[int, ...], object] = {}
    for k in range(1, pm + 1):
        c = ring.from_int(comb(pm, k))
        if ring.is_zero(c):
            continue
        mono = [0] * r
        mono[j] = k
        out[tuple(mono)] = c
    return out


def _embed(vec: Dict[Tuple[int, ...], object], pos: int) -> Element:
    return {(pos, mono): c for mono, c in vec.items()}


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
    exceed KOSZUL_BUDGET_CELLS.
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
    ts = [_tower_operator(ring, r, j, m) for j in range(r)]

    if i == 0:
        gens = list(U)
        for t in ts:
            for g in range(b):
                gens.append(_embed(t, g))
        return quotient_ordq(ctx, b, gens)

    subsets_i = list(combinations(range(r), i))
    subsets_lo = list(combinations(range(r), i - 1))
    lo_index = {J: t for t, J in enumerate(subsets_lo)}
    ci = len(subsets_i)
    clo = len(subsets_lo)

    def boundary(J: Tuple[int, ...], g: int, index: Dict[Tuple[int, ...], int]) -> Element:
        # d(e_J (x) e_g) = sum_l (-1)^l t_{J[l]} e_{J \ J[l]} (x) e_g, the
        # (|J|-1)-subsets placed in blocks by ``index``
        elem: Element = {}
        for l, j in enumerate(J):
            blk = index[J[:l] + J[l + 1 :]]
            for t, c in _embed(ts[j], blk * b + g).items():
                cc = ring.neg(c) if l % 2 else c
                cur = elem.get(t)
                new = cc if cur is None else ring.add(cur, cc)
                if ring.is_zero(new):
                    elem.pop(t, None)
                else:
                    elem[t] = new
        return elem

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
