"""Ground-truth module generators and independent brute-force oracles.

make_module builds a block-diagonal presentation of

    Lambda^a  (+)  (+)_i Lambda/pi^(alpha_i)  (+)  garnish,

where each garnish summand is the pseudo-null quotient Lambda/(pi, g_j - 1)
(valid for r >= 2), and then obfuscates it with seed-driven elementary moves
that preserve the isomorphism class: adding a left multiple of one relation
to another, adding a right multiple of one generator column to another,
scaling rows/columns by units, swapping, and splitting off a new generator
with a unit relation.  Non-unit scalings are never applied; the move log is
emitted at DEBUG level.

brute_force_ordq counts a cokernel by enumerating the full row span; it is
the independent oracle for the chain-ring diagonalization.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .chainring import ChainRing, RingBase
from .errors import InvalidGarnish, InvalidInput, TooLarge
from .groupring import GroupRingPoly, GroupSpec, poly_add, poly_gen, poly_int, poly_mul, poly_pi_pow, poly_sub
from .invariants import ElementaryRep
from .lambda_mod import Presentation

logger = logging.getLogger(__name__)

ENUMERATION_BOUND = 2 ** 24


@dataclass(frozen=True)
class Garnish:
    """Quotient by the left ideal (pi, g_j - 1): a pseudo-null pi-primary
    summand whenever the group has dimension >= 2."""

    gen_index: int = 1


@dataclass(frozen=True)
class GroundTruth:
    """Generating data with a closed-form expected elementary representation."""

    free_rank: int
    alphas: Tuple[int, ...]
    garnish: Tuple[Garnish, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.free_rank < 0 or any(a < 1 for a in self.alphas):
            raise InvalidInput("free rank must be >= 0 and every alpha >= 1")

    def expected_rep(self) -> ElementaryRep:
        theta = max(self.alphas, default=0)
        mults = [0] * theta
        for a in self.alphas:
            mults[a - 1] += 1
        return ElementaryRep.from_data(self.free_rank, mults)


def _rand_coeff(rng: random.Random) -> int:
    return rng.choice([1, -1, 2, -2, 3])


def _rand_poly(rng: random.Random, spec: GroupSpec, base: RingBase) -> GroupRingPoly:
    """A small random group-ring polynomial (not necessarily a unit)."""
    r = spec.r
    out = poly_int(base, 0, r)
    for _ in range(rng.randrange(1, 3)):
        term = poly_gen(base, rng.randrange(1, r + 1), r, power=rng.randrange(3), coeff=_rand_coeff(rng))
        out = poly_add(out, term)
    return out


def _rand_unit(rng: random.Random, spec: GroupSpec, base: RingBase) -> GroupRingPoly:
    """A random unit of Lambda: unit scalar times a group element, plus
    optional terms inside the maximal ideal (pi, augmentation ideal)."""
    r = spec.r
    c0 = rng.randrange(1, spec.p)
    u = poly_gen(base, rng.randrange(1, r + 1), r, power=rng.randrange(3), coeff=c0)
    if rng.random() < 0.5:
        # pi * (small poly)
        w = _rand_poly(rng, spec, base)
        u = poly_add(u, poly_mul(spec, base, poly_pi_pow(base, 1, r), w))
    if rng.random() < 0.5:
        # c * (g^e - g^e'): augmentation zero
        j = rng.randrange(1, r + 1)
        e1, e2 = rng.randrange(3), rng.randrange(3)
        c = _rand_coeff(rng)
        u = poly_add(
            u,
            poly_sub(
                poly_gen(base, j, r, power=e1, coeff=c),
                poly_gen(base, j, r, power=e2, coeff=c),
            ),
        )
    return u


def _apply_moves(
    rows: List[List[GroupRingPoly]],
    gens: int,
    spec: GroupSpec,
    base: RingBase,
    rng: random.Random,
    extra_gens: int,
) -> Tuple[List[List[GroupRingPoly]], int]:
    zero = GroupRingPoly(())

    def row_add(i, k, f):
        rows[i] = [poly_add(rows[i][j], poly_mul(spec, base, f, rows[k][j])) for j in range(gens)]
        logger.debug("move row_add r%d += f*r%d", i, k)

    def col_add(j, k, f):
        for row in rows:
            row[j] = poly_add(row[j], poly_mul(spec, base, row[k], f))
        logger.debug("move col_add c%d += c%d*f", j, k)

    def row_scale(i, u):
        rows[i] = [poly_mul(spec, base, u, x) for x in rows[i]]
        logger.debug("move row_scale r%d *= unit", i)

    def col_scale(j, u):
        for row in rows:
            row[j] = poly_mul(spec, base, row[j], u)
        logger.debug("move col_scale c%d *= unit", j)

    def swap_rows(i, k):
        rows[i], rows[k] = rows[k], rows[i]
        logger.debug("move swap_rows r%d r%d", i, k)

    def swap_cols(j, k):
        for row in rows:
            row[j], row[k] = row[k], row[j]
        logger.debug("move swap_cols c%d c%d", j, k)

    for _ in range(extra_gens):
        for row in rows:
            row.append(zero)
        new_row = [zero] * (gens + 1)
        for j in rng.sample(range(gens), k=min(gens, rng.randrange(1, 3))) if gens else []:
            new_row[j] = _rand_poly(rng, spec, base)
        new_row[gens] = _rand_unit(rng, spec, base)
        rows.append(new_row)
        gens += 1
        logger.debug("move split_generator -> g%d", gens)

    n_moves = 6 + rng.randrange(7)
    for _ in range(n_moves):
        kind = rng.randrange(6)
        if kind == 0 and len(rows) >= 2:
            i, k = rng.sample(range(len(rows)), 2)
            row_add(i, k, _rand_poly(rng, spec, base))
        elif kind == 1 and gens >= 2:
            j, k = rng.sample(range(gens), 2)
            col_add(j, k, _rand_poly(rng, spec, base))
        elif kind == 2 and rows:
            row_scale(rng.randrange(len(rows)), _rand_unit(rng, spec, base))
        elif kind == 3 and gens:
            col_scale(rng.randrange(gens), _rand_unit(rng, spec, base))
        elif kind == 4 and len(rows) >= 2:
            swap_rows(*rng.sample(range(len(rows)), 2))
        elif kind == 5 and gens >= 2:
            swap_cols(*rng.sample(range(gens), 2))
    return rows, gens


def make_module(
    gt: GroundTruth,
    spec: GroupSpec,
    base: Optional[RingBase] = None,
    obfuscate: bool = True,
) -> Presentation:
    """Presentation of Lambda^a (+) (+) Lambda/pi^alpha_i (+) garnish,
    obfuscated by seed-driven isomorphism-preserving moves."""
    base = base or RingBase(spec.p, 1, 1)
    if base.p != spec.p:
        raise InvalidInput("ring and group primes disagree")
    for g in gt.garnish:
        if spec.r < 2:
            raise InvalidGarnish("(pi, g-1) garnish needs a group of dimension >= 2")
        if not 1 <= g.gen_index <= spec.r:
            raise InvalidGarnish(f"garnish generator index {g.gen_index} out of range")

    r = spec.r
    zero = GroupRingPoly(())
    gens = len(gt.alphas) + len(gt.garnish) + gt.free_rank
    rows: List[List[GroupRingPoly]] = []
    col = 0
    for a in gt.alphas:
        row = [zero] * gens
        row[col] = poly_pi_pow(base, a, r)
        rows.append(row)
        col += 1
    for g in gt.garnish:
        row = [zero] * gens
        row[col] = poly_pi_pow(base, 1, r)
        rows.append(row)
        row = [zero] * gens
        row[col] = poly_sub(poly_gen(base, g.gen_index, r), poly_int(base, 1, r))
        rows.append(row)
        col += 1
    # free generators receive no relations

    if obfuscate:
        rng = random.Random(gt.seed)
        extra = rng.randrange(0, 2) + (1 if gens else 0)
        rows, gens = _apply_moves(rows, gens, spec, base, rng, extra)
    return Presentation(spec, base, gens, len(rows), tuple(tuple(rw) for rw in rows))


def corrupt_presentation(P: Presentation, seed: int = 0) -> Presentation:
    """Negative control: scale one relation by a non-unit (pi), which changes
    the isomorphism class.  Requires at least one relation."""
    if P.rels == 0:
        raise InvalidInput("cannot corrupt a presentation without relations")
    rng = random.Random(seed)
    i = rng.randrange(P.rels)
    pi = poly_pi_pow(P.base, 1, P.spec.r)
    rows = [list(row) for row in P.matrix]
    rows[i] = [poly_mul(P.spec, P.base, pi, x) for x in rows[i]]
    logger.debug("corruption: row_scale r%d *= pi (non-unit)", i)
    return Presentation(P.spec, P.base, P.gens, P.rels, tuple(tuple(rw) for rw in rows))


def brute_force_ordq(ring: ChainRing, rows: Sequence[Sequence], ncols: Optional[int] = None) -> int:
    """ord_q of the cokernel by exhaustive row-span enumeration.

    Enumerates all |ring|^rows coefficient vectors; the span is an O-submodule
    so its size is a q-power and ord_q(coker) = N*cols - log_q |span|.
    """
    rows = [list(r) for r in rows]
    if ncols is None:
        if not rows:
            raise InvalidInput("ncols is required for a matrix with no rows")
        ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise InvalidInput("ragged matrix")
        for x in r:
            ring.check_scalar(x)
    if ring.size ** ncols > ENUMERATION_BOUND or ring.size ** len(rows) > ENUMERATION_BOUND:
        raise TooLarge("enumeration bound exceeded")
    if ncols == 0:
        return 0
    span = set()
    elems = list(ring.elements())
    for coeffs in itertools.product(elems, repeat=len(rows)):
        vec = [ring.zero] * ncols
        for c, row in zip(coeffs, rows):
            if ring.is_zero(c):
                continue
            for j in range(ncols):
                vec[j] = ring.add(vec[j], ring.mul(c, row[j]))
        span.add(tuple(vec))
    size = len(span)
    k = 0
    while ring.q ** k < size:
        k += 1
    if ring.q ** k != size:
        raise InvalidInput("row span size is not a q-power; mixed-ring entries?")
    return ring.N * ncols - k


def alpha_multisets(values: Iterable[int], max_size: int) -> List[Tuple[int, ...]]:
    """All multisets (as sorted tuples) over ``values`` of size <= max_size."""
    values = sorted(set(values))
    out: List[Tuple[int, ...]] = []
    for size in range(max_size + 1):
        out.extend(itertools.combinations_with_replacement(values, size))
    return out
