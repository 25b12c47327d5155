"""Uniform pro-p group presets, their lower p-series quotients, and group-ring
polynomials with exact O-coefficients.

Two preset families are shipped:

  * abelian:    G = Z_p^r, generators g_1, ..., g_r;
  * metacyclic: G = <a, b | b a b^-1 = a^(1+p)> (pro-p completion), p >= 3,
                uniform of dimension 2, generators ordered (a, b).

The level-m quotient G/G_m (G_m the (m+1)-st lower p-series subgroup, equal to
G^(p^m) for uniform G) has order p^(rm); its elements are enumerated as
exponent tuples in lexicographic order, every group element having the unique
normal form g_1^e_1 ... g_r^e_r (a^e_1 b^e_2 for the metacyclic preset) with
0 <= e_i < p^m.

A group-ring polynomial is a finite sum of terms (coefficient, exponents)
where the coefficient is an exact integer vector of length e*f interpreted in
O (see chainring.RingBase); truncation into a chain ring happens only at
reduction time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence, Tuple

import numpy as np

from .chainring import ChainRing, RingBase, _is_prime
from .errors import InvalidInput

ABELIAN = "abelian"
METACYCLIC = "metacyclic"


@dataclass(frozen=True)
class GroupSpec:
    """A uniform pro-p group preset of dimension r."""

    kind: str
    p: int
    r: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise InvalidInput(f"p = {self.p} is not prime")
        if self.kind == ABELIAN:
            if self.r < 1:
                raise InvalidInput("abelian preset needs r >= 1")
        elif self.kind == METACYCLIC:
            if self.r != 2:
                raise InvalidInput("metacyclic preset has dimension 2")
            if self.p < 3:
                # Uniformity at p = 2 would need G/closure(G^4) abelian; the
                # corresponding 1+4 preset is not shipped.
                raise InvalidInput("metacyclic preset requires p >= 3")
        else:
            raise InvalidInput(f"unknown group kind {self.kind!r}")

    @classmethod
    def abelian(cls, p: int, r: int) -> "GroupSpec":
        return cls(ABELIAN, p, r)

    @classmethod
    def metacyclic(cls, p: int) -> "GroupSpec":
        return cls(METACYCLIC, p, 2)

    @property
    def action_unit(self) -> int:
        """The unit u with b a b^-1 = a^u for the metacyclic preset."""
        if self.kind != METACYCLIC:
            raise InvalidInput("action_unit is only defined for the metacyclic preset")
        return 1 + self.p

    def exponent_product(self, x: Tuple[int, ...], y: Tuple[int, ...]) -> Tuple[int, ...]:
        """Exponent tuple of the normal form of (g^x)(g^y), exact over Z."""
        if self.kind == ABELIAN:
            return tuple(a + b for a, b in zip(x, y))
        # b^x2 a^y1 = a^(y1 * u^x2) b^x2
        u = self.action_unit
        return (x[0] + y[0] * u ** x[1], x[1] + y[1])


def quotient_order(spec: GroupSpec, m: int) -> int:
    """|G/G_m| = p^(rm)."""
    if m < 0:
        raise InvalidInput("level m must be >= 0")
    return spec.p ** (spec.r * m)


class GroupLevel:
    """The finite quotient G/G_m and the one owner of its lexicographic element order."""

    def __init__(self, spec: GroupSpec, m: int):
        if m < 0:
            raise InvalidInput("level m must be >= 0")
        self.spec = spec
        self.m = m
        self.radix = spec.p ** m
        self.order = spec.p ** (spec.r * m)
        self._div = None
        self._stages = {}

    def index(self, exps: Sequence[int]) -> int:
        if len(exps) != self.spec.r:
            raise InvalidInput("exponent tuple of wrong arity")
        idx = 0
        for e in exps:
            idx = idx * self.radix + (e % self.radix)
        return idx

    def division_table(self) -> np.ndarray:
        """Division table: div[g, c] = index of g^-1 g_c.

        Built in one L x L allocation with an axis per exponent digit of g
        and of h = g_c: digit k of g^-1 h is (h_k - g_k) mod p^m, except
        that the metacyclic a-digit is (h_1 - g_1) u^(-g_2), as (a^x1
        b^x2)^-1 a^y1 b^y2 = a^((y1 - x1) u^(-x2)) b^(y2 - x2).  The leading
        digit is assigned into the table one slab g_1 = g at a time, a term
        of at most R^2 elements (assignment broadcasts without the buffers a
        broadcast ufunc allocates), and each later digit, a broadcast term
        of R^2 elements, is added in place: no other L x L array is made,
        for any r."""
        if self._div is not None:
            return self._div
        R, r = self.radix, self.spec.r
        digits = np.arange(R, dtype=np.int64)

        def along(axis):
            return digits.reshape([R if a == axis else 1 for a in range(2 * r)])

        div = np.empty((R,) * (2 * r), dtype=np.int64)
        if self.spec.kind == METACYCLIC:
            u = self.spec.action_unit
            unit_powers = np.array([pow(u, -t, R) for t in range(R)], dtype=np.int64)[along(1)[0]]
        for g in range(R):
            digit = (along(r)[0] - g) % R
            if self.spec.kind == METACYCLIC:
                digit = digit * unit_powers % R
            div[g] = digit * R ** (r - 1)
        for k in range(1, r):
            div += (along(r + k) - along(k)) % R * R ** (r - 1 - k)
        div = div.reshape(self.order, self.order)
        div.setflags(write=False)
        self._div = div
        group_level.trim()
        return div

    def quotient(self, m: int) -> "GroupLevel":
        """The level G/G_m, m <= self.m, a quotient of this one: an element
        g_1^e_1 ... g_r^e_r maps to the element with every e_k reduced mod
        p^m, so its index keeps the low base-p^m digit of each exponent."""
        if not 0 <= m <= self.m:
            raise InvalidInput(f"level {m} is not a quotient of level {self.m}")
        return group_level(self.spec, m)

    def _members(self, d: Tuple[int, ...]) -> np.ndarray:
        """Q_d = <g_1^(p^d_1), ..., g_r^(p^d_r)>, the elements whose exponent
        e_k is divisible by p^d_k, as increasing indices into Q."""
        idx = np.zeros(1, dtype=np.int64)
        for dk in d:
            idx = (idx[:, None] * self.radix + np.arange(0, self.radix, self.spec.p ** dk)).ravel()
        return idx

    def stage(self, d: Tuple[int, ...], k: int) -> Tuple[np.ndarray, np.ndarray]:
        """(gather, div') of the restriction from (O/pi^N)[Q_d] to its
        index-p subgroup Q' = Q_(d + e_k), which strips digit d_k of g_k;
        built on first use and kept.

        Q_d is a subgroup in both presets: for the metacyclic one, b a b^-1
        = a^u with u = 1 mod p.  Its members are labelled by increasing
        index in Q (_members), so the identity stays first and a stage
        depends on (d, k) alone, not on the stages that reached Q_d.  Over
        the right cosets Q' t_s of Q_d, t_s = g_k^(s p^d_k), an entry x of
        (O/pi^N)[Q_d] restricts to the p x p block y_(s,s')(z) = x(t_s^-1 z
        t_s'), z in Q', whose regular representation is rho(x) with rows and
        columns permuted (z t_s <-> (s, z)): gather[s, s', z] is the
        position in Q_d of t_s^-1 z t_s', read from the division table as
        div[div[z, t_s], t_s'].  div' is the division table of Q', restricted
        from div and relabelled."""
        stage = self._stages.get((d, k))
        if stage is not None:
            return stage
        p, R, r = self.spec.p, self.radix, self.spec.r
        div = self.division_table()
        members = self._members(d)
        sub = self._members(d[:k] + (d[k] + 1,) + d[k + 1 :])
        t = np.arange(p) * p ** d[k] * R ** (r - 1 - k)
        position = np.empty(self.order, dtype=np.int64)
        position[members] = np.arange(len(members))
        gather = position[div[div[sub[None, :], t[:, None]][:, None, :], t[None, :, None]]]
        position[sub] = np.arange(len(sub))
        sub_div = position[div[np.ix_(sub, sub)]]
        for a in (gather, sub_div):
            a.setflags(write=False)
        self._stages[d, k] = stage = (gather, sub_div)
        group_level.trim()
        return stage

    def digit_sums(self, X: np.ndarray, d: Tuple[int, ...], keep: Tuple[int, ...]) -> np.ndarray:
        """X (shape (rels, gens, |Q_d|, ...), Q_d in _members order, the grid
        of the j_k = e_k / p^d_k < p^(m - d_k)) summed, not reduced, over all
        but the lowest keep_k (a power of p) values of each j_k: prod(keep)
        elements, the j_k mod keep_k in lexicographic order.  At d = 0, keep =
        (p^m',) * r projects to the quotient level m'; keep = p on axis k and
        1 elsewhere gives the sums over the cosets of Q_(d + e_k) in Q_d."""
        head, tail = X.shape[:2], X.shape[3:]
        grid = [s for dk, c in zip(d, keep) for s in (self.spec.p ** (self.m - dk) // c, c)]
        X = X.reshape(*head, *grid, *tail)
        return X.sum(axis=tuple(range(2, 2 + 2 * len(d), 2))).reshape(*head, prod(keep), *tail)

    @property
    def nbytes(self) -> int:
        """Bytes of the division table and of every stage built so far."""
        tables = [] if self._div is None else [self._div]
        return sum(a.nbytes for a in tables + [a for stage in self._stages.values() for a in stage])


def _chain_bytes(p: int, L: int) -> int:
    """Bytes that the stages of one descent through a group of order L > 1
    hold at once, whichever generator each step strips: division tables of
    L/p, L/p^2, ..., 1 elements, at most 8 L^2/(p^2 - 1) bytes, one more
    table of the first stage while it is built, 8 L^2/p^2, and the
    p x p x L' gathers, the last one (L' = 1) the expansion's, at most
    8 p^2 L/(p - 1).  The stages of earlier descents that a kept level also
    holds (about twice one path's tables for r = 2) are bounded only by
    LEVEL_CACHE_BYTES."""
    return 8 * L * L // (p * p - 1) + 8 * L * L // (p * p) + 8 * p * p * L // (p - 1)


# Bytes of division tables and descent stages that group_level keeps between
# calls.  The benchmark corpus needs well under 1 MB (its largest table is
# 52 KB, at L = 81); a table beyond the bound is dropped once its caller
# lets go of it.  It is the only bound on the stages that earlier descents,
# which may have stripped other generators, leave on a kept level:
# lambda_mod.check_expansion_budget counts the stages of one descent.
LEVEL_CACHE_BYTES = 2 ** 28


class _LevelCache:
    """group_level(spec, m): one GroupLevel per (spec, m), least recently used
    first dropped once the levels' tables and stages pass LEVEL_CACHE_BYTES."""

    def __init__(self):
        self._levels: "OrderedDict[Tuple[GroupSpec, int], GroupLevel]" = OrderedDict()

    def __call__(self, spec: GroupSpec, m: int) -> GroupLevel:
        level = self._levels.pop((spec, m), None) or GroupLevel(spec, m)
        self._levels[spec, m] = level
        return level

    @property
    def nbytes(self) -> int:
        return sum(level.nbytes for level in self._levels.values())

    def trim(self) -> None:
        """Drop least recently used levels until the rest fit the bound;
        GroupLevel calls it whenever it builds a table or a stage."""
        held = self.nbytes
        while held > LEVEL_CACHE_BYTES:
            _, level = self._levels.popitem(last=False)
            held -= level.nbytes

    def cache_clear(self) -> None:
        self._levels.clear()


group_level = _LevelCache()


# ---------------------------------------------------------------------------
# Group-ring polynomials.

@dataclass(frozen=True)
class GroupRingPoly:
    """Canonical finite sum of (coefficient vector, exponent tuple) terms.

    Terms are sorted by exponent tuple, exponent tuples are unique, and no
    coefficient vector is identically zero.  Coefficients are exact integers;
    no truncation happens before reduce_poly.
    """

    terms: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _norm_terms(terms: Iterable[Tuple[Sequence[int], Sequence[int]]]) -> GroupRingPoly:
    acc = {}
    width = None
    for coeffs, exps in terms:
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise InvalidInput("negative generator exponents are not allowed")
        coeffs = tuple(int(c) for c in coeffs)
        if width is None:
            width = len(coeffs)
        elif len(coeffs) != width:
            raise InvalidInput("inconsistent coefficient vector lengths")
        if exps in acc:
            acc[exps] = tuple(a + b for a, b in zip(acc[exps], coeffs))
        else:
            acc[exps] = coeffs
    out = [(c, e) for e, c in acc.items() if any(c)]
    out.sort(key=lambda t: t[1])
    return GroupRingPoly(tuple(out))


def poly_scalar(base: RingBase, vec: Sequence[int], r: int) -> GroupRingPoly:
    """The scalar with O-coefficient vector ``vec`` at the identity element."""
    if len(vec) != base.e * base.f:
        raise InvalidInput("coefficient vector length mismatch")
    return _norm_terms([(tuple(vec), (0,) * r)])


def poly_int(base: RingBase, n: int, r: int) -> GroupRingPoly:
    vec = [0] * (base.e * base.f)
    vec[0] = n
    return poly_scalar(base, vec, r)


def pi_pow_coeffs(base: RingBase, k: int) -> Tuple[int, ...]:
    """Exact O-coefficient vector of pi^k (pi^e = p)."""
    vec = [0] * (base.e * base.f)
    vec[(k % base.e) * base.f] = base.p ** (k // base.e)
    return tuple(vec)


def poly_pi_pow(base: RingBase, k: int, r: int) -> GroupRingPoly:
    return _norm_terms([(pi_pow_coeffs(base, k), (0,) * r)])


def poly_gen(base: RingBase, j: int, r: int, power: int = 1, coeff: int = 1) -> GroupRingPoly:
    """coeff * g_j^power as a group-ring polynomial (1-based generator index)."""
    if not 1 <= j <= r:
        raise InvalidInput(f"generator index {j} out of range")
    vec = [0] * (base.e * base.f)
    vec[0] = coeff
    exps = [0] * r
    exps[j - 1] = power
    return _norm_terms([(tuple(vec), tuple(exps))])


def poly_add(x: GroupRingPoly, y: GroupRingPoly) -> GroupRingPoly:
    return _norm_terms(list(x.terms) + list(y.terms))


def poly_neg(x: GroupRingPoly) -> GroupRingPoly:
    return GroupRingPoly(tuple((tuple(-c for c in cs), e) for cs, e in x.terms))


def poly_sub(x: GroupRingPoly, y: GroupRingPoly) -> GroupRingPoly:
    return poly_add(x, poly_neg(y))


def poly_mul(spec: GroupSpec, base: RingBase, x: GroupRingPoly, y: GroupRingPoly) -> GroupRingPoly:
    """Exact product in O[[G]], using the preset's normal-form rewriting
    (b a = a^(1+p) b for the metacyclic preset)."""
    if spec.p != base.p:
        raise InvalidInput("group and coefficient primes disagree")
    terms = []
    for cx, ex in x.terms:
        for cy, ey in y.terms:
            terms.append((base.mul(cx, cy), spec.exponent_product(ex, ey)))
    return _norm_terms(terms)


def reduce_poly(polys: Sequence[GroupRingPoly], spec: GroupSpec, m: int, ring: ChainRing) -> np.ndarray:
    """Images of polys under O[[G]] -> (O/pi^N)[G/G_m], as one integer array
    of O-coordinates of shape (len(polys), L, e*f) in ring.dtype: entry
    [t, h] holds the coefficient of the level's h-th element in polys[t]."""
    if ring.p != spec.p:
        raise InvalidInput("ring.p must equal spec.p")
    level = group_level(spec, m)
    terms = [
        (t, level.index(exps), [a % q for a, q in zip(c, ring.moduli, strict=True)])
        for t, x in enumerate(polys)
        for c, exps in x.terms
    ]
    out = np.zeros((len(polys), level.order, len(ring.moduli)), dtype=ring.dtype)
    if terms:
        which, where, coeffs = zip(*terms)
        # Every addend is reduced, so below p^M, and int64 rings have p^M <
        # 2^32 (_kernel_dtype): int64 holds the sum of 2^31 terms meeting at
        # one element, more than any presentation in memory can have.
        np.add.at(out, (np.array(which), np.array(where)), np.array(coeffs, dtype=ring.dtype))
        out %= np.array(ring.moduli, dtype=ring.dtype)
    return out
