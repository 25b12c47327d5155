"""Strong Groebner bases over R[T_1, ..., T_r] for a finite chain ring R.

This is the exact linear-algebra substrate for Koszul homology of finitely
presented modules over the abelian Iwasawa algebra truncations
(O/pi^N)[[T_1, ..., T_r]]: because the homology in question is supported at
the maximal ideal (pi, T_1, ..., T_r), it agrees with the homology computed
over the polynomial ring, where Buchberger-style computation is available.

Elements of a free module S^s are dicts {(position, monomial): scalar} with
scalars in the chain ring and monomials exponent tuples.  The term order is
degree-lexicographic with a position tie-break, optionally preceded by a
block flag so that a leading block can be eliminated (module elimination
order).  Every basis element is normalized to leading coefficient pi^v; a
strong basis is maintained by completing S-polynomials together with the
annihilator multiples pi^(N-v) * g, as in the Buchberger theory of strong
bases over chain rings (Norton and Salagean).

The Buchberger loop stores each basis element's leading term and leading
valuation v once, when the element is appended, and reduces with a heap of
terms.  Pairs leave a heap ordered by the total degree of the lcm of their
leading monomials (the normal strategy).  The S-pair (i, j) is skipped by the
chain criterion (Gebauer and Moeller, 1988) when some k has LT_k dividing
lcm(LT_i, LT_j) in the same position, v_k <= max(v_i, v_j), and the pairs
(i, k) and (j, k) have already left the heap: the syzygy of (i, j) is then
the sum of multiples pi^a T^c of those of (i, k) and (k, j), and the
coefficient condition is what keeps every a >= 0.  The annihilator pairs
are always reduced.  There is no product criterion
(coprime leading monomials): its proof multiplies the two elements together,
which has no meaning in a free module of rank > 1, and skipping those pairs
makes Koszul orders wrong or the quotient look infinite.

The two consumers are:

  * preimage_gens  -- generators of {v : v B in W} for a matrix B and a
                      submodule W (syzygies, kernels, relation modules);
  * quotient_ordq  -- q-order of a finite quotient S^s / W read off the
                      staircase of a strong basis: each standard
                      position-monomial contributes the minimal leading-
                      coefficient valuation among the basis leading terms
                      dividing it.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from .chainring import ChainRing
from .errors import InvalidInput

Term = Tuple[int, Tuple[int, ...]]
Element = Dict[Term, object]


class PolyContext:
    """A chain ring together with a number of polynomial variables."""

    def __init__(self, ring: ChainRing, nvars: int):
        self.ring = ring
        self.nvars = nvars

    def key(self, split: int):
        """Sort key of the term order: block flag, total degree, the
        exponents lexicographically, then lower positions first.  The key is
        a flat tuple of integers, so its negation reverses the order."""

        def _key(term: Term):
            pos, mono = term
            return (1 if pos < split else 0, sum(mono), *mono, -pos)

        return _key


def _clean(ctx: PolyContext, elem: Element) -> Element:
    ring = ctx.ring
    return {t: c for t, c in elem.items() if not ring.is_zero(c)}


def _add_into(ctx: PolyContext, acc: Element, other: Element, factor, shift: Tuple[int, ...], negate: bool) -> None:
    ring = ctx.ring
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


def scale_elem(ctx: PolyContext, elem: Element, factor) -> Element:
    out: Element = {}
    _add_into(ctx, out, elem, factor, (0,) * ctx.nvars, False)
    return out


def leading_term(ctx: PolyContext, elem: Element, keyfn) -> Term:
    return max(elem, key=keyfn)


def _divides(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def normal_form(
    ctx: PolyContext,
    elem: Element,
    basis: List[Element],
    keyfn,
    lead: Optional[List[Tuple[Term, int]]] = None,
) -> Element:
    """Full strong reduction of ``elem`` by ``basis`` (leading coefficients of
    ``basis`` are pi^v after normalization).

    ``lead`` lists the leading term and its coefficient's valuation of each
    basis element; it is computed here when not given.  Terms are reduced
    from the largest down, taken from a heap: reducing a term only adds
    smaller ones.  The result lists its terms in decreasing order, so its
    first key is its leading term."""
    ring = ctx.ring
    if lead is None:
        lead = []
        for g in basis:
            lt = leading_term(ctx, g, keyfn)
            lead.append((lt, ring.val(g[lt])))
    work = dict(elem)
    heap = [(tuple(-x for x in keyfn(t)), t) for t in work]
    heapq.heapify(heap)
    out: Element = {}
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            # cancelled after it was pushed
            continue
        vc = ring.val(c)
        pos, mono = t
        for g, ((lpos, lmono), vg) in zip(basis, lead):
            if vg <= vc and lpos == pos and _divides(lmono, mono):
                break
        else:
            out[t] = c
            continue
        # factor * pi^vg == c exactly, so the term is killed and only the
        # tail of g, all of it below t, is added.
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


def strong_groebner(ctx: PolyContext, gens: Sequence[Element], split: int = 0) -> List[Element]:
    """Strong Groebner basis of the submodule generated by ``gens``, by the
    Buchberger loop of the module docstring: pairs in the normal strategy's
    order, the chain criterion on S-pairs, every annihilator pair reduced."""
    ring = ctx.ring
    keyfn = ctx.key(split)
    basis: List[Element] = []
    lead: List[Tuple[Term, int]] = []
    by_pos: Dict[int, List[int]] = {}
    # (lcm degree, lcm key, j, i); i == j marks an annihilator pair
    pairs: List[tuple] = []
    treated = set()

    def push(i: int, j: int, lcm: Term) -> None:
        heapq.heappush(pairs, (sum(lcm[1]), keyfn(lcm), j, i))

    def append(elem: Element, lt: Term) -> None:
        v = ring.val(elem[lt])
        u = ring.unit_part(elem[lt])
        if u != ring.one:
            elem = scale_elem(ctx, elem, ring.inv(u))
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
        g = _clean(ctx, dict(g))
        if g:
            append(g, leading_term(ctx, g, keyfn))

    while pairs:
        _deg, _key, j, i = heapq.heappop(pairs)
        (pos, mono_i), vi = lead[i]
        if i == j:
            cand = scale_elem(ctx, basis[i], ring.pi_pow(ring.N - vi))
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
            shift_i = tuple(a - b for a, b in zip(lcm, mono_i))
            shift_j = tuple(a - b for a, b in zip(lcm, mono_j))
            cand = {}
            _add_into(ctx, cand, basis[i], ring.pi_pow(v - vi), shift_i, False)
            _add_into(ctx, cand, basis[j], ring.pi_pow(v - vj), shift_j, True)
        if not cand:
            continue
        rem = normal_form(ctx, cand, basis, keyfn, lead)
        if rem:
            append(rem, next(iter(rem)))
    return basis


def preimage_gens(
    ctx: PolyContext,
    target_rank: int,
    mapped: Sequence[Element],
    sub: Sequence[Element],
) -> List[Element]:
    """Generators of {v in S^s : sum_i v_i * mapped[i] in <sub>}, where
    ``mapped[i]`` in S^target_rank is the image of the i-th source basis
    vector.  Computed by module elimination on the graph submodule."""
    s = len(mapped)
    zero_mono = (0,) * ctx.nvars
    gens: List[Element] = []
    for i, b in enumerate(mapped):
        g: Element = {}
        for (pos, mono), c in b.items():
            g[(pos, mono)] = c
        t = (target_rank + i, zero_mono)
        g[t] = ctx.ring.add(g.get(t, ctx.ring.zero), ctx.ring.one)
        gens.append(_clean(ctx, g))
    for w in sub:
        gens.append(_clean(ctx, dict(w)))
    basis = strong_groebner(ctx, gens, split=target_rank)
    out: List[Element] = []
    for g in basis:
        if any(pos < target_rank for (pos, _mono) in g):
            continue
        stripped = {(pos - target_rank, mono): c for (pos, mono), c in g.items()}
        if stripped:
            out.append(stripped)
    return out


def quotient_ordq(ctx: PolyContext, rank: int, gens: Sequence[Element]) -> int:
    """ord_q of S^rank / <gens>; raises InvalidInput if the quotient is not
    finite (no pure-power unit leading term in some variable)."""
    ring = ctx.ring
    if rank == 0:
        return 0
    basis = strong_groebner(ctx, gens, split=0)
    keyfn = ctx.key(0)
    lts: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {pos: [] for pos in range(rank)}
    for g in basis:
        lt = leading_term(ctx, g, keyfn)
        lts[lt[0]].append((lt[1], ring.val(g[lt])))

    total = 0
    for pos in range(rank):
        entries = lts[pos]
        bounds = []
        for k in range(ctx.nvars):
            b = None
            for mono, v in entries:
                if v == 0 and all(mono[j] == 0 for j in range(ctx.nvars) if j != k):
                    b = mono[k] if b is None else min(b, mono[k])
            if b is None:
                raise InvalidInput("quotient module is not finite")
            bounds.append(b)

        def walk(prefix):
            nonlocal total
            if len(prefix) == ctx.nvars:
                v = ring.N
                for mono, vg in entries:
                    if all(a <= b for a, b in zip(mono, prefix)):
                        v = min(v, vg)
                total += v
                return
            for x in range(bounds[len(prefix)]):
                walk(prefix + (x,))

        if all(b > 0 for b in bounds):
            walk(())
    return total
