"""Strong Groebner bases over R[T_1, ..., T_r] for a finite chain ring R.

This is the exact linear-algebra substrate for Koszul homology of finitely
presented modules over the abelian Iwasawa algebra truncations
(O/pi^N)[[G]] (lambda_mod.koszul_homology_ordq).  The engine is
variable-agnostic: T_1, ..., T_r stand for whatever polynomial variables the
caller's exponent tuples count, and lambda_mod passes the group elements
g_1, ..., g_r themselves.  The homology in question is supported at the
maximal ideal (pi, g_1 - 1, ..., g_r - 1), so it agrees with the homology
computed over the polynomial ring, where Buchberger-style computation is
available.

Elements of a free module S^s are dicts {(position, monomial): scalar} with
scalars in the chain ring and monomials exponent tuples.  The term order is
degree-lexicographic with a position tie-break, optionally preceded by a
block flag so that a leading block can be eliminated (module elimination
order).  Every basis element is normalized to leading coefficient pi^v; a
strong basis is maintained by completing S-polynomials together with the
annihilator multiples pi^(N-v) * g, as in the Buchberger theory of strong
bases over chain rings (Norton and Salagean).

Inside strong_groebner each term (pos, mono) is one Python int of fixed-width
fields, from the most significant down

    flag | total degree | e_1 | ... | e_r | (maxpos - pos)

(flag 1 when pos < split, maxpos the largest input position), so that the
integer order is the term order: the leading term is max(elem), and the
reduction and pair heaps hold ints.  The degree and each exponent field have
EXPONENT_BITS value bits and one guard bit above them (the mask G).  A
monomial shift is one addition t + (lcm - l): the two position fields cancel
and each value field receives at most one carry, into its guard bit, so
every term the kernel adds to an element is checked with t & G, and one that
does not fit raises TooLarge instead of carrying into the next field.  With
t's guard bits clear, l (same position) divides t exactly when
((t | G) - l) & G == G: a field of t below l's borrows its guard bit.
Inputs are encoded on entry (an exponent or a degree past the fields raises
TooLarge) and the basis is decoded on exit.

The Buchberger loop stores each basis element's leading term and leading
valuation v once, when the element is appended, and reduces with a heap of
terms; the reducers of a position are tried in basis order.  Pairs leave a
heap ordered by the total degree of the lcm of their leading monomials (the
normal strategy).  The S-pair (i, j) is skipped by the
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

  * preimage_gens  -- one strong basis of the graph of a map d: S^s -> S^t
                      together with a submodule W of S^t, the target block
                      eliminated, read as two: its elements whose leading
                      term lies in the source block are a strong basis of
                      K = {v : d v in W}, and the target-block parts of the
                      others one of d S^s + W.  Every x in d S^s + W is the
                      target part of some g in the graph module with the
                      same leading term (the target terms are the larger),
                      so the strong-basis property carries over.
  * quotient_ordq  -- ord_q of K / B for strong bases of B in K (K = S^s
                      allowed), with no Groebner work.  For a term t let
                      v_X(t) be the least leading-coefficient valuation among
                      the basis leading terms of X dividing t (N if none
                      does); then ord_q(K / B) = sum_t (v_B(t) - v_K(t)),
                      each summand >= 0.  Once T_k's exponent in t reaches
                      E_k, the largest in the leading terms of t's position,
                      raising it changes no divisibility, so the summand
                      stays the same; a finite sum therefore lies in the box
                      below the largest leading exponents, and the sum is
                      finite exactly when the box one wider counts no more.
                      Along each variable the valuations change only at
                      leading exponents, so the count works slab by slab and
                      costs nothing per monomial.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from .chainring import ChainRing
from .errors import InvalidInput, TooLarge

Term = Tuple[int, Tuple[int, ...]]
Element = Dict[Term, object]

# Value bits of the degree and exponent fields of a packed term: every
# exponent and total degree, of the inputs and of every term the kernel
# makes, stays below 2^EXPONENT_BITS or the call raises TooLarge.  Koszul
# inputs stay below 2^20 (KOSZUL_BUDGET_CELLS bounds both the tower degrees
# p^m and the relation exponents).
EXPONENT_BITS = 24


class PolyContext:
    """A chain ring together with a number of polynomial variables."""

    def __init__(self, ring: ChainRing, nvars: int):
        self.ring = ring
        self.nvars = nvars


class _Memo(dict):
    """A dict that fills a missing key with fn(key)."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Layout:
    """The packed-term fields of one strong_groebner call (module
    docstring) for nvars exponents and positions up to maxpos.
    ``fields[mono]`` is mono's degree and exponent fields, in place above
    the position field, and ``monos[bits]`` the monomial of the exponent
    fields ``(t >> pos_bits) & exp_mask`` of a term t: each monomial is
    packed and unpacked once per call."""

    def __init__(self, nvars: int, maxpos: int):
        w = self.width = EXPONENT_BITS
        self.nvars = nvars
        self.pos_bits = maxpos.bit_length()
        self.pos_mask = (1 << self.pos_bits) - 1
        self.deg_shift = self.pos_bits + nvars * (w + 1)
        self.value_mask = (1 << w) - 1
        self.exp_mask = (1 << nvars * (w + 1)) - 1
        self.flag = 1 << (self.deg_shift + w + 1)
        self.guards = sum(1 << (self.pos_bits + k * (w + 1) + w) for k in range(nvars + 1))
        self.fields = _Memo(self._pack)
        self.monos = _Memo(self._unpack)

    def _pack(self, mono: Tuple[int, ...]) -> int:
        w = self.width
        deg = sum(mono)
        if deg >> w or min(mono, default=0) < 0:
            raise TooLarge(f"monomial {mono} does not fit {w}-bit exponent fields")
        fields = deg
        for e in mono:
            fields = (fields << w + 1) | e
        return fields << self.pos_bits

    def _unpack(self, bits: int) -> Tuple[int, ...]:
        w, mask = self.width, self.value_mask
        return tuple((bits >> (self.nvars - 1 - k) * (w + 1)) & mask for k in range(self.nvars))

    def overflow(self) -> TooLarge:
        return TooLarge(f"a Groebner term outgrew the {self.width}-bit exponent fields")


def strong_groebner(ctx: PolyContext, gens: Sequence[Element], split: int = 0) -> List[Element]:
    """Strong Groebner basis of the submodule generated by ``gens``, by the
    Buchberger loop of the module docstring: pairs in the normal strategy's
    order, the chain criterion on S-pairs, every annihilator pair reduced.
    Each element of the basis lists its leading term first."""
    ring = ctx.ring
    is_zero = ring.is_zero
    maxpos = max((pos for g in gens for pos, _mono in g), default=0)
    layout = _Layout(ctx.nvars, maxpos)
    fields, flag = layout.fields, layout.flag
    packed = []
    for g in gens:
        elem = {
            (flag if pos < split else 0) | fields[mono] | (maxpos - pos): c
            for (pos, mono), c in g.items()
            if not is_zero(c)
        }
        if elem:
            lt = max(elem)
            packed.append({lt: elem.pop(lt), **elem})
    monos, pos_bits, pos_mask, exp_mask = layout.monos, layout.pos_bits, layout.pos_mask, layout.exp_mask
    return [
        {(maxpos - (t & pos_mask), monos[(t >> pos_bits) & exp_mask]): c for t, c in elem.items()}
        for elem in _buchberger(ring, layout, packed)
    ]


def _buchberger(ring: ChainRing, layout: _Layout, gens: List[Dict[int, object]]) -> List[Dict[int, object]]:
    """The Buchberger loop on packed elements, each listing its leading
    term first."""
    mul, add, neg, sub, is_zero = ring.mul, ring.add, ring.neg, ring.sub, ring.is_zero
    val, div_pi_pow, unit_part, inv, one = ring.val, ring.div_pi_pow, ring.unit_part, ring.inv, ring.one
    N = ring.N
    pi_pow = [ring.pi_pow(v) for v in range(N + 1)]
    G, pos_mask, pos_bits, exp_mask = layout.guards, layout.pos_mask, layout.pos_bits, layout.exp_mask
    width, deg_shift, monos_of, flag_pos = layout.width, layout.deg_shift, layout.monos, layout.flag | pos_mask
    push, pop = heapq.heappush, heapq.heappop
    basis: List[Dict[int, object]] = []
    lead: List[Tuple[int, int]] = []  # (leading term, valuation of its coefficient)
    monos: List[Tuple[int, ...]] = []  # exponents of each leading term
    by_pos: Dict[int, List[int]] = {}  # position field -> basis indices
    # position field -> (leading term, valuation, tail) in basis order
    reducers: Dict[int, List[Tuple[int, int, List[Tuple[int, object]]]]] = {}
    # (lcm degree, lcm, j, i); i == j marks an annihilator pair
    pairs: List[tuple] = []
    treated = set()

    def append(elem: Dict[int, object], lt: int) -> None:
        c = elem[lt]
        v = val(c)
        u = unit_part(c)
        if u != one:
            u = inv(u)
            elem = {t: mul(u, a) for t, a in elem.items()}
        k = len(basis)
        basis.append(elem)
        lead.append((lt, v))
        mono = monos_of[(lt >> pos_bits) & exp_mask]
        monos.append(mono)
        pos = lt & pos_mask
        reducers.setdefault(pos, []).append((lt, v, [(t, a) for t, a in elem.items() if t != lt]))
        if v:
            push(pairs, (sum(mono), lt, k, k))
        same = by_pos.setdefault(pos, [])
        for i in same:
            # The lcm: lt's flag and position, the exponents max(LT_i, lt).
            # Its degree, below 2^(width + 1), may set its guard bit; then a
            # skipped pair makes no term, and the first term of a reduced
            # one, LT_i shifted to the lcm, raises.
            lcm = deg = 0
            for x, y in zip(monos[i], mono):
                e = x if x > y else y
                deg += e
                lcm = (lcm << width + 1) | e
            push(pairs, (deg, (lt & flag_pos) | (deg << deg_shift) | (lcm << pos_bits), k, i))
        same.append(k)

    def reduce(elem: Dict[int, object]) -> Dict[int, object]:
        # Full strong reduction, the terms taken from the largest down:
        # reducing a term only adds smaller ones.  The result lists its
        # terms in decreasing order.
        work = dict(elem)
        heap = [-t for t in work]
        heapq.heapify(heap)
        out: Dict[int, object] = {}
        while heap:
            t = -pop(heap)
            c = work.pop(t, None)
            if c is None:
                # cancelled after it was pushed
                continue
            vc = val(c)
            tG = t | G
            for l, vg, tail in reducers.get(t & pos_mask, ()):
                if vg <= vc and (tG - l) & G == G:
                    break
            else:
                out[t] = c
                continue
            # factor * pi^vg == c exactly, so the term is killed and only the
            # tail of the reducer, all of it below t, is added.
            factor = div_pi_pow(c, vg)
            shift = t - l
            for s, cg in tail:
                s += shift
                if s & G:
                    raise layout.overflow()
                a = mul(factor, cg)
                if is_zero(a):
                    continue
                cur = work.get(s)
                if cur is None:
                    work[s] = neg(a)
                    push(heap, -s)
                    continue
                a = sub(cur, a)
                if is_zero(a):
                    del work[s]
                else:
                    work[s] = a
        return out

    def add_into(acc: Dict[int, object], elem: Dict[int, object], factor, shift: int, negate: bool) -> None:
        for t, c in elem.items():
            t += shift
            if t & G:
                raise layout.overflow()
            a = mul(factor, c)
            if negate:
                a = neg(a)
            cur = acc.get(t)
            if cur is not None:
                a = add(cur, a)
            if is_zero(a):
                acc.pop(t, None)
            else:
                acc[t] = a

    for g in gens:
        append(g, next(iter(g)))

    while pairs:
        _deg, lcm, j, i = pop(pairs)
        lt_i, vi = lead[i]
        cand: Dict[int, object] = {}
        if i == j:
            add_into(cand, basis[i], pi_pow[N - vi], 0, False)
        else:
            treated.add((i, j))
            lt_j, vj = lead[j]
            v = max(vi, vj)
            lcmG = lcm | G
            if any(
                k != i
                and k != j
                and lead[k][1] <= v
                and (lcmG - lead[k][0]) & G == G
                and (min(i, k), max(i, k)) in treated
                and (min(j, k), max(j, k)) in treated
                for k in by_pos[lt_i & pos_mask]
            ):
                continue
            add_into(cand, basis[i], pi_pow[v - vi], lcm - lt_i, False)
            add_into(cand, basis[j], pi_pow[v - vj], lcm - lt_j, True)
        if not cand:
            continue
        rem = reduce(cand)
        if rem:
            append(rem, next(iter(rem)))
    return basis


def preimage_gens(
    ctx: PolyContext,
    target_rank: int,
    mapped: Sequence[Element],
    sub: Sequence[Element],
) -> Tuple[List[Element], List[Element]]:
    """(kernel, image): strong bases of {v in S^s : sum_i v_i * mapped[i]
    in <sub>} and of <mapped> + <sub> in S^target_rank, where ``mapped[i]``
    in S^target_rank is the image of the i-th source basis vector.  Both
    come from one strong basis of the graph submodule, the target block
    eliminated: its elements with a leading term in the source block, moved
    down to positions 0..s-1, are the kernel's basis, and the target-block
    parts of the others the image's (module docstring)."""
    zero_mono = (0,) * ctx.nvars
    ring = ctx.ring
    gens: List[Element] = []
    for i, b in enumerate(mapped):
        g = dict(b)
        t = (target_rank + i, zero_mono)
        g[t] = ring.add(g.get(t, ring.zero), ring.one)
        gens.append(g)
    gens.extend(sub)
    kernel: List[Element] = []
    image: List[Element] = []
    # The eliminated block's terms are the largest, so an element has one
    # exactly when its leading term, listed first, lies there.
    for g in strong_groebner(ctx, gens, split=target_rank):
        if next(iter(g))[0] >= target_rank:
            kernel.append({(pos - target_rank, mono): c for (pos, mono), c in g.items()})
        else:
            image.append({t: c for t, c in g.items() if t[0] < target_rank})
    return kernel, image


def quotient_ordq(
    ctx: PolyContext,
    rank: int,
    basis: Sequence[Element],
    over: Optional[Sequence[Element]] = None,
) -> int:
    """ord_q of <over> / <basis> in S^rank (of S^rank / <basis> when
    ``over`` is None), for strong bases ``basis`` and ``over`` of modules
    B in K, each element listing its leading term first.  No Groebner work
    is done: the order is the staircase count of the module docstring, over
    the box below the largest leading exponents of each position.  Raises
    InvalidInput when the quotient is not finite."""
    nvars, N = ctx.nvars, ctx.ring.N
    low = _leads(ctx.ring, basis)
    high = {pos: [((0,) * nvars, 0)] for pos in range(rank)} if over is None else _leads(ctx.ring, over)
    total = 0
    for pos, tops in high.items():
        bottoms = low.get(pos, [])
        box = [max(mono[k] for mono, _v in tops + bottoms) for k in range(nvars)]
        low_sum, low_wider = _staircase_sums(bottoms, box, N)
        high_sum, high_wider = _staircase_sums(tops, box, N)
        if low_wider - high_wider != low_sum - high_sum:
            raise InvalidInput("quotient module is not finite")
        total += low_sum - high_sum
    return total


def _leads(ring: ChainRing, elems: Sequence[Element]) -> Dict[int, List[Tuple[Tuple[int, ...], int]]]:
    """position -> (leading monomial, leading valuation) of each element."""
    out: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
    for g in elems:
        lt = next(iter(g))
        out.setdefault(lt[0], []).append((lt[1], ring.val(g[lt])))
    return out


def _staircase_sums(leads: List[Tuple[Tuple[int, ...], int]], box: List[int], N: int) -> Tuple[int, int]:
    """The sums of v(t) over the monomials t with t_k < box[k] and with
    t_k <= box[k] (at least one variable, every lead's monomial <= box),
    v(t) the least valuation of the leads whose monomial divides t (N if
    none does).

    Along the first variable the leads that can divide t change only at
    their first exponents, so the box splits into slabs, from each such
    exponent to the next, on each of which the sum is the slab's width
    times one sum over the other variables, of the leads met so far: the
    work grows with the number of leads and not with the box.  The wider
    box only widens the last slab of every variable by one."""
    head, tail = box[0], box[1:]
    total = wider = lo = 0
    rest: List[Tuple[Tuple[int, ...], int]] = []
    least = N
    for mono, v in sorted(leads):
        a = mono[0]
        if a > lo:
            inner, inner_wider = _staircase_sums(rest, tail, N) if tail else (least, least)
            total += (a - lo) * inner
            wider += (a - lo) * inner_wider
            lo = a
        rest.append((mono[1:], v))
        least = min(least, v)
    inner, inner_wider = _staircase_sums(rest, tail, N) if tail else (least, least)
    return total + (head - lo) * inner, wider + (head + 1 - lo) * inner_wider
