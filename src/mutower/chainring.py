"""Exact arithmetic and diagonal normal forms over the finite chain rings O/pi^N.

O is the ring of integers of a finite extension of Q_p with ramification index
e and residue degree f; pi is a local parameter, q = p^f the residue field
order.  The truncation O/pi^N is a finite local principal ideal ring of order
q^N whose ideals form the chain (1) > (pi) > ... > (pi^N) = 0.

Concrete model.  The unramified part is the Galois ring GR(p^M, f) =
Z[x]/(p^M, h(x)) for a fixed monic degree-f lift h of an irreducible
polynomial over F_p; for e > 1 the ring is the Eisenstein extension by
pi^e = p over it.  An element has the O-coordinates (c_0, ..., c_{ef-1})
on the basis pi^i x^j (entry i*f + j), the pi^i coordinates reduced mod
p^{ceil((N-i)/e)} (ChainRing.moduli).  A scalar is

  * a plain int in [0, p^N)                     when e == f == 1,
  * the tuple of its e*f reduced O-coordinates  otherwise,

so scalars, RingBase.mul and coordinate arrays share one layout.  Canonical
forms are equal iff the ring elements are equal, so scalars compare with ==.
All operations are pure; rings and scalars are immutable and safe to share
between threads.

Matrices.  A matrix over O/pi^N is one integer array of O-coordinates of
shape (rows, cols, e*f), and _diagonalize_coordinates is the one per-pivot
elimination for every ring: the pivot is an entry of minimal pi-valuation
min_i (e v_p(c_i) + i), division by pi^v divides by p^(v//e) and shifts the
pi-digits, and every O-product is one matrix product through the structure
tensor of O.  The pivot valuations are the pi-adic valuations of the
cokernel.

Unit blocks.  A level-m matrix is a GroupRingMatrix, a compact array of
coefficients in the group ring (O/pi^N)[Q], Q = G/G_m of order L, standing
for the matrix of L x L blocks rho(x) (row k = g_k * x) that its one gather
builds.  Over O = Z_p, (Z/p^K)[Q] is local: rho(x) is invertible exactly
when the augmentation of x is a unit mod p, and inverses, Schur complements
and division by p stay in the group ring.  So _eliminate_units removes
those entries on the compact array first, with float64 group-ring products
(L^2 each, exact below 2^53); only the residual, over some Z/p^K', K' <= N,
is expanded for _diagonalize_coordinates, as is the whole matrix when
e*f > 1 or p^N passes the float bound.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInput, SingularBlock


# Strong-pseudoprime bases that decide primality exactly below PRIME_LIMIT,
# the least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; raises InvalidInput at n >=
    PRIME_LIMIT, where its bases are not known to be exact."""
    if n >= PRIME_LIMIT:
        raise InvalidInput(f"p = {n} is too large: primality is decided only below {PRIME_LIMIT}")
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# F_p[x] helpers for choosing the Galois-ring modulus.

def _poly_mul_mod(a, b, h, p):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    f = len(h) - 1
    for i in range(len(res) - 1, f - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(f):
                res[i - f + j] = (res[i - f + j] - c * h[j]) % p
    while len(res) > f:
        res.pop()
    while len(res) < f:
        res.append(0)
    return res


def _poly_pow_mod(a, k, h, p):
    result = [1] + [0] * (len(h) - 2)
    base = list(a)
    while k:
        if k & 1:
            result = _poly_mul_mod(result, base, h, p)
        base = _poly_mul_mod(base, base, h, p)
        k >>= 1
    return result


def _poly_gcd(a, b, p):
    def norm(v):
        v = [c % p for c in v]
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = norm(a), norm(b)
    while b:
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) >= len(b):
            c = (r[-1] * inv) % p
            shift = len(r) - len(b)
            for j in range(len(b)):
                r[shift + j] = (r[shift + j] - c * b[j]) % p
            r = norm(r)
            if not r:
                break
        a, b = b, r
    return a


def _is_irreducible(h, p):
    # h monic of degree f over F_p: irreducible iff x^{p^f} == x (mod h) and
    # gcd(x^{p^{f/d}} - x, h) = 1 for every prime divisor d of f.
    f = len(h) - 1
    if f == 1:
        return True
    x = [0, 1] + [0] * (f - 2)
    xq = _poly_pow_mod(x, p ** f, h, p)
    if any((xq[i] - x[i]) % p for i in range(f)):
        return False
    d = 2
    ff = f
    primes = set()
    while d * d <= ff:
        if ff % d == 0:
            primes.add(d)
            while ff % d == 0:
                ff //= d
        d += 1
    if ff > 1:
        primes.add(ff)
    for d in primes:
        xq = _poly_pow_mod(x, p ** (f // d), h, p)
        diff = [(xq[i] - x[i]) % p for i in range(f)]
        g = _poly_gcd(diff, h, p)
        if len(g) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def galois_modulus(p: int, f: int) -> Tuple[int, ...]:
    """Monic degree-f integer lift used to realize the Galois ring GR(p^M, f).

    The lexicographically least monic irreducible lift (constant coefficient
    first) is chosen.  The choice only fixes the element representation; every
    computed order is independent of it.
    """
    if f == 1:
        return (0, 1)
    for code in range(p ** f):
        lower = []
        c = code
        for _ in range(f):
            lower.append(c % p)
            c //= p
        h = tuple(lower + [1])
        if _is_irreducible(h, p):
            return h
    raise RuntimeError(f"no irreducible polynomial of degree {f} over F_{p}")


def _newton_steps(N: int) -> int:
    """Newton steps for a unit inverse over O/pi^N: each step doubles the
    pi-adic precision of the residue-field start."""
    return N.bit_length() + 2


@lru_cache(maxsize=4096)
def _residue_inverse(p: int, f: int, res: Tuple[int, ...]) -> Tuple[int, ...]:
    """x-coordinates of the inverse of the nonzero residue ``res`` in F_q =
    F_p[x]/(h), as res^(q-2)."""
    if f == 1:
        return (pow(res[0], -1, p),)
    return tuple(_poly_pow_mod(list(res), p ** f - 2, galois_modulus(p, f), p))


@dataclass(frozen=True)
class RingBase:
    """The exact coefficient ring O, described by (p, e, f)."""

    p: int
    e: int
    f: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise InvalidInput(f"p = {self.p} is not prime")
        if self.e < 1 or self.f < 1:
            raise InvalidInput("need e >= 1 and f >= 1")

    @property
    def q(self) -> int:
        return self.p ** self.f

    def mul(self, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        """Exact product in O = Z_q[pi]/(pi^e - p) of two O-coordinate vectors
        (entry i*f + j is the x^j coordinate of the pi^i digit): Galois-ring
        convolution reduced by h in each digit, digits >= e folded down with a
        factor of p."""
        e, f = self.e, self.f
        h = galois_modulus(self.p, f)
        out = [0] * (e * f)
        for i in range(e):
            ai = a[i * f : (i + 1) * f]
            if not any(ai):
                continue
            for j in range(e):
                bj = b[j * f : (j + 1) * f]
                if not any(bj):
                    continue
                res = [0] * (2 * f - 1)
                for s, x in enumerate(ai):
                    if x:
                        for t, y in enumerate(bj):
                            res[s + t] += x * y
                for s in range(2 * f - 2, f - 1, -1):
                    c = res[s]
                    if c:
                        for t in range(f):
                            res[s - f + t] -= c * h[t]
                scale = self.p ** ((i + j) // e)
                k = (i + j) % e
                for t in range(f):
                    out[k * f + t] += scale * res[t]
        return tuple(out)


class ChainRing:
    """The truncation O/pi^N together with its exact scalar arithmetic.

    Invariants: q = p^f, |ring| = q^N, every nonzero scalar factors uniquely
    as unit * pi^v with 0 <= v < N, and val(0) = N by convention.
    """

    def __init__(self, p: int, e: int, f: int, N: int):
        base = RingBase(p, e, f)
        if N < 1:
            raise InvalidInput("need N >= 1")
        self.base = base
        self.p = p
        self.e = e
        self.f = f
        self.N = N
        self.q = p ** f
        self.size = self.q ** N
        self.is_simple = e == 1 and f == 1
        # The pi^i digit carries precision ceil((N-i)/e): moduli holds its
        # p-power for every O-coordinate i*f + j.
        self.moduli = tuple(p ** -((i - N) // e) for i in range(e) for _ in range(f))
        self.M = -(-N // e)
        self.pM = p ** self.M
        # Integer type of O-coordinate arrays over this ring: int64 unless
        # eliminating them could overflow it.
        self.dtype = _kernel_dtype(self.pM, e * f)
        if self.is_simple:
            self.zero, self.one = 0, 1
        else:
            self.zero = (0,) * (e * f)
            self.one = (1,) + self.zero[1:]

    @classmethod
    def from_base(cls, base: RingBase, N: int) -> "ChainRing":
        return cls(base.p, base.e, base.f, N)

    def __repr__(self):
        return f"ChainRing(p={self.p}, e={self.e}, f={self.f}, N={self.N})"

    def __eq__(self, other):
        return (
            isinstance(other, ChainRing)
            and (self.p, self.e, self.f, self.N) == (other.p, other.e, other.f, other.N)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.f, self.N))

    # -- construction -------------------------------------------------------

    def _canon(self, coords) -> tuple:
        return tuple(int(c) % m for c, m in zip(coords, self.moduli))

    def from_int(self, n: int):
        if self.is_simple:
            return n % self.pM
        return self._canon((n,) + (0,) * (len(self.moduli) - 1))

    def from_coeffs(self, vec: Sequence[int]):
        """Build a scalar from the exact O-coefficient vector of length e*f
        (entry i*f + j is the x^j coordinate of the pi^i digit)."""
        if len(vec) != len(self.moduli):
            raise InvalidInput(
                f"coefficient vector of length {len(vec)}, expected {len(self.moduli)}"
            )
        if self.is_simple:
            return vec[0] % self.pM
        return self._canon(vec)

    def to_coeffs(self, x) -> Tuple[int, ...]:
        return (x,) if self.is_simple else x

    def check_scalar(self, x) -> None:
        if self.is_simple:
            ok = isinstance(x, (int, np.integer)) and 0 <= x < self.pM
        else:
            ok = (
                isinstance(x, tuple)
                and len(x) == len(self.moduli)
                and all(0 <= c < m for c, m in zip(x, self.moduli))
            )
        if not ok:
            raise InvalidInput(f"scalar {x!r} is not canonical for {self!r}")

    # -- arithmetic ----------------------------------------------------------

    def add(self, x, y):
        if self.is_simple:
            return (x + y) % self.pM
        return self._canon([a + b for a, b in zip(x, y)])

    def sub(self, x, y):
        if self.is_simple:
            return (x - y) % self.pM
        return self._canon([a - b for a, b in zip(x, y)])

    def neg(self, x):
        if self.is_simple:
            return (-x) % self.pM
        return self._canon([-c for c in x])

    def mul(self, x, y):
        if self.is_simple:
            return (x * y) % self.pM
        return self._canon(self.base.mul(x, y))

    def is_zero(self, x) -> bool:
        if self.is_simple:
            return x == 0
        return not any(x)

    # -- valuation structure --------------------------------------------------

    def val(self, x) -> int:
        """pi-adic valuation in [0, N]; val(0) = N."""
        if self.is_simple:
            if x == 0:
                return self.N
            v = 0
            while x % self.p == 0:
                x //= self.p
                v += 1
            return v
        best = self.N
        for a, c in enumerate(x):
            if c:
                vp = 0
                while c % self.p == 0:
                    c //= self.p
                    vp += 1
                best = min(best, self.e * vp + a // self.f)
        return best

    def pi_pow(self, v: int):
        if v >= self.N:
            return self.zero
        coords = [0] * len(self.moduli)
        coords[(v % self.e) * self.f] = self.p ** (v // self.e)
        return self.from_coeffs(coords)

    def div_pi_pow(self, x, v: int):
        """A representative of x / pi^v; requires val(x) >= v.  The result u
        satisfies u * pi^v == x exactly."""
        if v == 0:
            return x
        if self.val(x) < v:
            raise InvalidInput("div_pi_pow applied below the valuation")
        if self.is_simple:
            return x // (self.p ** v)
        return self._canon(_div_pi_pow(np.array([x], dtype=object), self, v)[0])

    def unit_part(self, x):
        """A unit u with u * pi^val(x) == x (u = 1 for x = 0)."""
        v = self.val(x)
        if v >= self.N:
            return self.one
        return self.div_pi_pow(x, v)

    def inv(self, x):
        """Inverse of a unit scalar (val 0), by Newton iteration over the
        residue-field inverse."""
        if self.val(x) != 0:
            raise InvalidInput("inverse of a non-unit")
        if self.is_simple:
            return pow(int(x), -1, self.pM)
        y0 = _residue_inverse(self.p, self.f, tuple(c % self.p for c in x[: self.f]))
        y = self.from_coeffs(y0 + (0,) * (len(self.moduli) - self.f))
        for _ in range(_newton_steps(self.N)):
            err = self.sub(self.mul(x, y), self.one)
            if self.is_zero(err):
                return y
            y = self.sub(y, self.mul(y, err))
        if self.is_zero(self.sub(self.mul(x, y), self.one)):
            return y
        raise SingularBlock(f"Newton inversion of {x!r} over {self!r} did not converge")

    def elements(self):
        """Iterate every scalar (for brute-force oracles at tiny sizes)."""
        if self.is_simple:
            return range(self.pM)
        return product(*(range(m) for m in self.moduli))

    def random_scalar(self, rng):
        if self.is_simple:
            return rng.randrange(self.pM)
        return tuple(rng.randrange(m) for m in self.moduli)


@dataclass(frozen=True)
class DiagonalForm:
    """Result of diagonalizing a matrix over a chain ring.

    coker(A) on b target coordinates is isomorphic to
    (+)_i (O/pi^N)/pi^{v_i}  (+)  (O/pi^N)^{free_cols},
    with diag_valuations = (v_i) sorted ascending (zeros contribute nothing).
    """

    diag_valuations: Tuple[int, ...]
    free_cols: int
    row_count: int
    col_count: int


def _kernel_dtype(mod: int, terms: int):
    """int64 when a sum of ``terms`` products of two residues mod ``mod``, plus
    one more residue, stays below 2^63; Python ints (object) otherwise."""
    return np.int64 if terms * (mod - 1) ** 2 + mod < 2 ** 63 else object


# Largest modulus whose valuation table is worth its memory; larger moduli
# find pivots by scanning residues instead.
VAL_TABLE_MAX = 2 ** 20


@lru_cache(maxsize=16)
def _val_table(p: int, K: int) -> np.ndarray:
    mod = p ** K
    table = np.zeros(mod, dtype=np.int8)  # K <= 20 below VAL_TABLE_MAX
    for v in range(1, K):
        table[p ** v :: p ** v] = v
    table[0] = K
    table.setflags(write=False)
    return table


def _float_exact(L: int, mod: int) -> bool:
    """Whether a float64 sum of L products of residues mod ``mod`` (a group-ring
    coefficient), plus one residue, stays below 2^53, where integers are exact."""
    return L * (mod - 1) ** 2 + mod < 2 ** 53


@dataclass(frozen=True, eq=False)
class GroupRingMatrix:
    """A matrix over the group ring (O/pi^N)[Q] (see the module docstring):
    coords[i, j, h], of shape (rels, gens, L, e*f), holds the O-coordinates
    of the coefficient of the h-th element of Q in entry (i, j), element 0
    the identity, and div[g, c] is the index of g^-1 g_c."""

    coords: np.ndarray
    div: np.ndarray

    def expand(self) -> np.ndarray:
        """The (rels L, gens L, e*f) coordinate array it stands for, in one
        gather: row g of block (i, j), g * entry, is coords[i, j, div[g]]."""
        rels, gens, L, k = self.coords.shape
        A = self.coords[np.arange(rels)[:, None, None, None], np.arange(gens)[:, None], self.div[:, None, :]]
        return A.reshape(rels * L, gens * L, k)


def _group_ring_inverse(x: np.ndarray, div: np.ndarray, p: int, K: int) -> np.ndarray:
    """Inverse over (Z/p^K)[Q] of x (float64 residues) whose augmentation a
    is a unit mod p, by Newton iteration y <- y + y (1 - x y) from a^-1.

    The error 1 - x y starts in the augmentation ideal and squares at every
    step.  That ideal is nilpotent of index at most L mod p (Jennings), so
    the error vanishes after ceil(log2(K L)) steps; a table that is not a
    group's raises SingularBlock instead of returning a wrong inverse.
    """
    mod, L = p ** K, len(x)
    a = int(x.sum()) % mod
    if a % p == 0:
        raise SingularBlock(f"augmentation {a} is not a unit mod {p}")
    one = (np.arange(L) == 0).astype(np.float64)
    y = one * pow(a, -1, mod)
    for _ in range((K * L - 1).bit_length() + 1):
        err = (one - x @ y[div]) % mod
        if not err.any():
            return y
        y = (y + y @ err[div]) % mod
    raise SingularBlock(f"Newton inversion in a group ring of order {L} mod {p}^{K} did not converge")


def _eliminate_units(R: np.ndarray, div: np.ndarray, p: int, K: int) -> Tuple[List[int], np.ndarray, int, int]:
    """Eliminate the unit entries of R (float64 residues mod p^K of shape
    (rels, gens, L), overwritten), each L pivots of the expansion, dividing
    by p whenever no unit is left and every entry is divisible by p.

    Returns (pivot valuations, residual, K', shift): the residual is an int64
    array of shape (rels', gens', L) over Z/p^K' whose pivot valuations,
    plus shift, are the rest of R's.  Requires _float_exact(L, p^K).
    """
    mod = p ** K
    L = len(div)
    vals: List[int] = []
    shift = 0
    d = 0  # the first d rows and columns are eliminated
    while d < min(R.shape[:2]):
        S = R[d:, d:]
        hit = np.flatnonzero(S.sum(axis=2) % p)
        if hit.size:
            i, j = divmod(int(hit[0]), S.shape[1])  # first unit entry, row-major
            S[[0, i]] = S[[i, 0]]
            S[:, [0, j]] = S[:, [j, 0]]
            # Z = x^-1 S[0, 1:], then T -= S[1:, 0] Z through the division table.
            Z = _group_ring_inverse(S[0, 0], div, p, K) @ S[0, 1:][:, div] % mod
            T = S[1:, 1:]
            T -= (S[1:, 0] @ Z[:, div].transpose(1, 0, 2).reshape(L, T.shape[1] * L)).reshape(T.shape)
            np.remainder(T, mod, out=T)
            vals += [shift] * L
            d += 1
        elif K > 1 and not np.fmod(S, p).any():
            S /= p
            K -= 1
            mod //= p
            shift += 1
        else:
            break
    return vals, R[d:, d:].astype(np.int64), K, shift


@lru_cache(maxsize=None)
def _structure_tensor(base: RingBase) -> np.ndarray:
    """T[a, s, t] = coordinate t of b_a * b_s for the basis b_{i*f+j} = pi^i x^j.
    b_a * b_s = pi^(i+i') x^(j+j') depends only on the two sums, so T is
    filled by index from the (2e-1)(2f-1) distinct products."""
    e, f = base.e, base.f
    k = e * f
    basis = [tuple(int(a == s) for s in range(k)) for a in range(k)]
    prods = np.empty((2 * e - 1, 2 * f - 1, k), dtype=object)
    for i, j in np.ndindex(prods.shape[:2]):
        i1, j1 = min(i, e - 1), min(j, f - 1)  # pi^i x^j = (pi^i1 x^j1)(pi^(i-i1) x^(j-j1))
        prods[i, j] = base.mul(basis[i1 * f + j1], basis[(i - i1) * f + j - j1])
    i, j = np.divmod(np.arange(k), f)
    T = prods[i[:, None] + i[None, :], j[:, None] + j[None, :]]
    T.setflags(write=False)
    return T


@lru_cache(maxsize=4096)
def _inverse_matrix(ring: ChainRing, unit: Tuple[int, ...], dtype) -> np.ndarray:
    """The multiplication matrix y -> y * unit^-1 on O-coordinates (row a is
    the coordinate vector of b_a * unit^-1), reduced like the coordinates."""
    y = ring.to_coeffs(ring.inv(ring.from_coeffs(unit)))
    M = np.tensordot(np.array(y, dtype=object), _structure_tensor(ring.base), axes=([0], [1]))
    M = (M % np.array(ring.moduli, dtype=object)).astype(dtype)
    M.setflags(write=False)
    return M


def _pi_pivot(sub: np.ndarray, ring: ChainRing, table: Optional[np.ndarray], digit: np.ndarray) -> Tuple[int, int]:
    """(row-major position, pi-valuation) of the first entry of minimal
    pi-valuation min_i (e v_p(c_i) + i) of the coordinate block ``sub``
    (``digit`` holds the i of every coordinate); valuation N when the block
    is zero."""
    p, e, N = ring.p, ring.e, ring.N
    if table is not None:
        w = table[sub]
        # One coordinate (Z_p) is its own valuation; the reduction over a
        # trivial axis would cost as much as the lookup.
        w = (w * np.int16(e) + digit).min(axis=2) if len(digit) > 1 else w[..., 0]
        pos = int(np.argmin(w))
        return pos, min(int(w.flat[pos]), N)
    for w in range(N):
        # Digit i reaches valuation <= w iff v_p(c_i) <= (w - i) // e.
        mods = np.array([p ** ((w - i) // e + 1) if i <= w else 1 for i in digit.tolist()], dtype=sub.dtype)
        hit = (sub % mods != 0).any(axis=2)
        pos = int(np.argmax(hit))
        if hit.flat[pos]:
            return pos, w
    return 0, N


def _div_pi_pow(X: np.ndarray, ring: ChainRing, v: int) -> np.ndarray:
    """Rows of O-coordinates (shape (n, e*f), every entry of pi-valuation
    >= v) divided by pi^v: divide by p^(v//e), then shift the pi-digits down
    by v mod e; the digits shifted below 0 wrap to the top divided by p."""
    s, r = divmod(v, ring.e)
    X = X // ring.p ** s
    if r:
        D = X.reshape(len(X), ring.e, ring.f)
        X = np.concatenate([D[:, r:], D[:, :r] // ring.p], axis=1).reshape(len(X), -1)
    return X


def _diagonalize_coordinates(A: np.ndarray, ring: ChainRing) -> List[int]:
    """Diagonalize a coordinate array A over O/pi^N (shape (rows, cols, e*f),
    int64 as in _kernel_dtype or Python ints) by invertible row and column
    operations over O, pivoting on an entry of minimal pi-valuation (ties
    broken by (row, col) lexicographic order); returns the pivot valuations,
    all below N.

    Every O-product is one matrix product through the structure tensor, and
    every coordinate is reduced by ring.moduli before the next one, so int64
    arrays stay within the bound of _kernel_dtype(p^M, e*f).  A itself is
    not modified.
    """
    p, k = ring.p, ring.e * ring.f
    nrows, ncols, _ = A.shape
    dtype = A.dtype
    moduli = np.array(ring.moduli, dtype=dtype)
    A = A % moduli
    # S[s, (a, t)] = T[a, s, t]: a row of coordinates times S gives the
    # multiplication matrices of its entries side by side.
    S = (_structure_tensor(ring.base) % ring.pM).astype(dtype).transpose(1, 0, 2).reshape(k, k * k)
    table = _val_table(p, ring.M) if dtype == np.int64 and ring.pM <= VAL_TABLE_MAX else None
    digit = np.repeat(np.arange(ring.e, dtype=np.int16), ring.f)

    vals: List[int] = []
    d = 0
    top = min(nrows, ncols)
    while d < top:
        pos, v = _pi_pivot(A[d:, d:], ring, table, digit)
        if v >= ring.N:
            break
        i, j = divmod(pos, ncols - d)
        i += d
        j += d
        if i != d:
            A[[d, i]] = A[[i, d]]
        if j != d:
            A[:, [d, j]] = A[:, [j, d]]
        if d + 1 < top:  # the last pivot leaves nothing to update
            unit = tuple(_div_pi_pow(A[d, d][None], ring, v)[0].tolist())
            # F[i] * pivot = A[i, d]: the row multipliers over O.
            F = _div_pi_pow(A[d + 1 :, d], ring, v) @ _inverse_matrix(ring, unit, dtype) % moduli
            c = ncols - d - 1
            P = (A[d, d + 1 :] @ S).reshape(c, k, k) % moduli
            block = A[d + 1 :, d + 1 :]
            if k == 1:  # an outer product: broadcasting is twice as fast as matmul
                block -= F[:, None] * P[None, :, 0]
            else:
                block -= (F @ P.transpose(1, 0, 2).reshape(k, c * k)).reshape(-1, c, k)
            block %= moduli
        vals.append(v)
        d += 1
    return vals


def _coordinate_array(ring: ChainRing, rows, ncols: Optional[int]) -> np.ndarray:
    """The array of shape (rows, cols, e*f) of a scalar matrix or array."""
    k = ring.e * ring.f
    if isinstance(rows, np.ndarray):
        if rows.ndim != 3 or rows.shape[2] != k:
            raise InvalidInput(f"expected an array of shape (rows, cols, {k}) for {ring!r}")
        if ncols is not None and ncols != rows.shape[1]:
            raise InvalidInput("ncols disagrees with the array shape")
        return rows.astype(ring.dtype, copy=False)
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
    coords = [[ring.to_coeffs(x) for x in r] for r in rows]
    return np.array(coords, dtype=ring.dtype).reshape(len(rows), ncols, k)


def diagonalize(ring: ChainRing, rows, ncols: Optional[int] = None) -> DiagonalForm:
    """Diagonal normal form of a relation matrix over O/pi^N (see the module
    docstring).

    ``rows`` is a sequence of length-``ncols`` scalar rows, an integer array
    of O-coordinates of shape (rows, cols, e*f), e*f = 1 included, or a
    GroupRingMatrix, a level matrix over a group ring that stands for its
    expansion; ``ncols`` is mandatory for empty matrices.  Over O = Z_p, for
    L > 1, the unit entries of a GroupRingMatrix are eliminated on its
    compact array when float64 is exact for them, and only the rest is
    expanded.  Everything else goes through one pi-adic elimination,
    _diagonalize_coordinates.  The multiset of diagonal valuations together
    with the free-column count is an isomorphism invariant of the cokernel.
    """
    vals: List[int] = []
    shift = 0
    if isinstance(rows, GroupRingMatrix):
        R, div = rows.coords, rows.div
        L = len(div)
        nrows, nc = len(R) * L, R.shape[1] * L
        if R.shape[2:] != (L, ring.e * ring.f) or div.shape != (L, L) or ncols not in (None, nc):
            raise InvalidInput(f"group-ring matrix {R.shape} with division table {div.shape} does not fit {ring!r}")
        if ring.is_simple and L > 1 and _float_exact(L, ring.pM):
            vals, R, K, shift = _eliminate_units((R[..., 0] % ring.pM).astype(np.float64), div, ring.p, ring.N)
            R, ring = R[..., None], ChainRing(ring.p, 1, 1, K)
        A = GroupRingMatrix(R.astype(ring.dtype, copy=False), div).expand()
    else:
        A = _coordinate_array(ring, rows, ncols)
        nrows, nc, _ = A.shape
    if A.size:
        vals += [v + shift for v in _diagonalize_coordinates(A, ring)]
    return DiagonalForm(tuple(sorted(vals)), nc - len(vals), nrows, nc)


def cokernel_ordq(ring: ChainRing, rows, ncols: Optional[int] = None) -> int:
    """ord_q of the cokernel of the relation matrix, |coker| = q^ord.

    Every target coordinate without a pivot counts N (it contributes a full
    O/pi^N summand); the value is always finite and exact over O/pi^N.
    """
    return ordq_from_form(diagonalize(ring, rows, ncols), ring.N)


def ordq_from_form(form: DiagonalForm, N: int, n: Optional[int] = None) -> int:
    """ord_q of the cokernel after base change O/pi^N -> O/pi^n (n <= N).

    The surjection carries an invertible diagonalization to an invertible one,
    so the valuations simply cap at n and free coordinates contribute n each.
    """
    if n is None:
        n = N
    if n > N:
        raise InvalidInput("base change target exceeds the computed truncation")
    vals = form.diag_valuations
    i = bisect_left(vals, n)  # sorted: the first i are below n, the rest count n
    return sum(vals[:i]) + n * (len(vals) - i + form.free_cols)
