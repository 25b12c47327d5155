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
p^{ceil((N-i)/e)}.  A scalar is

  * a plain int in [0, p^N)                     when e == f == 1,
  * a tuple of e tuples of f ints otherwise (component i holds the pi^i
    coordinates).

Canonical forms are equal iff the ring elements are equal, so scalars compare
with ==.  All operations are pure; rings and scalars are immutable and safe to
share between threads.

Matrices.  A matrix over O/pi^N is one integer array of O-coordinates of
shape (rows, cols, e*f), and it has one diagonalization: restriction of
scalars.  Every row x of the matrix spans the O-multiples b * x of the basis
elements b, so multiplying by a structure tensor of O turns the array into a
(rows*ef) x (cols*ef) matrix over Z/p^K whose cokernel is the original one as
an abelian group.  For e = 1 (pi = p) that cokernel is (+) (O/p^v)
= (+) (Z/p^v)^f, so one elimination at K = N gives every O-valuation f times.
For e > 1 the Z-module structure forgets the pi-adic one (O/pi^2 and (O/pi)^2
agree over Z_p at e = 2), so one elimination per n <= N, with the rows of
pi^n appended, gives ord_q(coker / pi^n), and the valuations follow from the
differences of those orders.

Unit blocks.  A level-m expansion over O = Z_p is an array of L x L blocks,
each the matrix rho(x) of an element x of the p-group ring (Z/p^K)[Q], Q =
G/G_m of order L (row k = g_k * x).  That ring is local, so rho(x) is
invertible exactly when the augmentation of x (the sum of any row of the
block) is a unit mod p, and Schur complements and division by p keep the
block structure.  Before the per-pivot loop, _eliminate_unit_blocks removes
every such block as a whole with float64 matrix products, which are exact
below 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInput, SingularBlock


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
        # Component i of an Eisenstein vector carries precision ceil((N-i)/e).
        self.prec = tuple(-((-(N - i)) // e) for i in range(e))
        self.M = self.prec[0]
        self.pM = p ** self.M
        # Integer type of O-coordinate arrays over this ring: int64 unless
        # restricting or eliminating them could overflow it.
        self.dtype = _kernel_dtype(self.pM, e * f)
        if self.is_simple:
            self.zero = 0
            self.one = 1
            self.pi = p % (p ** N)
        else:
            gz = (0,) * f
            gone = (1,) + (0,) * (f - 1)
            self.zero = tuple(gz for _ in range(e))
            one = [gz] * e
            one[0] = gone
            self.one = tuple(one)
            self.pi = self.pi_pow(1)

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

    def _canon(self, comps) -> tuple:
        out = []
        for i in range(self.e):
            m = self.p ** self.prec[i]
            out.append(tuple(int(c) % m for c in comps[i]))
        return tuple(out)

    def from_int(self, n: int):
        if self.is_simple:
            return n % (self.p ** self.N)
        comps = [[0] * self.f for _ in range(self.e)]
        comps[0][0] = n
        return self._canon(comps)

    def from_coeffs(self, vec: Sequence[int]):
        """Build a scalar from the exact O-coefficient vector of length e*f
        (entry i*f + j is the x^j coordinate of the pi^i digit)."""
        if len(vec) != self.e * self.f:
            raise InvalidInput(
                f"coefficient vector of length {len(vec)}, expected {self.e * self.f}"
            )
        if self.is_simple:
            return vec[0] % (self.p ** self.N)
        comps = [vec[i * self.f : (i + 1) * self.f] for i in range(self.e)]
        return self._canon(comps)

    def to_coeffs(self, x) -> Tuple[int, ...]:
        if self.is_simple:
            return (x,)
        return tuple(c for comp in x for c in comp)

    def check_scalar(self, x) -> None:
        if self.is_simple:
            if not isinstance(x, (int, np.integer)) or not 0 <= x < self.p ** self.N:
                raise InvalidInput(f"scalar {x!r} is not canonical for {self!r}")
            return
        if (
            not isinstance(x, tuple)
            or len(x) != self.e
            or any(len(c) != self.f for c in x)
        ):
            raise InvalidInput(f"scalar {x!r} is not canonical for {self!r}")
        for i, comp in enumerate(x):
            m = self.p ** self.prec[i]
            if any(not 0 <= c < m for c in comp):
                raise InvalidInput(f"scalar {x!r} is not canonical for {self!r}")

    # -- arithmetic ----------------------------------------------------------

    def add(self, x, y):
        if self.is_simple:
            return (x + y) % (self.p ** self.N)
        return self._canon(
            [[x[i][j] + y[i][j] for j in range(self.f)] for i in range(self.e)]
        )

    def sub(self, x, y):
        if self.is_simple:
            return (x - y) % (self.p ** self.N)
        return self._canon(
            [[x[i][j] - y[i][j] for j in range(self.f)] for i in range(self.e)]
        )

    def neg(self, x):
        if self.is_simple:
            return (-x) % (self.p ** self.N)
        return self._canon([[-c for c in comp] for comp in x])

    def mul(self, x, y):
        if self.is_simple:
            return (x * y) % (self.p ** self.N)
        return self.from_coeffs(self.base.mul(self.to_coeffs(x), self.to_coeffs(y)))

    def is_zero(self, x) -> bool:
        if self.is_simple:
            return x == 0
        return all(c == 0 for comp in x for c in comp)

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
        for i, comp in enumerate(x):
            for c in comp:
                if c:
                    vp = 0
                    while c % self.p == 0:
                        c //= self.p
                        vp += 1
                    best = min(best, self.e * vp + i)
        return best

    def pi_pow(self, v: int):
        if v >= self.N:
            return self.zero if not self.is_simple else 0
        if self.is_simple:
            return (self.p ** v) % (self.p ** self.N)
        comps = [[0] * self.f for _ in range(self.e)]
        comps[v % self.e][0] = self.p ** (v // self.e)
        return self._canon(comps)

    def _div_pi_once(self, x):
        # Exact on representatives: requires val(x) >= 1, i.e. p | component 0.
        if self.is_simple:
            return x // self.p
        comps = [list(x[i + 1]) for i in range(self.e - 1)]
        comps.append([c // self.p for c in x[0]])
        return self._canon(comps)

    def div_pi_pow(self, x, v: int):
        """A representative of x / pi^v; requires val(x) >= v.  The result u
        satisfies u * pi^v == x exactly."""
        if v == 0:
            return x
        if self.val(x) < v:
            raise InvalidInput("div_pi_pow applied below the valuation")
        if self.is_simple:
            return x // (self.p ** v)
        y = x
        for _ in range(v):
            y = self._div_pi_once(y)
        return y

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
            return pow(int(x), -1, self.p ** self.N)
        # residue-field inverse of the mod-pi image, via c^(q-2)
        res = tuple(c % self.p for c in x[0])
        if self.f == 1:
            y0_coeffs = (pow(res[0], -1, self.p),)
        else:
            k = ChainRing(self.p, 1, self.f, 1)
            rx = (res,)
            y0 = k.one
            power = self.q - 2
            b = rx
            while power:
                if power & 1:
                    y0 = k.mul(y0, b)
                b = k.mul(b, b)
                power >>= 1
            y0_coeffs = tuple(y0[0])
        y = self.from_coeffs(y0_coeffs + (0,) * (self.e * self.f - self.f))
        for _ in range(self.N.bit_length() + 2):
            err = self.sub(self.mul(x, y), self.one)
            if self.is_zero(err):
                return y
            y = self.sub(y, self.mul(y, err))
        if self.is_zero(self.sub(self.mul(x, y), self.one)):
            return y
        raise RuntimeError("Newton inversion failed to converge")

    def elements(self):
        """Iterate every scalar (for brute-force oracles at tiny sizes)."""
        if self.is_simple:
            yield from range(self.p ** self.N)
            return

        def comps(i):
            m = self.p ** self.prec[i]
            vecs = [()]
            for _ in range(self.f):
                vecs = [v + (c,) for v in vecs for c in range(m)]
            return vecs

        stack = [comps(i) for i in range(self.e)]
        out = [()]
        for block in stack:
            out = [o + (b,) for o in out for b in block]
        yield from out

    def random_scalar(self, rng):
        if self.is_simple:
            return rng.randrange(self.p ** self.N)
        comps = tuple(
            tuple(rng.randrange(self.p ** self.prec[i]) for _ in range(self.f))
            for i in range(self.e)
        )
        return comps


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


def _scan_pivot(sub: np.ndarray, p: int, K: int) -> Tuple[int, int]:
    """(row-major position, valuation) of the first entry of minimal p-adic
    valuation; valuation K when the block is zero."""
    pv = p
    for v in range(K):
        hit = sub % pv != 0  # entries of valuation <= v
        pos = int(np.argmax(hit))
        if hit.flat[pos]:
            return pos, v
        pv *= p
    return 0, K


def _diagonalize_numpy(A: np.ndarray, p: int, K: int) -> List[int]:
    """Diagonalize A over Z/p^K by invertible row and column operations,
    pivoting on an entry of minimal p-adic valuation (ties broken by (row,
    col) lexicographic order); returns the pivot valuations, all below K.

    A holds residues in [0, p^K), as int64 (see _kernel_dtype) or as Python
    ints, and is overwritten.
    """
    mod = p ** K
    nrows, ncols = A.shape
    table = _val_table(p, K) if A.dtype == np.int64 and mod <= VAL_TABLE_MAX else None

    vals: List[int] = []
    d = 0
    top = min(nrows, ncols)
    while d < top:
        sub = A[d:, d:]
        if table is not None:
            tv = table[sub]
            pos = int(np.argmin(tv))  # row-major argmin = (row, col) lex tie-break
            v = int(tv.flat[pos])
        else:
            pos, v = _scan_pivot(sub, p, K)
        if v >= K:
            break
        i, j = divmod(pos, sub.shape[1])
        i += d
        j += d
        if i != d:
            A[[d, i], :] = A[[i, d], :]
        if j != d:
            A[:, [d, j]] = A[:, [j, d]]
        pv = p ** v
        u = int(A[d, d]) // pv
        uinv = pow(u, -1, mod)
        A[d, d:] = (A[d, d:] * uinv) % mod
        if d + 1 < nrows:
            f = A[d + 1 :, d] // pv  # exact: pivot has minimal valuation
            block = A[d + 1 :, d:]
            block -= f[:, None] * A[d, d:]
            block %= mod
        # Column operations clearing row d touch no other row: column d is
        # zero outside the pivot at this point.
        A[d, d + 1 :] = 0
        vals.append(v)
        d += 1
    return vals


def _float_exact(L: int, mod: int) -> bool:
    """Whether float64 products of L x L blocks of residues mod ``mod``, plus
    one more residue, stay below 2^53, where every integer is exact."""
    return L * (mod - 1) ** 2 + mod < 2 ** 53


def _block_inverse(B: np.ndarray, p: int, K: int) -> np.ndarray:
    """Inverse over Z/p^K of a group-ring block rho(x) (float64 residues) whose
    augmentation a is a unit mod p, by Newton iteration X <- X (2I - B X)
    from a^-1 I.

    The error I - B X starts in the augmentation ideal and squares at every
    step.  That ideal is nilpotent of index at most L mod p (Jennings), so
    the error vanishes after ceil(log2(K L)) steps; a block that is not of
    this form raises SingularBlock instead of returning a wrong inverse.
    """
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


def _swap_blocks(S: np.ndarray, i: int, L: int, axis: int) -> None:
    """Swap block row (axis 0) or block column (axis 1) i of S with block 0."""
    if i:
        S = S if axis == 0 else S.T
        S[:L], S[i * L : (i + 1) * L] = S[i * L : (i + 1) * L].copy(), S[:L].copy()


def _eliminate_unit_blocks(W: np.ndarray, p: int, K: int, L: int) -> Tuple[List[int], np.ndarray, int, int]:
    """Eliminate the unit L x L blocks of W (float64 residues mod p^K, shape
    (r L, c L), overwritten) as whole blocks, dividing by p whenever no unit
    block is left and every entry is divisible by p.

    Returns (pivot valuations, residual, K', shift): the residual is an int64
    matrix over Z/p^K' whose pivot valuations, plus shift, are the rest of
    W's.  Requires _float_exact(L, p^K).
    """
    mod = p ** K
    vals: List[int] = []
    shift = 0
    d = 0  # the first d rows and columns are eliminated
    while d < min(W.shape):
        S = W[d:, d:]
        nr, nc = S.shape[0] // L, S.shape[1] // L
        aug = S[::L].reshape(nr, nc, L).sum(axis=2) % p
        hit = np.flatnonzero(aug)
        if hit.size:
            i, j = divmod(int(hit[0]), nc)  # first unit block, row-major
            _swap_blocks(S, i, L, 0)
            _swap_blocks(S, j, L, 1)
            XA = _block_inverse(S[:L, :L], p, K) @ S[:L, L:] % mod
            T = S[L:, L:]
            T -= S[L:, :L] @ XA
            np.remainder(T, mod, out=T)
            vals += [shift] * L
            d += L
        elif K > 1 and not np.fmod(S, p).any():
            S /= p
            K -= 1
            mod //= p
            shift += 1
        else:
            break
    return vals, W[d:, d:].astype(np.int64), K, shift


@lru_cache(maxsize=None)
def _structure_tensor(base: RingBase) -> np.ndarray:
    """T[a, s, t] = coordinate t of b_a * b_s for the basis b_{i*f+j} = pi^i x^j."""
    k = base.e * base.f
    basis = [tuple(int(a == s) for s in range(k)) for a in range(k)]
    T = np.array([[base.mul(a, s) for s in basis] for a in basis], dtype=object)
    T.setflags(write=False)
    return T


def _restrict(ring: ChainRing, A: np.ndarray, mod: int) -> np.ndarray:
    """The (rows*ef) x (cols*ef) matrix over Z/mod (p^K, K <= M) whose row
    (i, a) holds the coordinates of b_a times row i of the coordinate array A;
    zero rows are dropped when ef > 1."""
    nrows, ncols, k = A.shape
    if k == 1:
        return np.remainder(A.reshape(nrows, ncols), mod)
    T = (_structure_tensor(ring.base) % mod).astype(A.dtype)
    R = np.tensordot(A % mod, T, axes=([2], [1]))  # [i, c, a, t]
    R = R.transpose(0, 2, 1, 3).reshape(nrows * k, ncols * k) % mod
    return R[np.any(R != 0, axis=1)]


def _pi_power_rows(ring: ChainRing, n: int, K: int, ncols: int) -> np.ndarray:
    """The nonzero rows b_a * pi^n * e_c over Z/p^K, restricted like _restrict:
    pi^i x^j * pi^n = p^((i+n)//e) * pi^((i+n)%e) x^j."""
    e, f = ring.e, ring.f
    k = e * f
    coords, values = [], []
    for i in range(e):
        s, t = divmod(i + n, e)
        if s < K:
            coords += [t * f + j for j in range(f)]
            values += [ring.p ** s] * f
    R = np.zeros((ncols * len(coords), ncols * k), dtype=ring.dtype)
    cols = (np.arange(ncols)[:, None] * k + np.array(coords, dtype=np.int64)).ravel()
    R[np.arange(len(cols)), cols] = values * ncols
    return R


def _coordinate_array(ring: ChainRing, rows, ncols: Optional[int]) -> Tuple[np.ndarray, int]:
    """(array of shape (rows, cols, e*f), block side L)."""
    k = ring.e * ring.f
    L = 1
    if isinstance(rows, np.ndarray):
        if rows.ndim == 4:
            nb, L, nc, _ = rows.shape
            if L == 0 or nc % L:
                raise InvalidInput("block array columns are not a multiple of the block side")
            rows = rows.reshape(nb * L, nc, rows.shape[3])
        elif rows.ndim == 2 and k == 1:
            rows = rows[:, :, None]
        if rows.ndim != 3 or rows.shape[2] != k:
            raise InvalidInput(f"expected an array of shape (rows, cols, {k}) for {ring!r}")
        if ncols is not None and ncols != rows.shape[1]:
            raise InvalidInput("ncols disagrees with the array shape")
        return rows.astype(ring.dtype, copy=False), L
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
    return np.array(coords, dtype=ring.dtype).reshape(len(rows), ncols, k), L


def diagonalize(ring: ChainRing, rows, ncols: Optional[int] = None) -> DiagonalForm:
    """Diagonal normal form of a relation matrix over O/pi^N, by restriction
    of scalars (see the module docstring).

    ``rows`` is a sequence of length-``ncols`` scalar rows, or an integer
    array of O-coordinates of shape (rows, cols, e*f) (a 2d array when e = f
    = 1); ``ncols`` is mandatory for empty matrices.  A 4d array of shape
    (block rows, L, cols, e*f) is a level expansion whose L x L blocks are
    group-ring elements (see the module docstring); over O = Z_p, for L > 1,
    its unit blocks are eliminated whole when float64 is exact for them.  The
    multiset of diagonal valuations together with the free-column count is
    an isomorphism invariant of the cokernel.
    """
    A, L = _coordinate_array(ring, rows, ncols)
    nrows, nc, k = A.shape
    if nrows == 0 or nc == 0:
        return DiagonalForm((), nc, nrows, nc)
    p, e, f, N = ring.p, ring.e, ring.f, ring.N
    if e == 1:
        # pi = p: every O-valuation appears f times over Z/p^N.
        mod = p ** N
        if L > 1 and k == 1 and _float_exact(L, mod):
            # The residues go straight into a float64 working array that only
            # the callee holds, so it is freed before the residual's loop.
            vals, R, K, shift = _eliminate_unit_blocks(
                np.remainder(A.reshape(nrows, nc), mod, out=np.empty((nrows, nc))), p, N, L
            )
        else:
            vals, R, K, shift = [], _restrict(ring, A, mod), N, 0
        vals = sorted(vals + [v + shift for v in _diagonalize_numpy(R, p, K)])
        return DiagonalForm(tuple(vals[::f]), nc - len(vals) // f, nrows, nc)
    # orders[n] = ord_q(coker / pi^n) = sum_v min(v, n) + n * free, so
    # d[n] = orders[n] - orders[n-1] = #{v >= n} + free, with d[0] = nc.
    orders = [0]
    for n in range(1, N + 1):
        K = -(-n // e)
        R = np.concatenate([_restrict(ring, A, p ** K), _pi_power_rows(ring, n, K, nc)])
        vals = _diagonalize_numpy(R, p, K)
        orders.append((sum(vals) + K * (nc * k - len(vals))) // f)
    d = [nc] + [orders[n] - orders[n - 1] for n in range(1, N + 1)]
    diag = tuple(v for v in range(N) for _ in range(d[v] - d[v + 1]))
    return DiagonalForm(diag, d[N], nrows, nc)


def cokernel_ordq(ring: ChainRing, rows, ncols: Optional[int] = None) -> int:
    """ord_q of the cokernel of the relation matrix, |coker| = q^ord.

    Every target coordinate without a pivot counts N (it contributes a full
    O/pi^N summand); the value is always finite and exact over O/pi^N.
    """
    form = diagonalize(ring, rows, ncols)
    return sum(min(v, ring.N) for v in form.diag_valuations) + ring.N * form.free_cols


def ordq_from_form(form: DiagonalForm, N: int, n: Optional[int] = None) -> int:
    """ord_q of the cokernel after base change O/pi^N -> O/pi^n (n <= N).

    The surjection carries an invertible diagonalization to an invertible one,
    so the valuations simply cap at n and free coordinates contribute n each.
    """
    if n is None:
        n = N
    if n > N:
        raise InvalidInput("base change target exceeds the computed truncation")
    return sum(min(v, n) for v in form.diag_valuations) + n * form.free_cols
