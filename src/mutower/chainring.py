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
shape (rows, cols, e*f), and _eliminate_units is the one elimination for
every ring and matrix, with one pivot rule: pivot on a unit, and when no
unit is left and the block is not zero, divide it by pi and go on one
precision lower.  Division by pi shifts the pi-digits down, the pi^0 digit
wrapping to the top divided by p, and every O-product is one matrix product
through the structure tensor of O.  The pivot valuations, the divisions
made before each pivot, are the pi-adic valuations of the cokernel.

Unit blocks.  The elimination works on a compact array of coefficients in
a group ring (O/pi^N)[Q], Q of order L, standing for the matrix of L x L
blocks rho(x) (row k = g_k * x).  (O/pi^N)[Q] is local with maximal ideal
(pi, I), I the augmentation ideal: rho(x) is invertible exactly when the
augmentation of x is a unit of O/pi^N, and inverses, Schur complements and
division by pi stay in the group ring.  A pivot's inverse and Schur update
are formed only when its row and its column both have a nonzero entry
left; when either is clear, the complement is the block as it stands.
Blocks of group-ring entries are gathered, through the division table or
a stage, by one ndarray.take along the group axis.  A plain matrix is the
case Q = 1, where I = 0: every non-unit lies in (pi), and the pass
diagonalizes whole.
A level-m matrix is a GroupRingMatrix over Q = G/G_m, eliminated on the
compact array with group-ring products (L^2 O-products each).  Every pass
runs in int64 when the one exactness rule _kernel_dtype(p^M', L' e f)
allows it for the order L' of its group and its precision N', and on
Python ints otherwise, so a Python-int level goes back to int64 at the
first stage small enough.  What is left after a pass descends through
index-p subgroups Q > Q' > ... down to the trivial group, each
Q_d = <g_1^(p^d_1), ..., g_r^(p^d_r)>: restricted to Q'
(groupring.GroupLevel.stage), an entry such as g - 1, in the augmentation
ideal of Q, has diagonal blocks -1 over a Q' that does not contain g.  Each
step strips one base-p digit of the first generator whose restriction has
a unit entry (_next_generator), so that a g_2 - 1 entry is cleared as soon
as a g_1 - 1 one would be, and _eliminate_units runs again after it
(_pivots), until no residual is left or Q_d = 1.  _restrict is the one
gather; the expansion is the restriction to the trivial subgroup.  The
order of Q's elements is the level's: its tables, stages and digit sums.

Towers.  One unit pass per tower: a level-M matrix with its level also
yields the forms of every level m < M (_tower, DiagonalForm.below).  The
augmentation of G/G_M factors through G/G_m, and the projection
(O/pi^N)[G/G_M] -> (O/pi^N)[G/G_m] is a ring map, so it carries every step
of the pass over G/G_M, divisions by pi included, to level m, where each
pivot stands for L_m pivots of the same valuation.  Only the residual is
projected (GroupLevel.digit_sums), and every level, M included, ends in
_pivots on its residual.  Level M's loop starts at its first restriction,
since the top pass was its pass over G/G_M.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
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
    @lru_cache(maxsize=256)
    def from_base(cls, base: RingBase, N: int) -> "ChainRing":
        """O/pi^N, one shared instance per (base, N): rings are immutable."""
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
    # The forms of the quotient levels m < M of a level-M matrix, indexed by
    # m, which diagonalize derives from its one pass (_tower); empty for a
    # plain matrix and at level 0.  Their row counts are those of the
    # level-M matrix's rows at level m, relations that vanish at m included.
    below: Tuple["DiagonalForm", ...] = field(default=(), compare=False, repr=False)


def _kernel_dtype(mod: int, terms: int):
    """int64 when a sum of ``terms`` products of two residues mod ``mod``, plus
    one more residue, stays below 2^63; Python ints (object) otherwise."""
    return np.int64 if terms * (mod - 1) ** 2 + mod < 2 ** 63 else object


@dataclass(frozen=True, eq=False)
class GroupRingMatrix:
    """A matrix over the group ring (O/pi^N)[Q] (see the module docstring):
    coords[i, j, h], of shape (rels, gens, L, e*f), holds the O-coordinates
    of the coefficient of the h-th element of Q in entry (i, j), element 0
    the identity, in the order of level, the group level of Q
    (groupring.GroupLevel, read through its m, spec, division_table(),
    stage(d, k), digit_sums(X, d, keep) and quotient(m)), through whose
    index-p subgroups the unit passes descend (_pivots) and whose quotient
    levels diagonalize derives from the first pass (_tower)."""

    coords: np.ndarray
    level: object

    @property
    def div(self) -> np.ndarray:
        """The division table of the level: div[g, c] is the index of g^-1 g_c."""
        return self.level.division_table()

    def expand(self) -> np.ndarray:
        """The (rels L, gens L, e*f) coordinate array it stands for: the
        restriction to the trivial subgroup, whose p x p blocks are L x L,
        gather div[g, c, 0] = g^-1 g_c (row g of block (i, j) is g * entry)."""
        return _restrict(self.coords, self.div[:, :, None])[:, :, 0]


def _group_ring_products(X: np.ndarray, Y: np.ndarray, div: np.ndarray, S: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """The products X_i Y_j in (O/pi^N)[Q] of the O-coordinates X (shape
    (r, L, k)) and Y (shape (c, L, k)), k = e*f > 1, as an array of shape
    (r, c, L, k) that is not reduced: (X_i Y_j)(h) = sum_g X_i(g) Y_j(g^-1 h),
    one matrix product over (g, a) of Y gathered at g^-1 h (one take of
    div.T along the group axis) and the multiplication matrices of the
    X_i(g) (S as in _product_matrix), so each coordinate sums L k products of
    residues."""
    r, L, k = X.shape
    c = len(Y)
    MX = (X @ S).reshape(r * L, k, k) % moduli  # MX[(i, g), a, t]: coordinate t of b_a X_i(g)
    Z = Y.take(div.T, axis=1).reshape(c * L, L * k) @ MX.reshape(r, L * k, k).transpose(1, 0, 2).reshape(L * k, r * k)
    return Z.reshape(c, L, r, k).transpose(2, 0, 1, 3)


def _group_ring_inverse(x: np.ndarray, div: np.ndarray, ring: "ChainRing") -> np.ndarray:
    """Inverse over (O/pi^N)[Q] of x (O-coordinates of shape (L, e*f), or
    residues of shape (L,) when e*f = 1, in x's dtype) whose augmentation a
    is a unit.

    With u = 1 - a^-1 x, x^-1 = (1 + u + u^2 + ...) a^-1, summed as Newton
    iteration does: y <- y (1 + u^(2^s)), each step one product to extend y
    and one to square the error.  u lies in the augmentation ideal, which is
    nilpotent of index at most L mod p (Jennings), so the error vanishes after
    ceil(log2(N L)) squarings; a table that is not a group's raises
    SingularBlock instead of returning a wrong inverse.  a^-1 comes from
    _inverse_matrix, computed once per ring and augmentation.  Over the
    trivial group (L = 1) x is a and the inverse is a^-1 itself.
    """
    L = len(x)
    if x.ndim == 1:
        mod = ring.pM
        a = int(x.sum()) % mod
        if a % ring.p == 0:
            raise SingularBlock(f"augmentation {a} is not a unit mod {ring.p}")
        a_inv = pow(a, -1, mod)
        if L == 1:
            return np.array([a_inv], dtype=x.dtype)

        def mul(u, v):
            return u @ v[div]

        def scale(u):  # u a^-1
            return u * a_inv % mod
    else:
        mod = np.array(ring.moduli, dtype=x.dtype)
        a = x.sum(axis=0) % mod
        if not (a[: ring.f] % ring.p).any():
            raise SingularBlock(f"augmentation {tuple(a.tolist())} is not a unit of {ring!r}")
        a_inv = _inverse_matrix(ring, tuple(a.tolist()), x.dtype)
        if L == 1:
            return a_inv[:1].copy()  # row 0: the coordinates of 1 * a^-1
        S = _product_matrix(ring, x.dtype)

        def mul(u, v):
            return _group_ring_products(u[None], v[None], div, S, mod)[0, 0]

        def scale(u):
            return u @ a_inv % mod
    one = np.zeros(x.shape, x.dtype)
    one.flat[0] = 1
    y, err = one, (one - scale(x)) % mod  # y (1 - u) = 1 - err
    for _ in range((ring.N * L - 1).bit_length() + 1):
        if not err.any():
            return scale(y)
        y = (y + (err if y is one else mul(y, err))) % mod  # y = 1 needs no product
        err = mul(err, err) % mod
    raise SingularBlock(f"Newton inversion in a group ring of order {L} over {ring!r} did not converge")


def _eliminate_units(R: np.ndarray, div: np.ndarray, ring: "ChainRing") -> Tuple[List[int], np.ndarray, "ChainRing", int]:
    """Eliminate the unit entries of R (O-coordinates over ring = O/pi^N of
    shape (rels, gens, L, e*f), or residues of shape (rels, gens, L) when
    e*f = 1; reduced), each L pivots of the expansion, dividing
    by pi whenever no unit is left, the block is not zero and every entry
    lies in (pi).  Over the trivial group (L = 1, div = [[0]]) every
    non-unit lies in (pi), so the pass diagonalizes R whole.

    A pivot x takes the Schur update T - B[1:, 0] x^-1 B[0, 1:], and its
    inverse is formed, only when its column B[1:, 0] and its row B[0, 1:]
    both have a nonzero entry: otherwise the update is T, which is already
    reduced.  Blocks are gathered through the division table by take along
    the group axis.

    The pass runs in the dtype of the one exactness rule, int64 when
    _kernel_dtype(p^M, L e f) is and object (Python ints) otherwise: R is
    cast to it first, and overwritten only when it already has it.  Returns
    (pivot valuations, residual, ring', shift): the residual, a view of the
    array the pass ran on, over ring' = O/pi^N', has the rest of R's pivot
    valuations less shift.
    """
    p, f = ring.p, ring.f
    L = len(div)
    R = R.astype(_kernel_dtype(ring.pM, L * ring.e * ring.f), copy=False)
    simple = R.ndim == 3
    if simple:
        mod = ring.pM
    else:
        mod = np.array(ring.moduli, dtype=R.dtype)
        S = _product_matrix(ring, R.dtype)  # reduced mod p^M, it serves every lower precision too
    vals: List[int] = []
    shift = 0
    d = 0  # the first d rows and columns are eliminated
    while d < min(R.shape[:2]):
        B = R[d:, d:]
        # A unit's augmentation has pi^0-digit coordinates not all divisible
        # by p (f = 1 when e*f = 1): the first unit entry, row-major, holds
        # the first such coordinate.
        hit = ((B.sum(axis=2) if simple else B[..., :f].sum(axis=2)) % p).ravel().nonzero()[0]
        if hit.size:
            i, j = divmod(int(hit[0]) // f, B.shape[1])
            if i:
                B[[0, i]] = B[[i, 0]]
            if j:
                B[:, [0, j]] = B[:, [j, 0]]
            # A clear column or row (the last pivot's is empty) leaves T as it is.
            if B[1:, 0].any() and B[0, 1:].any():
                # Z = x^-1 B[0, 1:], then T -= B[1:, 0] Z through the division table.
                inv = _group_ring_inverse(B[0, 0], div, ring)
                T = B[1:, 1:]
                if simple:
                    Z = inv @ B[0, 1:].take(div, axis=1) % mod
                    T -= (B[1:, 0] @ Z.take(div, axis=1).transpose(1, 0, 2).reshape(L, T.shape[1] * L)).reshape(T.shape)
                else:
                    Z = _group_ring_products(inv[None], B[0, 1:], div, S, mod)[0] % mod
                    T -= _group_ring_products(B[1:, 0], Z, div, S, mod)
                np.remainder(T, mod, out=T)
            vals += [shift] * L
            d += 1
        elif ring.N > 1 and B.any() and not (B % p if simple else B[..., :f] % p).any():
            if simple:
                B //= p
            else:
                B[...] = _div_pi_pow(B, ring, 1)
            ring = ChainRing.from_base(ring.base, ring.N - 1)
            mod = ring.pM if simple else np.array(ring.moduli, dtype=R.dtype)
            shift += 1
        else:
            break
    return vals, R[d:, d:], ring, shift


def _next_generator(R: np.ndarray, d: Tuple[int, ...], level, ring: "ChainRing") -> int:
    """The generator g_k whose digit d_k the descent strips next from Q_d
    (R as in _eliminate_units, over Q_d in the group level ``level``): the
    first whose restriction has a unit entry, else the first with digits left.

    Q' = Q_(d + e_k) has index p, so it is normal, and block (s, s') of a
    restricted entry x has as augmentation the sum of x over the coset
    Q' t_s^-1 t_s'.  So the p coset sums of each entry decide
    (level.digit_sums), and no table is built."""
    left = [k for k, dk in enumerate(d) if dk < level.m]
    if len(left) > 1:
        p = ring.p
        X = R[..., None] if R.ndim == 3 else R[..., : ring.f]  # the pi^0-digit coordinates
        for k in left:
            keep = tuple(p if j == k else 1 for j in range(len(d)))
            if (level.digit_sums(X, d, keep) % p).any():
                return k
    return left[0]


def _pivots(R: np.ndarray, div: np.ndarray, ring: "ChainRing", level, passed: bool = False) -> List[int]:
    """Pivot valuations of R (reduced, as in _eliminate_units, over ring) over
    the group Q_d with division table div: a unit pass over Q_d and, while a
    residual is left and Q_d is not trivial, a restriction to the index-p
    subgroup that _next_generator picks (level.stage) and a pass over it, down
    to the trivial group, whose restriction is the expansion of what is
    left.  A plain matrix (L = 1) takes the one pass and reads no level.
    ``passed`` marks an R that is already the residual of a pass over Q_d:
    the loop then starts at its first restriction."""
    vals: List[int] = []
    shift = 0
    d = (0,) * level.spec.r if len(div) > 1 else ()
    while True:
        if not passed:
            more, R, ring, s = _eliminate_units(R, div, ring)
            vals += [v + shift for v in more]
            shift += s
        passed = False
        if len(div) == 1 or not R.any():
            return vals
        k = _next_generator(R, d, level, ring)
        gather, div = level.stage(d, k)
        R = _restrict(R, gather)
        d = d[:k] + (d[k] + 1,) + d[k + 1 :]


def _restrict(R: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """R (shape (rels, gens, L, ...)) over a subgroup of index p, in one
    gather, a take along the group axis: entry (i, j) becomes the p x p
    block R[i, j, gather[s, s']] at rows i p + s and columns j p + s'."""
    rels, gens = R.shape[:2]
    p, _, L = gather.shape
    return R.take(gather, axis=2).swapaxes(1, 2).reshape(rels * p, gens * p, L, *R.shape[3:])


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


@lru_cache(maxsize=64)
def _product_matrix(ring: ChainRing, dtype) -> np.ndarray:
    """S[s, (a, t)] = T[a, s, t] mod the p^M of ring, of shape (k, k k): a
    row of O-coordinates times S gives the multiplication matrices of its
    entries side by side."""
    k = ring.e * ring.f
    S = (_structure_tensor(ring.base) % ring.pM).astype(dtype).transpose(1, 0, 2).reshape(k, k * k)
    S.setflags(write=False)
    return S


@lru_cache(maxsize=4096)
def _inverse_matrix(ring: ChainRing, unit: Tuple[int, ...], dtype) -> np.ndarray:
    """The multiplication matrix y -> y * unit^-1 on O-coordinates (row a is
    the coordinate vector of b_a * unit^-1), reduced like the coordinates."""
    y = ring.to_coeffs(ring.inv(ring.from_coeffs(unit)))
    M = np.tensordot(np.array(y, dtype=object), _structure_tensor(ring.base), axes=([0], [1]))
    M = (M % np.array(ring.moduli, dtype=object)).astype(dtype)
    M.setflags(write=False)
    return M


def _div_pi_pow(X: np.ndarray, ring: ChainRing, v: int) -> np.ndarray:
    """O-coordinates (last axis e*f, every entry of pi-valuation >= v)
    divided by pi^v: divide by p^(v//e), then shift the pi-digits down by
    v mod e; the digits shifted below 0 wrap to the top divided by p."""
    s, r = divmod(v, ring.e)
    X = X // ring.p ** s
    if r:
        D = X.reshape(*X.shape[:-1], ring.e, ring.f)
        X = np.concatenate([D[..., r:, :], D[..., :r, :] // ring.p], axis=-2).reshape(X.shape)
    return X


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


def _form(vals: List[int], nrows: int, nc: int) -> DiagonalForm:
    return DiagonalForm(tuple(sorted(vals)), nc - len(vals), nrows, nc)


def _tower(R: np.ndarray, ring: ChainRing, level) -> DiagonalForm:
    """The form of a level matrix R over Q = G/G_M (reduced, as in
    _eliminate_units), with those of its quotient levels m < M in
    ``below``, from one unit pass over Q.

    The augmentation of Q factors through every quotient, so an entry is a
    unit over Q exactly when its projection is one at level m; and the
    projection is a ring map, so it carries every step of the pass,
    divisions by pi included, to a valid step at level m.  So level m has
    the pass's pivots, each standing for L_m pivots there with the same
    valuation, and those of the projection of the residual (level.digit_sums,
    then _pivots over G/G_m).  Level M takes the residual itself, last, as
    its passes overwrite it, and starts at its first restriction: a pass
    over Q would find nothing, since the top pass stopped there."""
    rels, gens, L = R.shape[:3]
    p, r = level.spec.p, level.spec.r
    top, R, ring, shift = _eliminate_units(R, level.division_table(), ring)
    top = top[::L]  # one entry per pivot: each stands for L of the expansion
    mod = ring.pM if ring.is_simple else np.array(ring.moduli, dtype=R.dtype)
    forms = []
    for m in range(level.m + 1):
        sub, X = (level, R) if m == level.m else (level.quotient(m), level.digit_sums(R, (0,) * r, (p ** m,) * r) % mod)
        div = sub.division_table()
        Lm, more = len(div), _pivots(X, div, ring, sub, passed=m == level.m)
        forms.append(_form(top * Lm + [v + shift for v in more], rels * Lm, gens * Lm))
    return replace(forms[-1], below=tuple(forms[:-1]))


def diagonalize(ring: ChainRing, rows, ncols: Optional[int] = None) -> DiagonalForm:
    """Diagonal normal form of a relation matrix over O/pi^N (see the module
    docstring).

    ``rows`` is a sequence of length-``ncols`` scalar rows, an integer array
    of O-coordinates of shape (rows, cols, e*f), e*f = 1 included, or a
    GroupRingMatrix, a level matrix over a group ring that stands for its
    expansion; ``ncols`` is mandatory for empty matrices.  The unit entries
    of a GroupRingMatrix are eliminated on its compact array, and its form
    gets those of every quotient level m < M in ``below``, each from a
    projection of that one pass's residual (_tower).  Every matrix ends in
    the one loop _pivots: passes of _eliminate_units over the subgroups of
    its level, each restricted from the last, down to the trivial group,
    where the pass diagonalizes whole; a plain matrix is a matrix over the
    trivial group and takes that last pass alone.  The multiset of diagonal
    valuations with the free-column count is an isomorphism invariant of
    the cokernel.
    """
    if isinstance(rows, GroupRingMatrix):
        R, L = rows.coords.astype(ring.dtype, copy=False), len(rows.div)
        if R.shape[2:] != (L, ring.e * ring.f) or ncols not in (None, R.shape[1] * L):
            raise InvalidInput(f"group-ring matrix {R.shape} over a group of order {L} does not fit {ring!r}")
        # e*f = 1 takes the pass on plain residues, without the O-coordinate axis.
        R = R[..., 0] % ring.pM if ring.is_simple else R % np.array(ring.moduli, dtype=R.dtype)
        return _tower(R, ring, rows.level)
    A = _coordinate_array(ring, rows, ncols)
    A = A % np.array(ring.moduli, dtype=A.dtype)  # a reduced copy that the pass may overwrite
    vals = _pivots(A if ring.is_simple else A[:, :, None], np.zeros((1, 1), dtype=np.intp), ring, None)
    return _form(vals, *A.shape[:2])


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
