"""Recovery of mu(M/pi^n), the Lambda-rank, theta and the elementary
representation from exact level-order data.

The engine computes o(n, m) = ord_q((M/pi^n)_{G_m}) on a grid and exploits

    mu(M/pi^n) = n * rank(M) + sum_i min(n, alpha_i),
    o(n, m)    = mu(M/pi^n) * p^(rm) + O(p^((r-1)m)),

so mu_n is the nearest integer to o(n, m)/p^(rm) at the top levels (mu is a
nonnegative integer, which makes the rounding exact once the error term is
dominated).  fit_mu is the one place that rounds, and an entry counts as
converged when the values rounded at the top two levels agree and neither is
a half-integer tie; nothing certifies the error term beyond that.  The first
differences D_n = mu_n - mu_(n-1) are nonnegative, nonincreasing and
eventually constant at the rank; the multiplicities are their second
differences, and elementary_from_mu is the one place that takes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .chainring import ordq_from_form
from .errors import (
    InconsistentInput,
    InconsistentProfile,
    InvalidInput,
    NotConverged,
    ProfileTooShort,
)
from .groupring import GroupSpec
from .lambda_mod import Presentation, check_expansion_budget, level_diagonal_form, quotient_pi

DEFAULT_N_MAX = 6


def default_m_range(spec: GroupSpec) -> List[int]:
    """Desk-scale default grids: levels {0..4} for r = 1, {0..2} otherwise."""
    return list(range(5)) if spec.r == 1 else list(range(3))


@dataclass(frozen=True)
class MuProfile:
    """The sequence n -> mu(M/pi^n) with diagnostics; raw[n][m] is the level
    order ord_q((M/pi^n)_{G_m})."""

    mu: Dict[int, int]
    raw: Dict[int, Dict[int, int]]
    converged: Dict[int, bool]
    c_hat: Dict[int, Fraction]


@dataclass(frozen=True)
class ElementaryRep:
    """free rank a, multiplicities (s_1, ..., s_theta) with s_theta > 0, and
    theta; mu_total = sum_i i * s_i."""

    free_rank: int
    multiplicities: Tuple[int, ...]
    theta: int
    mu_total: int

    @classmethod
    def from_data(cls, free_rank: int, mults: Sequence[int]) -> "ElementaryRep":
        mults = list(mults)
        while mults and mults[-1] == 0:
            mults.pop()
        theta = len(mults)
        mu_total = sum((i + 1) * s for i, s in enumerate(mults))
        return cls(free_rank, tuple(mults), theta, mu_total)

    def mu_of_quotient(self, n: int) -> int:
        return n * self.free_rank + sum(
            min(n, i + 1) * s for i, s in enumerate(self.multiplicities)
        )


class Fit(NamedTuple):
    """fit_mu's answer for one n."""

    mu: int
    converged: bool
    c_hat: Fraction
    rounded: Tuple[Optional[int], Optional[int]]  # (top, second); None is a tie


def fit_mu(orders: Dict[int, int], p: int, r: int) -> Fit:
    """Rounds orders/p^(rm) to the nearest integer at the top two levels; a
    half-integer tie rounds down for mu and reads None in `rounded`.  mu is
    the top level's value, converged means both values agree and neither is
    a tie, and the fitted C is the largest normalized residual
    |ord - mu p^(rm)| / p^((r-1)m) over the grid."""
    ms = sorted(orders)
    if len(ms) < 2:
        raise InvalidInput("need at least two levels")

    def nearest(m):
        scale = p ** (r * m)
        k, rem = divmod(orders[m], scale)
        return None if 2 * rem == scale else k + (2 * rem > scale)

    top, second = nearest(ms[-1]), nearest(ms[-2])
    mu = orders[ms[-1]] // p ** (r * ms[-1]) if top is None else top
    # every denominator p^((r-1)m) divides p^((r-1)top): compare the
    # residuals over that one denominator and build a single Fraction
    t = ms[-1]
    scaled = max(abs(orders[m] - mu * p ** (r * m)) * p ** ((r - 1) * (t - m)) for m in ms)
    c_hat = Fraction(scaled, p ** ((r - 1) * t))
    return Fit(mu, top is not None and top == second, c_hat, (top, second))


def mu_profile(
    P: Presentation,
    n_max: int = DEFAULT_N_MAX,
    m_range: Optional[Sequence[int]] = None,
) -> MuProfile:
    """Profiles n -> mu(M/pi^n) for n = 1..n_max.

    One unit pass per tower at truncation n_max serves every level and
    every n: the top level's pass over O/pi^n_max also gives the forms of
    the levels below it, each from a projection of its residual
    (chainring.diagonalize), and the base-change surjection O/pi^n_max ->
    O/pi^n caps each diagonal valuation at n and keeps free coordinates
    free, so the derived orders equal the direct N = n computations.
    Raises InconsistentProfile if the recovered sequence violates the
    monotonicity forced by mu(M/pi^n) = n rank + sum min(n, alpha_i), and
    TooLarge, before building anything, when the top level's expansion
    over O/pi^n_max exceeds the expansion budget.
    """
    if n_max < 1:
        raise InvalidInput("need n_max >= 1")
    ms = sorted(set(m_range)) if m_range is not None else default_m_range(P.spec)
    if len(ms) < 2:
        raise InvalidInput("need at least two levels")
    if ms[0] < 0:
        raise InvalidInput("level m must be >= 0")
    # before pi^n_max and O/pi^n_max are formed: p^n_max alone can be huge
    check_expansion_budget(P.spec, P.base, P.rels + P.gens, P.gens, ms[-1], n_max)
    # The top level's form carries those of every level below it, indexed
    # by m (DiagonalForm.below).
    top = level_diagonal_form(quotient_pi(P, n_max), ms[-1], n_max)
    forms = top.below + (top,)
    raw = {n: {m: ordq_from_form(forms[m], n_max, n) for m in ms} for n in range(1, n_max + 1)}
    fits = {n: fit_mu(orders, P.spec.p, P.spec.r) for n, orders in raw.items()}
    mu = {n: fit.mu for n, fit in fits.items()}
    first_differences(mu)  # rejects a profile of the wrong shape
    converged = {n: fit.converged for n, fit in fits.items()}
    return MuProfile(mu, raw, converged, {n: fit.c_hat for n, fit in fits.items()})


def first_differences(mu: Dict[int, int]) -> List[int]:
    """D_n = mu_n - mu_(n-1) for n = 1..n_max (mu_0 = 0).  The one check
    that a profile covers n = 1..n_max; raises InconsistentProfile unless the
    differences are nonnegative and nonincreasing, as
    mu(M/pi^n) = n rank + sum min(n, alpha_i) forces."""
    ns = sorted(mu)
    if not ns or ns != list(range(1, len(ns) + 1)):
        raise InvalidInput("profile must cover n = 1..n_max")
    deltas = [mu[n] - mu.get(n - 1, 0) for n in ns]
    for i, d in enumerate(deltas):
        if d < 0:
            raise InconsistentProfile(f"mu decreases at n={i + 1}")
        if i > 0 and d > deltas[i - 1]:
            raise InconsistentProfile(f"mu differences increase at n={i + 1}")
    return deltas


def elementary_from_mu(mu: Dict[int, int]) -> ElementaryRep:
    """Difference method: D_n = rank + #{alpha_i >= n}, so the stabilized
    tail of the first differences is the free rank and s_i = D_i - D_(i+1).

    Stabilization is accepted when the last two differences agree or the last
    difference is zero (a nonincreasing nonnegative sequence stays at zero);
    otherwise ProfileTooShort.
    """
    deltas = first_differences(mu)
    n_max = len(deltas)
    if deltas[-1] != 0 and (n_max < 2 or deltas[-1] != deltas[-2]):
        raise ProfileTooShort(
            f"differences did not stabilize by n_max={n_max}; retry with n_max={n_max + 1}"
        )
    mults = [a - b for a, b in zip(deltas, deltas[1:])]
    return ElementaryRep.from_data(deltas[-1], mults)


def recover_elementary(profile: MuProfile) -> ElementaryRep:
    """The elementary representation of a converged profile by the difference
    method (elementary_from_mu).  The representation is built from the first
    differences D_n, so mu_of_quotient(n) = D_1 + ... + D_n = profile.mu[n]
    for every n <= n_max (summation by parts); nothing is left to re-check."""
    missing = [n for n in sorted(profile.mu) if n not in profile.converged]
    if missing:
        raise InvalidInput(f"profile has no converged entry at n={missing}")
    bad = [n for n in sorted(profile.mu) if not profile.converged[n]]
    if bad:
        raise NotConverged(f"profile not converged at n={bad} (needs more levels)")
    return elementary_from_mu(profile.mu)


def solve_multiplicities(mu_vector: Sequence[int], theta: int) -> Tuple[int, ...]:
    """Solves mu_n = s_1 + 2 s_2 + ... + (n-1) s_(n-1) + n (s_n + ... + s_theta)
    for n = 1..theta by exact inversion of the staircase matrix (the inverse
    is the second-difference operator).  Rejects inputs with any negative
    multiplicity, which is exactly a violation of the monotonicity of the
    first differences."""
    if theta < 1:
        raise InvalidInput("need theta >= 1")
    if len(mu_vector) != theta:
        raise InvalidInput("mu vector must have length theta")
    mu = [0] + [int(v) for v in mu_vector]
    s = []
    for n in range(1, theta):
        s.append(-mu[n - 1] + 2 * mu[n] - mu[n + 1])
    s.append(mu[theta] - mu[theta - 1])
    if any(v < 0 for v in s):
        raise InconsistentInput(f"no nonnegative solution: s = {tuple(s)}")
    return tuple(s)

