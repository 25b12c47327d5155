"""Decision procedures for "same elementary representation".

compare_modules mechanizes the profile criteria: if M is torsion and the
profiles mu(M/pi^n), mu(N/pi^n) agree for n = 1..theta(M)+1 then N is torsion
and both pi-primary parts have the same elementary representation; agreement
for every n additionally forces equal ranks.  tower_compare applies the same
integer-rounding fit to externally supplied order data (n, m) -> ord, under
the error model |residual| <= C * p^((r-1)m); this is the data-level shape of
the five-term estimates that drive the tower comparison theorems, with all
arithmetic provenance out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .chainring import _is_prime
from .errors import GridMismatch, InvalidInput, NotConverged, InconsistentProfile, ProfileTooShort
from .invariants import (
    DEFAULT_N_MAX,
    ElementaryRep,
    elementary_from_mu,
    fit_mu,
    mu_profile,
    recover_elementary,
)
from .lambda_mod import Presentation

EQUAL = "equal"
UNEQUAL = "unequal"
INCONCLUSIVE = "inconclusive"

MODE_UP_TO_THETA = "up-to-theta"
MODE_ALL_N = "all-n"

REASON_MORE_LEVELS = "not converged at the top levels (needs more levels)"
REASON_LARGER_N = "difference sequence not stabilized (needs larger n_max)"
REASON_RESIDUAL = "residual bound violated for the declared error model"
REASON_FEW_LEVELS = "insufficient levels in the grid"


@dataclass(frozen=True)
class TowerSeries:
    """Order data (n, m) -> ord_q over a rectangular grid, with its (p, r)."""

    r: int
    p: int
    data: Dict[Tuple[int, int], int]

    def __post_init__(self):
        if not _is_prime(self.p):
            raise InvalidInput(f"p = {self.p} is not prime")
        if self.r < 1:
            raise InvalidInput(f"tower dimension r = {self.r} must be >= 1")
        if not self.data:
            raise InvalidInput("empty tower series")
        ns = sorted({n for n, _ in self.data})
        ms = sorted({m for _, m in self.data})
        if ns[0] < 1:
            raise InvalidInput(f"truncation n = {ns[0]} must be >= 1")
        if ms[0] < 0:
            raise InvalidInput(f"level m = {ms[0]} must be >= 0")
        if ns != list(range(1, len(ns) + 1)):
            # ns is sorted, distinct and starts at 1 or more: the first n out
            # of place is one more than the truncation before it.
            missing = next(i for i, n in enumerate(ns, start=1) if n != i)
            raise InvalidInput(f"truncations must be n = 1..{ns[-1]}: missing n = {missing}")
        for n in ns:
            for m in ms:
                if (n, m) not in self.data:
                    raise InvalidInput(f"grid is not rectangular: missing (n={n}, m={m})")
        if any(v < 0 for v in self.data.values()):
            raise InvalidInput("orders must be nonnegative")

    @property
    def ns(self) -> Tuple[int, ...]:
        return tuple(sorted({n for n, _ in self.data}))

    @property
    def ms(self) -> Tuple[int, ...]:
        return tuple(sorted({m for _, m in self.data}))


@dataclass(frozen=True)
class Verdict:
    kind: str
    witness_n: Optional[int] = None
    reason: Optional[str] = None
    mu_profiles: Optional[Tuple[Dict[int, int], Dict[int, int]]] = None
    theta_pair: Tuple[Optional[int], Optional[int]] = (None, None)
    reps: Optional[Tuple[ElementaryRep, ElementaryRep]] = None


def _profile_and_rep(P: Presentation, n_max, m_range):
    """(profile, rep, inconclusive_reason); rep is None when not recoverable."""
    try:
        prof = mu_profile(P, n_max, m_range)
    except InconsistentProfile as exc:
        return None, None, f"{REASON_MORE_LEVELS}: {exc}"
    try:
        rep = recover_elementary(prof)
    except NotConverged:
        return prof, None, REASON_MORE_LEVELS
    except ProfileTooShort:
        return prof, None, REASON_LARGER_N
    return prof, rep, None


def compare_modules(
    P: Presentation,
    Q: Presentation,
    mode: str = MODE_ALL_N,
    m_range: Optional[Sequence[int]] = None,
    n_max: int = DEFAULT_N_MAX,
) -> Verdict:
    """Verdict on "same elementary representation of the pi-primary part".

    Mode up-to-theta compares profiles through theta(P)+1 (P must be
    recovered torsion) and, on Equal, re-derives Q's representation
    independently.  Mode all-n compares through n_max and reports the rank
    pair as well.  Non-convergence surfaces as Inconclusive with a reason
    distinguishing "needs more levels" from "needs larger n_max".
    """
    if P.spec != Q.spec or P.base != Q.base:
        raise InvalidInput("presentations live over different algebras")
    if mode not in (MODE_UP_TO_THETA, MODE_ALL_N):
        raise InvalidInput(f"unknown mode {mode!r}")

    prof_p, rep_p, reason_p = _profile_and_rep(P, n_max, m_range)
    prof_q, rep_q, reason_q = _profile_and_rep(Q, n_max, m_range)
    mu_p = prof_p.mu if prof_p else {}
    mu_q = prof_q.mu if prof_q else {}
    # every verdict below reports both profiles and whatever thetas were recovered
    shared = dict(
        mu_profiles=(dict(mu_p), dict(mu_q)),
        theta_pair=(rep_p.theta if rep_p else None, rep_q.theta if rep_q else None),
    )

    if mode == MODE_UP_TO_THETA:
        if rep_p is None:
            return Verdict(INCONCLUSIVE, reason=reason_p, **shared)
        if rep_p.free_rank != 0:
            raise InvalidInput("up-to-theta mode requires P recovered torsion")
        upto = rep_p.theta + 1
    else:
        upto = n_max

    if prof_p is None or prof_q is None:
        return Verdict(INCONCLUSIVE, reason=reason_p or reason_q, **shared)

    for n in range(1, upto + 1):
        if not (prof_p.converged[n] and prof_q.converged[n]):
            return Verdict(INCONCLUSIVE, reason=REASON_MORE_LEVELS, **shared)
        if mu_p[n] != mu_q[n]:
            return Verdict(UNEQUAL, witness_n=n, **shared)

    # Profiles agree on the decisive range; certify by recovering both sides.
    if rep_p is None or rep_q is None:
        return Verdict(INCONCLUSIVE, reason=reason_p or reason_q, **shared)
    if mode == MODE_UP_TO_THETA and rep_q != rep_p:
        return Verdict(
            INCONCLUSIVE, reason="recovered representations disagree despite matching profiles", **shared
        )
    return Verdict(EQUAL, reps=(rep_p, rep_q), **shared)


def _rep_or_none(mu: Dict[int, int]) -> Optional[ElementaryRep]:
    try:
        return elementary_from_mu(mu)
    except (InvalidInput, InconsistentProfile, ProfileTooShort):
        return None


def tower_compare(
    A: TowerSeries,
    B: TowerSeries,
    error_c: Fraction = Fraction(1),
) -> Verdict:
    """Equal iff every fitted mu_n agrees and both residual sequences obey
    |residual| <= C p^((r-1)m) on the whole grid; Unequal with the least n
    whose rounded values differ at the top two levels; Inconclusive otherwise.
    """
    if (A.p, A.r) != (B.p, B.r):
        raise GridMismatch("series disagree on (p, r)")
    if A.ns != B.ns or A.ms != B.ms:
        raise GridMismatch("series grids differ")
    error_c = Fraction(error_c)
    if error_c < 0:
        raise InvalidInput(f"the error constant C must be nonnegative, got {error_c}")
    ms = A.ms
    if len(ms) < 2:
        return Verdict(INCONCLUSIVE, reason=REASON_FEW_LEVELS)

    mu_a: Dict[int, int] = {}
    mu_b: Dict[int, int] = {}
    problem = None
    for n in A.ns:
        fa, fb = (fit_mu({m: S.data[(n, m)] for m in ms}, S.p, S.r) for S in (A, B))
        if None not in fa.rounded + fb.rounded and all(a != b for a, b in zip(fa.rounded, fb.rounded)):
            return Verdict(UNEQUAL, witness_n=n, mu_profiles=(dict(mu_a), dict(mu_b)))
        if not (fa.converged and fb.converged):
            problem = problem or REASON_MORE_LEVELS
            continue
        if fa.c_hat > error_c or fb.c_hat > error_c:
            problem = problem or REASON_RESIDUAL
            continue
        mu_a[n] = fa.mu
        mu_b[n] = fb.mu
    if problem is not None:
        return Verdict(INCONCLUSIVE, reason=problem, mu_profiles=(mu_a, mu_b))
    rep_a = _rep_or_none(mu_a)
    rep_b = _rep_or_none(mu_b)
    return Verdict(
        EQUAL,
        mu_profiles=(mu_a, mu_b),
        theta_pair=(rep_a.theta if rep_a else None, rep_b.theta if rep_b else None),
        reps=(rep_a, rep_b) if rep_a and rep_b else None,
    )
