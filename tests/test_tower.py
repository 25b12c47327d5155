"""The tower: the forms of the levels below a level M, derived from the one
unit pass at M (chainring.diagonalize, DiagonalForm.below), against forms
computed level by level."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutower import chainring, invariants
from mutower.chainring import RingBase
from mutower.errors import InvalidInput
from mutower.groupring import GroupSpec, group_level, poly_mul, poly_pi_pow
from mutower.invariants import mu_profile, recover_elementary
from mutower.lambda_mod import level_diagonal_form, presentation, quotient_pi
from mutower.synth import Garnish, GroundTruth, make_module

SPECS = [
    GroupSpec.abelian(2, 1),
    GroupSpec.abelian(3, 1),
    GroupSpec.abelian(2, 2),
    GroupSpec.abelian(3, 2),
    GroupSpec.metacyclic(3),
]


def invariant(form):
    return form.diag_valuations, form.free_cols


@st.composite
def towers(draw):
    spec = draw(st.sampled_from(SPECS))
    e, f = draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))
    garnish = ()
    if spec.r == 2:
        garnish = tuple(Garnish(j) for j in draw(st.sampled_from([(), (1,), (2,), (1, 2), (2, 2)])))
    alphas = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    gt = GroundTruth(draw(st.integers(0, 1)), alphas, garnish, seed=draw(st.integers(0, 10 ** 6)))
    N = draw(st.integers(1, 5))
    M = draw(st.integers(1, 3 if spec.r == 1 else 2))
    base = RingBase(spec.p, e, f)
    P = make_module(gt, spec, base)
    # Relations times pi^k: with the pi^N rows of quotient_pi the top pass
    # then divides by pi before it leaves its residual.
    pi_k = poly_pi_pow(base, draw(st.integers(0, 2)), spec.r)
    P = presentation(spec, base, P.gens, [[poly_mul(spec, base, pi_k, x) for x in row] for row in P.matrix])
    return quotient_pi(P, N), M, N


@settings(max_examples=120, deadline=None, derandomize=True)
@given(towers())
def test_tower_levels_match_per_level_forms(case):
    # The right-hand side runs its own unit pass at level m, on a matrix
    # reduced to level m from the presentation, so the check is independent
    # of the projection.
    P, M, N = case
    top = level_diagonal_form(P, M, N)
    assert len(top.below) == M
    for m, form in enumerate(top.below):
        assert invariant(form) == invariant(level_diagonal_form(P, m, N))


def test_quotient_levels_lie_below():
    level = group_level(GroupSpec.metacyclic(3), 2)
    assert [level.quotient(m).order for m in range(3)] == [1, 9, 81]
    for m in (-1, 3):
        with pytest.raises(InvalidInput):
            level.quotient(m)


@pytest.mark.parametrize("n_max", [19, 40])
def test_profile_above_the_int64_rule_takes_one_tower(n_max, monkeypatch):
    # Z_3 at levels 0..2.  At n_max = 19 only the top (L = 9) fails
    # _kernel_dtype, and at n_max = 40 every level L > 1 fails it; either
    # way the top level is diagonalized once, on Python ints, and derives
    # the two levels below it.  The orders for n <= 6 are those of the
    # tower at n_max = 6, since base change is exact.
    spec = GroupSpec.abelian(3, 1)
    gt = GroundTruth(0, (1, 2), seed=4)
    P = make_module(gt, spec)
    assert chainring._kernel_dtype(3 ** 40, 3) is object
    assert chainring._kernel_dtype(3 ** 19, 9) is object and chainring._kernel_dtype(3 ** 19, 3) is np.int64
    calls, below = [], []
    expand = invariants.level_diagonal_form

    def counted(Q, m, N):
        form = expand(Q, m, N)
        calls.append(m)
        below.append(len(form.below))
        return form

    monkeypatch.setattr(invariants, "level_diagonal_form", counted)
    prof = mu_profile(P, n_max, [0, 1, 2])
    assert calls == [2] and below == [2]
    tower = mu_profile(P, 6, [0, 1, 2])
    assert calls == [2, 2] and below == [2, 2]
    assert {n: prof.raw[n] for n in tower.raw} == tower.raw
    assert recover_elementary(prof) == gt.expected_rep()


def golden_grid():
    """Every preset over Z_p and the ramified Z_p[sqrt p], seeds 0 and 1,
    the r = 2 modules garnished."""
    for spec in SPECS:
        for base in (RingBase(spec.p, 1, 1), RingBase(spec.p, 2, 1)):
            for seed in (0, 1):
                garnish = (Garnish(2 - seed),) if spec.r == 2 else ()
                yield make_module(GroundTruth(seed, ((1, 3), (2,))[seed], garnish, seed=seed), spec, base)


# sha256 of the profiles of golden_grid, computed with the per-level
# diagonalization that the tower replaced (one unit pass per level).
GOLDEN_PROFILES = "56b073e247b48c20b898ca3bdeb9de90621be1156a86be8622b4530ce7f8d61d"


def test_profiles_match_the_golden_digest():
    h = hashlib.sha256()
    for P in golden_grid():
        prof = mu_profile(P)
        h.update(json.dumps([prof.raw, prof.mu, prof.converged], sort_keys=True).encode())
    assert h.hexdigest() == GOLDEN_PROFILES
