import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutower import invariants
from mutower.chainring import RingBase
from mutower.errors import (
    InconsistentInput,
    InconsistentProfile,
    InvalidInput,
    NotConverged,
    ProfileTooShort,
)
from mutower.groupring import GroupSpec
from mutower.invariants import (
    MuProfile,
    fit_mu,
    mu_profile,
    recover_elementary,
    solve_multiplicities,
)
from mutower.synth import Garnish, GroundTruth, make_module

BASE2 = RingBase(2, 1, 1)
BASE3 = RingBase(3, 1, 1)
AB1 = GroupSpec.abelian(3, 1)
AB2 = GroupSpec.abelian(2, 2)


def module(gt, spec=AB1, base=None, obfuscate=True):
    return make_module(gt, spec, base or RingBase(spec.p, 1, 1), obfuscate=obfuscate)


def estimate_at(P, n, levels):
    """(mu, converged, c_hat) of mu(M/pi^n), from a profile computed at
    truncation N = n."""
    prof = mu_profile(P, n, levels)
    return prof.mu[n], prof.converged[n], prof.c_hat[n]


def test_estimate_mu_exact_elementary():
    P = module(GroundTruth(0, (2,)), obfuscate=False)
    assert estimate_at(P, 4, [0, 1, 2]) == (2, True, Fraction(0))


def test_estimate_mu_pseudonull():
    P = module(GroundTruth(0, (), (Garnish(1),)), spec=AB2, obfuscate=False)
    assert estimate_at(P, 2, [0, 1, 2, 3]) == (0, True, Fraction(1))


def test_estimate_mu_zero_module():
    P = module(GroundTruth(0, ()), obfuscate=False)
    assert estimate_at(P, 3, [0, 1]) == (0, True, Fraction(0))


def test_profile_mixed_torsion():
    # Lambda/pi + Lambda/pi^3: profile 2, 3, 4, 4
    P = module(GroundTruth(0, (1, 3), seed=5))
    prof = mu_profile(P, 4)
    assert [prof.mu[n] for n in (1, 2, 3, 4)] == [2, 3, 4, 4]
    assert all(prof.converged.values())


def test_profile_free_module():
    P = module(GroundTruth(1, ()), obfuscate=False)
    prof = mu_profile(P, 5)
    assert [prof.mu[n] for n in range(1, 6)] == [1, 2, 3, 4, 5]


def test_profile_refuses_a_negative_level(monkeypatch):
    # Only the top level is diagonalized, and a negative level must not
    # index its tower from the end: the profile refuses before any work.
    P = module(GroundTruth(0, (1, 3), seed=5))

    def refuse(*args):
        raise AssertionError("diagonalized a level of a refused profile")

    monkeypatch.setattr(invariants, "level_diagonal_form", refuse)
    with pytest.raises(InvalidInput, match="level m must be >= 0"):
        mu_profile(P, 4, [-1, 0, 1])


def test_profile_matches_estimate_mu_pointwise():
    # the shared-diagonalization pipeline equals the direct N = n computation
    from mutower.lambda_mod import coinvariants_ordq, quotient_pi

    P = module(GroundTruth(1, (2, 2), seed=9))
    prof = mu_profile(P, 4)
    for n in range(1, 5):
        Pq = quotient_pi(P, n)
        direct = {m: coinvariants_ordq(Pq, m, n) for m in prof.raw[n]}
        assert prof.raw[n] == direct
        mu, converged, c_hat, _rounded = fit_mu(direct, P.spec.p, P.spec.r)
        assert mu == prof.mu[n]
        assert converged == prof.converged[n]
        assert c_hat == prof.c_hat[n]


@pytest.mark.parametrize("orders", [{0: 2, 1: 4, 2: 10}, {0: 2, 1: 5, 2: 8}], ids=["top", "second"])
def test_fit_mu_rounds_a_half_integer_tie_down_and_does_not_converge(orders):
    # p = 2, r = 1: 10 = 2.5 * 2^2 ties at the top level, 5 = 2.5 * 2^1 at the
    # second.  Ties need p^(rm) even, so they occur only at p = 2.
    fit = fit_mu(orders, 2, 1)
    assert (fit[0], fit[1]) == (2, False)


def test_fit_mu_reports_the_top_two_roundings_with_none_for_a_tie():
    assert fit_mu({0: 2, 1: 4, 2: 10}, 2, 1).rounded == (None, 2)
    assert fit_mu({0: 2, 1: 5, 2: 8}, 2, 1).rounded == (2, None)
    # 3^2 * 4 + 4 rounds to 4 and 3 * 4 + 2 to 5 (up): not converged
    assert fit_mu({0: 4, 1: 14, 2: 40}, 3, 1) == (4, False, Fraction(4), (4, 5))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.lists(st.integers(0, 6), min_size=2, max_size=5, unique=True),
    st.data(),
)
def test_fit_mu_c_hat_is_the_largest_per_level_fraction(p, r, ms, data):
    # orders near mu p^(rm), so the residuals differ in size and sign
    mu = data.draw(st.integers(0, 8))
    orders = {}
    for m in ms:
        noise = data.draw(st.integers(-3, 3)) * p ** ((r - 1) * m + data.draw(st.integers(0, 1)))
        orders[m] = max(0, mu * p ** (r * m) + noise)
    fit = fit_mu(orders, p, r)
    expect = max(Fraction(abs(orders[m] - fit.mu * p ** (r * m)), p ** ((r - 1) * m)) for m in ms)
    assert fit.c_hat == expect


def test_recover_examples():
    def prof(mus):
        n_max = len(mus)
        return MuProfile(
            {n: mus[n - 1] for n in range(1, n_max + 1)},
            {},
            {n: True for n in range(1, n_max + 1)},
            {n: Fraction(0) for n in range(1, n_max + 1)},
        )

    rep = recover_elementary(prof([2, 3, 4, 4]))
    assert (rep.free_rank, rep.multiplicities, rep.theta) == (0, (1, 0, 1), 3)
    rep = recover_elementary(prof([1, 2, 3, 4]))
    assert (rep.free_rank, rep.theta, rep.mu_total) == (1, 0, 0)
    rep = recover_elementary(prof([0, 0]))
    assert (rep.free_rank, rep.theta) == (0, 0)


def test_recover_requires_convergence():
    prof = MuProfile({1: 1, 2: 2}, {}, {1: True, 2: False}, {1: Fraction(0), 2: Fraction(0)})
    with pytest.raises(NotConverged):
        recover_elementary(prof)


def test_recover_names_entries_without_a_converged_flag():
    # A hand-built profile with mu[2] but no converged[2] used to raise an
    # untyped KeyError.
    prof = MuProfile({1: 1, 2: 2, 3: 3}, {}, {1: True}, {})
    with pytest.raises(InvalidInput, match=r"no converged entry at n=\[2, 3\]"):
        recover_elementary(prof)


def test_recover_profile_too_short():
    # rank 1 with alpha = 5: differences (2,2,2,2,2,1) never stabilize by 6
    P = module(GroundTruth(1, (5,)), obfuscate=False)
    prof = mu_profile(P, 6)
    with pytest.raises(ProfileTooShort):
        recover_elementary(prof)


def test_recover_rejects_non_model_profile():
    prof = MuProfile(
        {1: 2, 2: 3},
        {},
        {1: True, 2: True},
        {1: Fraction(0), 2: Fraction(0)},
    )
    # deltas (2, 1): tail neither repeated nor zero
    with pytest.raises(ProfileTooShort):
        recover_elementary(prof)


def test_recover_rejects_negative_differences():
    # deltas (2, -1, -1) "stabilize" but would give free rank -1
    prof = MuProfile(
        {1: 2, 2: 1, 3: 0},
        {},
        {1: True, 2: True, 3: True},
        {n: Fraction(0) for n in (1, 2, 3)},
    )
    with pytest.raises(InconsistentProfile):
        recover_elementary(prof)


@pytest.mark.parametrize(
    "base, levels",
    [(RingBase(2, 2, 1), None), (RingBase(2, 1, 2), None), (RingBase(3, 2, 2), [0, 1, 2])],
    ids=repr,
)
def test_roundtrip_over_ramified_and_unramified_rings(base, levels):
    spec = GroupSpec.abelian(base.p, 1)
    for gt in [GroundTruth(0, (1, 2), seed=1), GroundTruth(1, (1,), seed=2), GroundTruth(0, (3,), seed=3)]:
        rep = recover_elementary(mu_profile(make_module(gt, spec, base), 6, levels))
        assert rep == gt.expected_rep()


def test_roundtrip_with_obfuscation_seeds():
    rng = random.Random(0)
    for seed in range(4):
        gt = GroundTruth(rng.randrange(2), (1, 2), seed=seed)
        rep = recover_elementary(mu_profile(module(gt), 6))
        assert rep == gt.expected_rep()


def test_solve_multiplicities_examples():
    assert solve_multiplicities([2, 3], 2) == (1, 1)
    assert solve_multiplicities([0, 0], 2) == (0, 0)
    assert solve_multiplicities([2, 4], 2) == (0, 2)


def test_solve_multiplicities_rejects_nonmonotone():
    with pytest.raises(InconsistentInput):
        solve_multiplicities([1, 3], 2)  # delta increases
    with pytest.raises(InconsistentInput):
        solve_multiplicities([3, 2], 2)  # mu decreases


def test_cross_method_agreement():
    # difference method and matrix inversion agree on torsion modules
    for gt in [GroundTruth(0, (1, 3), seed=1), GroundTruth(0, (2, 2, 4), seed=2)]:
        rep = recover_elementary(mu_profile(module(gt), 6))
        assert rep.free_rank == 0
        mu_vec = [rep.mu_of_quotient(n) for n in range(1, rep.theta + 1)]
        assert solve_multiplicities(mu_vec, rep.theta) == rep.multiplicities


def test_is_pseudonull():
    # the pi-primary part is pseudo-null exactly when theta vanishes
    def theta(P, m_range=None):
        return recover_elementary(mu_profile(P, m_range=m_range)).theta

    assert theta(module(GroundTruth(0, (), (Garnish(1),)), spec=AB2), [0, 1, 2, 3]) == 0
    assert theta(module(GroundTruth(0, (1,)))) != 0
    assert theta(module(GroundTruth(0, ()))) == 0


def test_mu_inequality_on_synth_pairs():
    # if profiles agree at n = theta(M), then mu(M) <= mu(N)
    shapes = [(1,), (2,), (1, 1), (1, 3), (2, 2), (3,), (1, 2, 2)]
    reps = [GroundTruth(0, a).expected_rep() for a in shapes]
    for rm in reps:
        if rm.theta == 0:
            continue
        for rn in reps:
            if rm.mu_of_quotient(rm.theta) == rn.mu_of_quotient(rm.theta):
                assert rm.mu_total <= rn.mu_total


def test_pseudonull_perturbation_invariance():
    # adding a Lambda/(pi, g-1) summand changes no recovered field
    for seed in range(3):
        plain = GroundTruth(0, (2, 3), seed=seed)
        garn = GroundTruth(0, (2, 3), (Garnish(2),), seed=seed + 50)
        rp = recover_elementary(mu_profile(module(plain, spec=AB2), 6, [0, 1, 2, 3]))
        rg = recover_elementary(mu_profile(module(garn, spec=AB2), 6, [0, 1, 2, 3]))
        assert rp == rg == plain.expected_rep()


def test_direct_sum_additivity_of_recovered_invariants():
    a = GroundTruth(1, (2,), seed=3)
    b = GroundTruth(0, (1, 1), seed=4)
    ra = recover_elementary(mu_profile(module(a), 6))
    rb = recover_elementary(mu_profile(module(b), 6))
    both = GroundTruth(1, (1, 1, 2), seed=5)
    rboth = recover_elementary(mu_profile(module(both), 6))
    assert rboth.mu_total == ra.mu_total + rb.mu_total
    assert rboth.free_rank == ra.free_rank + rb.free_rank
