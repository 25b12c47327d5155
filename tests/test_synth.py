import random

import pytest

from mutower.chainring import ChainRing, RingBase, cokernel_ordq
from mutower.errors import InvalidGarnish, InvalidInput, TooLarge
from mutower.groupring import GroupSpec
from mutower.invariants import mu_profile, recover_elementary
from mutower.synth import (
    Garnish,
    GroundTruth,
    alpha_multisets,
    brute_force_ordq,
    corrupt_presentation,
    make_module,
)

AB1 = GroupSpec.abelian(3, 1)
AB2 = GroupSpec.abelian(2, 2)
BASE3 = RingBase(3, 1, 1)
BASE2 = RingBase(2, 1, 1)


def test_expected_rep_closed_form():
    gt = GroundTruth(2, (1, 1, 3))
    rep = gt.expected_rep()
    assert rep.free_rank == 2
    assert rep.multiplicities == (2, 0, 1)
    assert rep.theta == 3
    assert rep.mu_total == 5


def test_make_module_plain_shapes():
    P = make_module(GroundTruth(0, (2,)), AB1, BASE3, obfuscate=False)
    assert (P.gens, P.rels) == (1, 1)
    P = make_module(GroundTruth(1, ()), AB1, BASE3, obfuscate=False)
    assert (P.gens, P.rels) == (1, 0)
    P = make_module(GroundTruth(0, (1,), (Garnish(2),)), AB2, BASE2, obfuscate=False)
    assert (P.gens, P.rels) == (2, 3)


def test_make_module_roundtrip_obfuscated():
    gt = GroundTruth(0, (1, 3), seed=7)
    P = make_module(gt, AB1, BASE3)
    assert P.gens >= 2
    rep = recover_elementary(mu_profile(P, 6))
    assert rep == gt.expected_rep()


def test_obfuscation_soundness_level_orders():
    gt = GroundTruth(0, (2, 3), seed=1)
    prof_a = mu_profile(make_module(gt, AB1, BASE3), 5)
    gt2 = GroundTruth(0, (2, 3), seed=2)
    prof_b = mu_profile(make_module(gt2, AB1, BASE3), 5)
    assert prof_a.raw == prof_b.raw


def test_garnish_requires_rank_two():
    with pytest.raises(InvalidGarnish):
        make_module(GroundTruth(0, (1,), (Garnish(1),)), AB1, BASE3)
    with pytest.raises(InvalidGarnish):
        make_module(GroundTruth(0, (1,), (Garnish(3),)), AB2, BASE2)


def test_corruption_changes_level_orders():
    gt = GroundTruth(0, (2,), seed=3)
    P = make_module(gt, AB1, BASE3)
    Pbad = corrupt_presentation(P, seed=4)
    prof = mu_profile(P, 4)
    prof_bad = mu_profile(Pbad, 4)
    assert prof.raw != prof_bad.raw


def test_corruption_requires_relations():
    P = make_module(GroundTruth(1, ()), AB1, BASE3, obfuscate=False)
    with pytest.raises(InvalidInput):
        corrupt_presentation(P)


def test_brute_force_examples():
    ring = ChainRing(2, 1, 1, 2)
    assert brute_force_ordq(ring, [[2]]) == 1  # [[pi]] -> 1
    # 2x2 swap minus identity over F_2 (coinvariants of the free module)
    ring1 = ChainRing(2, 1, 1, 1)
    swap_minus_id = [[1, 1], [1, 1]]
    assert brute_force_ordq(ring1, swap_minus_id) == 1


def test_brute_force_matches_cokernel_random():
    rng = random.Random(12)
    ring = ChainRing(2, 1, 1, 2)
    for _ in range(30):
        rows = [[ring.random_scalar(rng) for _ in range(2)] for _ in range(2)]
        assert brute_force_ordq(ring, rows) == cokernel_ordq(ring, rows)


def test_brute_force_bound():
    ring = ChainRing(2, 1, 1, 3)
    with pytest.raises(TooLarge):
        brute_force_ordq(ring, [[0] * 9] * 9, 9)


def test_alpha_multisets():
    sets = alpha_multisets(range(1, 5), 3)
    assert len(sets) == 1 + 4 + 10 + 20
    assert () in sets and (4, 4, 4) in sets
    assert all(tuple(sorted(s)) == s for s in sets)


def test_metacyclic_roundtrip():
    spec = GroupSpec.metacyclic(3)
    gt = GroundTruth(1, (2,), seed=11)
    rep = recover_elementary(mu_profile(make_module(gt, spec, BASE3), 6))
    assert rep == gt.expected_rep()
