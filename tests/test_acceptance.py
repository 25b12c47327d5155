"""Acceptance suite.

Each test implements one criterion at its stated tolerance and prints a
single PASS line with its statistics (run pytest -s to see them).  The
synthesized corpus is built once per session and shared.
"""

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from mutower import cli
from mutower.chainring import ChainRing, RingBase, cokernel_ordq
from mutower.compare import (
    EQUAL,
    MODE_UP_TO_THETA,
    UNEQUAL,
    TowerSeries,
    compare_modules,
    tower_compare,
)
from mutower.errors import InconsistentInput
from mutower.groupring import GroupSpec
from mutower.invariants import mu_profile, recover_elementary, solve_multiplicities
from mutower.lambda_mod import koszul_homology_ordq, quotient_pi
from mutower.modfile import save_presentation, save_tower_csv
from mutower.synth import (
    Garnish,
    GroundTruth,
    alpha_multisets,
    brute_force_ordq,
    make_module,
)

GRID_SPECS = [
    GroupSpec.abelian(2, 1),
    GroupSpec.abelian(2, 2),
    GroupSpec.abelian(3, 1),
    GroupSpec.abelian(3, 2),
]
ALPHAS = alpha_multisets(range(1, 5), 3)
SEEDS = range(5)


@dataclass
class Record:
    gt: GroundTruth
    spec: GroupSpec
    profile: object
    rep: object


def _run_case(gt, spec, m_range=None):
    base = RingBase(spec.p, 1, 1)
    P = make_module(gt, spec, base)
    profile = mu_profile(P, 6, m_range)
    rep = recover_elementary(profile)
    return Record(gt, spec, profile, rep)


@pytest.fixture(scope="session")
def corpus():
    records = []
    for spec in GRID_SPECS:
        for a in (0, 1, 2):
            for alphas in ALPHAS:
                for seed in SEEDS:
                    records.append(_run_case(GroundTruth(a, alphas, seed=seed), spec))
    # the metacyclic preset is exercised over the full shape grid, one seed
    meta = GroupSpec.metacyclic(3)
    for a in (0, 1, 2):
        for alphas in ALPHAS:
            records.append(_run_case(GroundTruth(a, alphas, seed=9), meta))
    return records


@pytest.fixture(scope="session")
def garnished_corpus():
    records = []
    for spec, m_range, seeds in [
        (GroupSpec.abelian(2, 2), [0, 1, 2, 3], range(3)),
        (GroupSpec.abelian(3, 2), None, range(3)),
        (GroupSpec.metacyclic(3), None, range(2)),
    ]:
        for alphas in [(), (2,), (1, 3)]:
            for seed in seeds:
                gt = GroundTruth(0, alphas, (Garnish(1 + seed % 2),), seed=seed)
                records.append((_run_case(gt, spec, m_range), m_range))
    return records


def test_criterion_1_elementary_roundtrip(corpus):
    t0 = time.time()
    failures = [
        (rec.gt, rec.spec, rec.rep)
        for rec in corpus
        if rec.rep != rec.gt.expected_rep()
    ]
    assert len(corpus) >= 300
    assert not failures, failures[:5]
    print(
        f"\nPASS criterion 1 (elementary round trip): {len(corpus)} cases exact "
        f"[checked in {time.time() - t0:.1f}s]"
    )


def test_criterion_2_asymptotic_residuals(corpus, garnished_corpus):
    checked = 0
    for rec, expect_zero in [(r, True) for r in corpus] + [
        (r, False) for r, _mr in garnished_corpus
    ]:
        spec, gt = rec.spec, rec.gt
        p, r = spec.p, spec.r
        true_rep = gt.expected_rep()
        ms = sorted(rec.profile.raw[1])
        c_fit = Fraction(0)
        per_n = {}
        for n in range(1, 5):
            mu_n = true_rep.mu_of_quotient(n)
            res = {
                m: Fraction(
                    abs(rec.profile.raw[n][m] - mu_n * p ** (r * m)),
                    p ** ((r - 1) * m),
                )
                for m in ms
            }
            per_n[n] = res
            c_fit = max(c_fit, *res.values())
        # single fitted C bounds every residual (by construction) and the
        # normalized residual is non-increasing across the top two levels
        for n, res in per_n.items():
            assert res[ms[-1]] <= res[ms[-2]], (gt, spec, n, res)
            assert res[ms[-1]] <= c_fit
        if expect_zero:
            assert c_fit == 0, (gt, spec, c_fit)
        else:
            assert c_fit <= len(gt.garnish), (gt, spec, c_fit)
        checked += 1
    print(f"\nPASS criterion 2 (asymptotic residuals): {checked} modules, C=0 on pure elementary")


def test_criterion_3_homology_euler_characteristic(garnished_corpus):
    # alternating Koszul sum at m = 0 equals recovered mu, abelian r in {1,2}
    checked = 0
    for p, r in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        spec = GroupSpec.abelian(p, r)
        base = RingBase(p, 1, 1)
        for alphas in alpha_multisets(range(1, 4), 2):
            for seed in (0, 1):
                gt = GroundTruth(0, alphas, seed=seed)
                P = make_module(gt, spec, base)
                N = max(alphas, default=1)
                sums = [
                    (-1) ** i * koszul_homology_ordq(P, 0, i, N) for i in range(r + 1)
                ]
                rep = recover_elementary(mu_profile(P, 6))
                assert sum(sums) == rep.mu_total == gt.expected_rep().mu_total
                checked += 1
    # garnished pi-primary modules (r = 2 presets, abelian only)
    for rec, m_range in garnished_corpus:
        if rec.spec.kind != "abelian":
            continue
        gt, spec = rec.gt, rec.spec
        P = make_module(gt, spec, RingBase(spec.p, 1, 1))
        N = max(gt.alphas, default=1)
        alt = sum(
            (-1) ** i * koszul_homology_ordq(P, 0, i, N) for i in range(spec.r + 1)
        )
        assert alt == rec.rep.mu_total, (gt, spec)
        checked += 1
    # H_i(G_m, Lambda/pi^alpha) = 0 for i >= 1, exact, at all computed m
    vanish = 0
    for p, r in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        spec = GroupSpec.abelian(p, r)
        base = RingBase(p, 1, 1)
        free = make_module(GroundTruth(1, ()), spec, base, obfuscate=False)
        for alpha in range(1, 5):
            P = quotient_pi(free, alpha)
            for m in (0, 1, 2):
                assert koszul_homology_ordq(P, m, 0, alpha) == alpha * p ** (r * m)
                for i in range(1, r + 1):
                    assert koszul_homology_ordq(P, m, i, alpha) == 0
                    vanish += 1
    print(
        f"\nPASS criterion 3 (homology Euler characteristic): {checked} Euler checks, "
        f"{vanish} exact vanishings"
    )


def test_criterion_4_multiplicity_matrix(corpus):
    agree = 0
    for rec in corpus:
        if rec.rep.free_rank != 0 or rec.rep.theta == 0:
            continue
        mu_vec = [rec.profile.mu[n] for n in range(1, rec.rep.theta + 1)]
        assert solve_multiplicities(mu_vec, rec.rep.theta) == rec.rep.multiplicities
        agree += 1
    # 50 seeded perturbations violating the monotonicity of the differences
    rng = random.Random(424242)
    rejected = 0
    for _ in range(50):
        theta = rng.randrange(2, 6)
        s = [rng.randrange(0, 3) for _ in range(theta - 1)] + [rng.randrange(1, 3)]
        mu = [sum(min(n, i + 1) * si for i, si in enumerate(s)) for n in range(1, theta + 1)]
        i = rng.randrange(1, theta)  # 1-based position to bump
        neighbor = s[i] if i < theta else 0
        prev = s[i - 2] if i >= 2 else None
        k = max(neighbor, prev if prev is not None else 0) + 1
        mu[i - 1] += k
        # verify the perturbation breaks convexity before asserting rejection
        full = [0] + mu
        second = [
            -full[n - 1] + 2 * full[n] - full[n + 1] for n in range(1, theta)
        ] + [full[theta] - full[theta - 1]]
        assert any(v < 0 for v in second)
        with pytest.raises(InconsistentInput):
            solve_multiplicities(mu, theta)
        rejected += 1
    assert agree >= 100
    print(
        f"\nPASS criterion 4 (multiplicity matrix): {agree} cross-method agreements, "
        f"{rejected}/50 perturbed vectors rejected"
    )


def test_criterion_5_comparison_soundness():
    shapes = [
        (0, ()),
        (0, (1,)),
        (0, (2,)),
        (0, (3,)),
        (0, (1, 1)),
        (0, (1, 3)),
        (0, (2, 2)),
        (0, (1, 2, 4)),
        (0, (4,)),
        (0, (2, 3)),
    ]
    settings = [
        (GroupSpec.abelian(2, 1), None),
        (GroupSpec.abelian(3, 1), None),
        (GroupSpec.abelian(2, 2), [0, 1, 2, 3]),
        (GroupSpec.abelian(3, 2), None),
        (GroupSpec.metacyclic(3), None),
    ]
    rng = random.Random(99)
    equal_checked = unequal_checked = 0
    for i in range(50):
        spec, m_range = settings[i % len(settings)]
        base = RingBase(spec.p, 1, 1)
        a, alphas = shapes[rng.randrange(len(shapes))]
        garnish = ()
        if spec.r >= 2 and i % 2 == 0:
            garnish = (Garnish(1 + i % 2),)
        P = make_module(GroundTruth(a, alphas, seed=rng.randrange(10 ** 6)), spec, base)
        Q = make_module(
            GroundTruth(a, alphas, garnish, seed=rng.randrange(10 ** 6)), spec, base
        )
        v = compare_modules(P, Q, MODE_UP_TO_THETA, m_range=m_range)
        assert v.kind == EQUAL, (spec, alphas, garnish, v)
        assert v.reps[0] == v.reps[1]
        equal_checked += 1
    for i in range(50):
        spec, m_range = settings[i % len(settings)]
        base = RingBase(spec.p, 1, 1)
        sa = shapes[rng.randrange(len(shapes))]
        sb = shapes[rng.randrange(len(shapes))]
        while sb == sa:
            sb = shapes[rng.randrange(len(shapes))]
        ga = GroundTruth(sa[0], sa[1], seed=rng.randrange(10 ** 6))
        gb = GroundTruth(sb[0], sb[1], seed=rng.randrange(10 ** 6))
        P, Q = make_module(ga, spec, base), make_module(gb, spec, base)
        v = compare_modules(P, Q, MODE_UP_TO_THETA, m_range=m_range)
        assert v.kind == UNEQUAL, (spec, sa, sb, v)
        # the witness is the first n where the closed-form profiles differ
        ra, rb = ga.expected_rep(), gb.expected_rep()
        first = next(
            n for n in range(1, 8) if ra.mu_of_quotient(n) != rb.mu_of_quotient(n)
        )
        assert v.witness_n == first, (sa, sb, v.witness_n, first)
        unequal_checked += 1
    print(
        f"\nPASS criterion 5 (comparison soundness): {equal_checked} equal + "
        f"{unequal_checked} unequal pairs, zero errors"
    )


def test_criterion_6_oracle_equivalence():
    rings = [
        ChainRing(2, 1, 1, 2),
        ChainRing(2, 1, 1, 3),
        ChainRing(3, 1, 1, 2),
        ChainRing(2, 2, 1, 2),
        ChainRing(2, 1, 2, 2),
    ]
    rng = random.Random(606)
    t0 = time.time()
    for case in range(200):
        ring = rings[case % len(rings)]
        nrows = rng.randrange(0, 4)
        ncols = rng.randrange(1, 4)
        if ring.size ** ncols > 2 ** 24 or ring.size ** nrows > 2 ** 24:
            ncols = nrows = 2
        rows = [[ring.random_scalar(rng) for _ in range(ncols)] for _ in range(nrows)]
        assert brute_force_ordq(ring, rows, ncols) == cokernel_ordq(ring, rows, ncols)
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"\nPASS criterion 6 (oracle equivalence): 200 matrices in {elapsed:.1f}s")


def _random_profile(rng, n_top=4):
    a = rng.choice([0, 0, 1])
    theta = rng.randrange(0, n_top)
    s = [rng.randrange(0, 3) for _ in range(theta)]
    if theta:
        s[-1] = max(1, s[-1])
    return [
        n * a + sum(min(n, i + 1) * si for i, si in enumerate(s))
        for n in range(1, n_top + 1)
    ]


def test_criterion_7_tower_analyzer():
    rng = random.Random(717)
    cases = equal_cases = 0
    while cases < 100:
        p = rng.choice([2, 3])
        r = rng.choice([1, 2])
        ms = [0, 1, 2, 3]
        prof_a = _random_profile(rng)
        want_equal = cases % 2 == 0
        prof_b = list(prof_a)
        if not want_equal:
            while prof_b == prof_a:
                prof_b = _random_profile(rng)

        def noisy(profile):
            data = {}
            for n, mu in enumerate(profile, start=1):
                for m in ms:
                    bound = min(p ** ((r - 1) * m), (p ** (r * m) + 1) // 2 - 1)
                    eps = rng.randint(-bound, bound) if bound > 0 else 0
                    data[(n, m)] = max(0, mu * p ** (r * m) + eps)
            return TowerSeries(r=r, p=p, data=data)

        A, B = noisy(prof_a), noisy(prof_b)
        v = tower_compare(A, B, Fraction(1))
        if want_equal:
            assert v.kind == EQUAL, (p, r, prof_a, v)
            expect = {n: mu for n, mu in enumerate(prof_a, start=1)}
            assert v.mu_profiles == (expect, expect)
            equal_cases += 1
        else:
            assert v.kind == UNEQUAL, (p, r, prof_a, prof_b, v)
            first = next(
                n for n, (x, y) in enumerate(zip(prof_a, prof_b), start=1) if x != y
            )
            assert v.witness_n == first
        cases += 1
    print(
        f"\nPASS criterion 7 (tower analyzer): 100 cases "
        f"({equal_cases} equal / {100 - equal_cases} unequal), exact recovery"
    )


def test_criterion_8_determinism(tmp_path):
    spec = GroupSpec.abelian(3, 1)
    base = RingBase(3, 1, 1)
    mod_a = tmp_path / "a.json"
    mod_b = tmp_path / "b.json"
    save_presentation(make_module(GroundTruth(0, (1, 3), seed=3), spec, base), str(mod_a))
    save_presentation(make_module(GroundTruth(0, (2, 2), seed=4), spec, base), str(mod_b))
    tow = tmp_path / "t.csv"
    save_tower_csv(
        TowerSeries(r=1, p=3, data={(n, m): n * 3 ** m for n in (1, 2) for m in (0, 1, 2)}),
        str(tow),
    )
    runs = [
        ["invariants", str(mod_a)],
        ["compare", str(mod_a), str(mod_b)],
        ["tower", str(tow), str(tow), "--dim", "1", "--ring", "3,1,1"],
        ["selftest", "--cases", "2", "--oracle-cases", "5"],
    ]
    for k, argv in enumerate(runs):
        outs = []
        for attempt in (0, 1):
            out = tmp_path / f"run{k}_{attempt}.json"
            code = cli.main(argv + ["--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], argv
        assert "config" in json.loads(outs[0])
    print("\nPASS criterion 8 (determinism): byte-identical reports across repeated runs")
