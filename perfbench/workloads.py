"""Seeded workloads for the benchmark, and the ground truth each op is
checked against.

Every input is drawn from ``--seed`` with ``mutower.synth``; the engine only
sees the generated modules.  A draw interleaves fixed slots (group preset,
ring, op kind), and each slot cycles through module shape classes and
generator counts, so that every prefix of a draw has about the same mix and
cost; the seed picks the exponents, garnishes, compare pairs and the
obfuscation.

* ``corpus``: the user path through ``modfile``, ``cli`` and ``compare`` on
  the acceptance-corpus grid over O = Z_p: ``mutower invariants`` on plain
  and pseudo-null-garnished modules, and a fixed share of ``mutower compare
  --mode up-to-theta`` on torsion pairs with a closed-form verdict.  Time is
  dominated by the int64 diagonalization at the top level.
* ``generic_ring``: ``mu_profile`` + ``recover_elementary`` over a ramified
  (e = 2) and an unramified (f = 2) ring, the only traffic through the tuple
  scalar arithmetic and ``_diagonalize_generic``.
* ``koszul``: the Euler characteristic sum_i (-1)^i ord_q H_i(G_0, M) through
  ``koszul_homology_ordq``, which runs in ``syzygy.strong_groebner`` and never
  diagonalizes.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from mutower import cli, invariants, lambda_mod, modfile
from mutower.chainring import RingBase
from mutower.compare import EQUAL, MODE_UP_TO_THETA, UNEQUAL
from mutower.groupring import GroupSpec, quotient_order
from mutower.lambda_mod import Presentation
from mutower.synth import Garnish, GroundTruth, alpha_multisets, make_module

N_MAX = invariants.DEFAULT_N_MAX

# Ops drawn per seed, and the prefix of the draw that a traced run replays:
# whole cycles of slots x shape classes x generator counts (7 x 12 x 2,
# 6 x 8 x 2 and 4 x 5 x 2 ops), so that the trace sees the full mix.
DRAW_OPS = {"corpus": 480, "generic_ring": 400, "koszul": 1000}
TRACE_OPS = {"corpus": 168, "generic_ring": 96, "koszul": 240}

# koszul op costs are heavy-tailed: about one op in 500 grows a basis for
# 0.5 to 5 s, against a median of 10 ms, so the mean rate of a 30-s run turns on
# how many of those a seed happens to draw (an IQR of about 16 % over ten
# seeds from the draw alone).  Its throughput is therefore the median rate
# over consecutive blocks of this many ops, two rounds of its four slots,
# which halves that spread.  corpus and generic_ring are light-tailed and
# take the rate of the whole timed loop.
THROUGHPUT_BLOCK_OPS = {"koszul": 8}

# Refuse a draw before the engine allocates any level whose L x L group
# table plus int64 expanded matrix would exceed this.
MEMORY_BUDGET_BYTES = 512 * 2 ** 20

# The acceptance corpus grid (tests/test_acceptance.py).
CORPUS_SPECS = [
    GroupSpec.abelian(2, 1),
    GroupSpec.abelian(3, 1),
    GroupSpec.abelian(2, 2),
    GroupSpec.abelian(3, 2),
    GroupSpec.metacyclic(3),
]
CORPUS_ALPHAS = alpha_multisets(range(1, 5), 3)
# Op cost grows with the number of summands, so every preset slot cycles
# through (free rank, exponent-summand count); the seed picks the exponents
# and the obfuscation.
CORPUS_CLASSES = [(a, k) for k in range(4) for a in range(3)]
GARNISHED_SETTINGS = [
    (GroupSpec.abelian(2, 2), (0, 1, 2, 3)),
    (GroupSpec.abelian(3, 2), None),
    (GroupSpec.metacyclic(3), None),
]
GARNISHED_ALPHAS = [(), (2,), (1, 3)]
COMPARE_SETTINGS = [
    (GroupSpec.abelian(2, 1), None),
    (GroupSpec.abelian(3, 1), None),
    (GroupSpec.abelian(2, 2), (0, 1, 2, 3)),
    (GroupSpec.abelian(3, 2), None),
    (GroupSpec.metacyclic(3), None),
]
COMPARE_SHAPES = [(), (1,), (2,), (3,), (1, 1), (1, 3), (2, 2), (1, 2, 4), (4,), (2, 3)]
# One slot per preset, then a garnished and a compare slot.
CORPUS_SLOTS = [("invariants", i) for i in range(len(CORPUS_SPECS))] + [("garnished", 0), ("compare", 0)]

# (preset, ring, levels), each cycling through the shapes from its own
# offset, so that the six ops of a visit have six shapes and a run that ends
# early or late keeps the mix.  abelian(3, 1) runs at levels 0..2: at 0..3
# one op over these rings takes 1 to 8 s, and a few of them would decide a
# run's throughput.
GENERIC_SETTINGS = [
    (GroupSpec.abelian(2, 1), RingBase(2, 2, 1), None),
    (GroupSpec.abelian(2, 1), RingBase(2, 1, 2), None),
    (GroupSpec.abelian(2, 2), RingBase(2, 2, 1), None),
    (GroupSpec.abelian(2, 2), RingBase(2, 1, 2), None),
    (GroupSpec.abelian(3, 1), RingBase(3, 2, 1), (0, 1, 2)),
    (GroupSpec.abelian(3, 1), RingBase(3, 1, 2), (0, 1, 2)),
]
GENERIC_SHAPES = [(1, ()), (0, (1,)), (0, (2,)), (0, (3,)), (1, (1,)), (1, (3,)), (0, (1, 2)), (0, (2, 3))]

# (preset, exponent multisets cycled, garnished): plain r = 1 and r = 2
# modules and garnished r = 2 modules with two exponent summands, at
# N = max(alphas).  Exponents stay <= 2 and r = 2 modules have two summands:
# at N = 3, or with one summand at r = 2, a few obfuscations in a thousand
# grow a basis for more than ten seconds, and one such op swamps a run.
KOSZUL_SLOTS = [
    (GroupSpec.abelian(2, 1), alpha_multisets(range(1, 3), 2)[1:], False),
    (GroupSpec.abelian(3, 1), alpha_multisets(range(1, 3), 2)[1:], False),
    (GroupSpec.abelian(2, 2), [(1, 1)], False),
    (GroupSpec.abelian(2, 2), [(1, 1)], True),
]


@dataclass(frozen=True)
class Op:
    """One closed-loop operation and its closed-form expected answer."""

    id: int
    kind: str  # invariants | compare | profile | koszul
    label: str
    modules: Tuple[Presentation, ...]
    levels: Optional[Tuple[int, ...]]
    expect: dict
    truncation: Optional[int] = None  # N of a koszul op

    def canonical(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "levels": self.levels,
                "truncation": self.truncation,
                "modules": [modfile.presentation_to_dict(P) for P in self.modules],
                "expect": self.expect,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


class BudgetExceeded(Exception):
    pass


def _preset(spec: GroupSpec) -> str:
    return f"{spec.kind}({spec.p},{spec.r})"


def _rep_dict(rep) -> dict:
    return {
        "free_rank": rep.free_rank,
        "multiplicities": list(rep.multiplicities),
        "theta": rep.theta,
        "mu_total": rep.mu_total,
    }


def _describe(gt: GroundTruth) -> str:
    g = ",".join(str(x.gen_index) for x in gt.garnish)
    return f"free={gt.free_rank} alphas={gt.alphas} garnish=[{g}] seed={gt.seed}"


def _module(rng: random.Random, spec, base, a, alphas, garnish, turn: int):
    """An obfuscated module of the given shape whose generator count
    alternates with ``turn``.

    synth's obfuscation splits off one or two extra generators, and op cost
    grows steeply with the generator count; left to chance, the split count
    alone moves a run's throughput by a tenth from seed to seed.  So the count
    alternates, and the seed picks the obfuscation among the draws that have it.
    """
    summands = a + len(alphas) + len(garnish)
    want = summands + (1 if summands else 0) + turn % 2
    for _ in range(64):
        gt = GroundTruth(a, alphas, garnish, seed=rng.randrange(10 ** 6))
        P = make_module(gt, spec, base)
        if P.gens == want:
            return gt, P
    raise RuntimeError(f"synth never split {want - summands} generators off {alphas}")


def _invariants_op(k, rng, spec, levels, a, alphas, garnish, turn) -> Op:
    gt, P = _module(rng, spec, RingBase(spec.p, 1, 1), a, alphas, garnish, turn)
    return Op(
        k,
        "invariants",
        f"invariants {_preset(spec)} levels={levels} {_describe(gt)}",
        (P,),
        levels,
        {"code": cli.EXIT_OK, "representation": _rep_dict(gt.expected_rep())},
    )


def _compare_op(k, rng, visit) -> Op:
    # settings x {equal, unequal} repeats every ten compare ops
    spec, levels = COMPARE_SETTINGS[visit % len(COMPARE_SETTINGS)]
    want_equal = visit // len(COMPARE_SETTINGS) % 2 == 0
    sa = rng.choice(COMPARE_SHAPES)
    if want_equal:
        sb = sa
        garnish = (Garnish(rng.choice((1, 2))),) if spec.r >= 2 and rng.random() < 0.5 else ()
    else:
        sb = rng.choice([s for s in COMPARE_SHAPES if s != sa])
        garnish = ()
    base = RingBase(spec.p, 1, 1)
    turn = visit // (2 * len(COMPARE_SETTINGS))
    ga, P = _module(rng, spec, base, 0, sa, (), turn)
    gb, Q = _module(rng, spec, base, 0, sb, garnish, turn + 1)
    ra, rb = ga.expected_rep(), gb.expected_rep()
    # closed-form verdict: Equal iff the representations agree; otherwise
    # the witness is the first n where mu(M/pi^n) differs.
    if ra == rb:
        expect = {"code": cli.EXIT_OK, "kind": EQUAL, "witness_n": None}
    else:
        first = next(n for n in range(1, N_MAX + 1) if ra.mu_of_quotient(n) != rb.mu_of_quotient(n))
        expect = {"code": cli.EXIT_UNEQUAL, "kind": UNEQUAL, "witness_n": first}
    return Op(
        k,
        "compare",
        f"compare {_preset(spec)} levels={levels} L=[{_describe(ga)}] R=[{_describe(gb)}]",
        (P, Q),
        levels,
        expect,
    )


def _draw_corpus(rng: random.Random, count: int) -> List[Op]:
    ops: List[Op] = []
    for k in range(count):
        slot, idx = CORPUS_SLOTS[k % len(CORPUS_SLOTS)]
        visit = k // len(CORPUS_SLOTS)
        if slot == "invariants":
            a, size = CORPUS_CLASSES[(visit + 5 * idx) % len(CORPUS_CLASSES)]
            alphas = rng.choice([x for x in CORPUS_ALPHAS if len(x) == size])
            ops.append(
                _invariants_op(k, rng, CORPUS_SPECS[idx], None, a, alphas, (), visit // len(CORPUS_CLASSES))
            )
        elif slot == "garnished":
            spec, levels = GARNISHED_SETTINGS[visit % len(GARNISHED_SETTINGS)]
            alphas = GARNISHED_ALPHAS[visit // len(GARNISHED_SETTINGS) % len(GARNISHED_ALPHAS)]
            garnish = (Garnish(rng.choice((1, 2))),)
            turn = visit // (len(GARNISHED_SETTINGS) * len(GARNISHED_ALPHAS))
            ops.append(_invariants_op(k, rng, spec, levels, 0, alphas, garnish, turn))
        else:
            ops.append(_compare_op(k, rng, visit))
    return ops


def _draw_generic(rng: random.Random, count: int) -> List[Op]:
    ops: List[Op] = []
    for k in range(count):
        idx = k % len(GENERIC_SETTINGS)
        spec, base, levels = GENERIC_SETTINGS[idx]
        visit = k // len(GENERIC_SETTINGS)
        a, alphas = GENERIC_SHAPES[(visit + 3 * idx) % len(GENERIC_SHAPES)]
        gt, P = _module(rng, spec, base, a, alphas, (), visit // len(GENERIC_SHAPES))
        ops.append(
            Op(
                k,
                "profile",
                f"profile {_preset(spec)} ring=({base.p},{base.e},{base.f}) levels={levels} {_describe(gt)}",
                (P,),
                levels,
                {"representation": _rep_dict(gt.expected_rep())},
            )
        )
    return ops


def _draw_koszul(rng: random.Random, count: int) -> List[Op]:
    ops: List[Op] = []
    for k in range(count):
        spec, shapes, garnished = KOSZUL_SLOTS[k % len(KOSZUL_SLOTS)]
        visit = k // len(KOSZUL_SLOTS)
        garnish = (Garnish(rng.choice((1, 2))),) if garnished else ()
        alphas = shapes[visit % len(shapes)]
        gt, P = _module(rng, spec, RingBase(spec.p, 1, 1), 0, alphas, garnish, visit // len(shapes))
        ops.append(
            Op(
                k,
                "koszul",
                f"koszul {_preset(spec)} N={max(alphas)} {_describe(gt)}",
                (P,),
                None,
                {"euler": gt.expected_rep().mu_total},
                max(alphas),
            )
        )
    return ops


DRAWS = {"corpus": _draw_corpus, "generic_ring": _draw_generic, "koszul": _draw_koszul}


def draw(workload: str, seed: int) -> List[Op]:
    rng = random.Random(f"{workload}/{seed}")
    return DRAWS[workload](rng, DRAW_OPS[workload])


def inputs_digest(ops: List[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.canonical().encode())
        h.update(b"\n")
    return h.hexdigest()


def dense_bytes(op: Op) -> int:
    """Largest L x L group table plus int64 expanded matrix (with the pi^n
    relations that quotient_pi appends) that the op makes the engine build."""
    if op.kind == "koszul":
        return 0
    worst = 0
    for P in op.modules:
        for m in op.levels or invariants.default_m_range(P.spec):
            L = quotient_order(P.spec, m)
            worst = max(worst, 8 * L * L + 8 * (P.rels + P.gens) * L * P.gens * L)
    return worst


def check_budget(ops: List[Op]) -> None:
    for op in ops:
        need = dense_bytes(op)
        if need > MEMORY_BUDGET_BYTES:
            raise BudgetExceeded(
                f"op {op.id} ({op.label}) needs about {need / 2 ** 20:.0f} MiB of dense "
                f"arrays, over the {MEMORY_BUDGET_BYTES / 2 ** 20:.0f} MiB budget"
            )


def _module_path(workdir: Path, op: Op, k: int) -> Path:
    return workdir / f"op{op.id:04d}_{k}.json"


def write_inputs(ops: List[Op], workdir: Path) -> None:
    """Module files for the ops that go through the command line."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for op in ops:
        if op.kind in ("invariants", "compare"):
            for k, P in enumerate(op.modules):
                modfile.save_presentation(P, str(_module_path(workdir, op, k)))


def _cli_argv(op: Op, workdir: Path) -> List[str]:
    files = [str(_module_path(workdir, op, k)) for k in range(len(op.modules))]
    argv = [op.kind] + files + ["--out", str(workdir / "report.json")]
    if op.kind == "compare":
        argv += ["--mode", MODE_UP_TO_THETA]
    if op.levels is not None:
        argv += ["--levels", ",".join(str(m) for m in op.levels)]
    return argv


def call(op: Op, workdir: Path):
    """The timed operation.  Calls go through module attributes, so the
    traced run sees them."""
    if op.kind in ("invariants", "compare"):
        return cli.main(_cli_argv(op, workdir))
    P = op.modules[0]
    if op.kind == "profile":
        return invariants.recover_elementary(invariants.mu_profile(P, N_MAX, op.levels))
    N = op.truncation
    return sum((-1) ** i * lambda_mod.koszul_homology_ordq(P, 0, i, N) for i in range(P.spec.r + 1))


def answer(op: Op, raw, workdir: Path) -> dict:
    """The op's answer in the form of ``op.expect``."""
    if op.kind == "profile":
        return {"representation": _rep_dict(raw)}
    if op.kind == "koszul":
        return {"euler": raw}
    # An error exit writes no report (or leaves an earlier op's); the exit
    # code alone then fails the check.
    try:
        with open(workdir / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
    except FileNotFoundError:
        report = {}
    if op.kind == "invariants":
        return {"code": raw, "representation": report.get("representation", report.get("inconclusive"))}
    verdict = report.get("verdict", {})
    return {"code": raw, "kind": verdict.get("kind"), "witness_n": verdict.get("witness_n")}
