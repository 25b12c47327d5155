"""Batch front end.

Subcommands: invariants, compare, tower, synth, selftest.  Reports are JSON
(or a parallel plain-text rendering) and embed the options the command read,
so a fixed (config, inputs, seed) produces byte-identical output.

Exit codes: 0 success/Equal, 2 Inconclusive or non-converged, 3 Unequal,
1 error (usage errors included).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import cache
from typing import List, Optional

from . import compare as cmp
from . import invariants as inv
from . import modfile, synth
from .chainring import ChainRing, RingBase, cokernel_ordq
from .errors import InconsistentProfile, InvalidInput, MutowerError, NotConverged, ProfileTooShort
from .groupring import GroupSpec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_UNEQUAL = 3


def _parse_levels(text: Optional[str]):
    if text is None:
        return None
    try:
        levels = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise InvalidInput(f"bad --levels value {text!r}") from exc
    if not levels or levels != sorted(levels):
        raise InvalidInput("--levels must be a nonempty ascending list")
    return levels


def _parse_ring(text: Optional[str]) -> Optional[RingBase]:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidInput("--ring expects p,e,f")
    try:
        p, e, f = (int(t) for t in parts)
    except ValueError as exc:
        raise InvalidInput(f"bad --ring value {text!r}") from exc
    return RingBase(p, e, f)


def _parse_error_c(text: str) -> Fraction:
    try:
        c = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad --error-C value {text!r}") from exc
    return c


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidInput, so they exit EXIT_ERROR with one
    `error:` line like every other input error (argparse would exit 2,
    which here means inconclusive)."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    about a tenth of a small invariants run, and parsing leaves it as it is.
    Each command takes only the options its run_* reads, and its report's
    config echoes exactly those (see _config_dict)."""
    ap = _Parser(
        prog="mutower",
        description="structure invariants of finitely presented Iwasawa modules",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--format", choices=["json", "text"], default="json")
        sp.add_argument("--out", type=str, default=None)
        sp.set_defaults(run=run)
        return sp

    def levels(sp):
        sp.add_argument("--n-max", type=int, default=inv.DEFAULT_N_MAX)
        sp.add_argument("--levels", type=str, default=None, help="comma-separated level list")

    sp = command("invariants", run_invariants, "recover mu/theta/elementary representation")
    sp.add_argument("module", type=str)
    levels(sp)

    sp = command("compare", run_compare, "compare two module files")
    sp.add_argument("left", type=str)
    sp.add_argument("right", type=str)
    sp.add_argument("--mode", choices=[cmp.MODE_UP_TO_THETA, cmp.MODE_ALL_N], default=cmp.MODE_ALL_N)
    levels(sp)

    sp = command("tower", run_tower, "compare two tower CSV files")
    sp.add_argument("left", type=str)
    sp.add_argument("right", type=str)
    sp.add_argument("--dim", type=int, required=True, help="dimension r of the tower group")
    sp.add_argument("--ring", type=str, default=None, help="p,e,f (only p is used)")
    sp.add_argument("--error-C", dest="error_C", type=str, default="1")

    sp = command("synth", run_synth, "emit a ground-truth corpus of module files")
    sp.add_argument("--count", type=int, default=8)
    sp.add_argument("--out-dir", type=str, required=True)
    sp.add_argument("--ring", type=str, default=None, help="p,e,f (default 3,1,1)")
    sp.add_argument("--seed", type=int, default=0)

    sp = command("selftest", run_selftest, "run corpus round-trips and oracle agreements")
    sp.add_argument("--cases", type=int, default=6)
    sp.add_argument("--oracle-cases", type=int, default=40)
    sp.add_argument("--inject-corruption", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    return ap


def _emit(report: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_text(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_text(report: dict) -> str:
    lines = []

    def walk(obj, depth):
        pad = "  " * depth
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(report, 0)
    return "\n".join(lines) + "\n"


def _config_dict(args, **derived) -> dict:
    """The parsed options, which are exactly those the command reads, and
    the values derived from them; `out` names where the report goes and is
    not part of it."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("out", "run")}
    cfg.update(derived)
    return cfg


def _rep_dict(rep) -> dict:
    return {
        "free_rank": rep.free_rank,
        "multiplicities": list(rep.multiplicities),
        "theta": rep.theta,
        "mu_total": rep.mu_total,
    }


def _verdict_dict(v: cmp.Verdict) -> dict:
    out = {"kind": v.kind}
    if v.witness_n is not None:
        out["witness_n"] = v.witness_n
    if v.reason is not None:
        out["reason"] = v.reason
    if v.mu_profiles is not None:
        out["mu_profiles"] = [
            {str(n): mu for n, mu in sorted(prof.items())} for prof in v.mu_profiles
        ]
    out["theta_pair"] = list(v.theta_pair)
    if v.reps is not None:
        out["representations"] = [_rep_dict(r) for r in v.reps]
    return out


def _emit_verdict(config: dict, verdict: cmp.Verdict, args) -> int:
    _emit({"config": config, "verdict": _verdict_dict(verdict)}, args.format, args.out)
    return {cmp.EQUAL: EXIT_OK, cmp.UNEQUAL: EXIT_UNEQUAL}.get(verdict.kind, EXIT_INCONCLUSIVE)


def run_invariants(args) -> int:
    P = modfile.load_presentation(args.module)
    m_range = _parse_levels(args.levels) or inv.default_m_range(P.spec)
    report = {"config": _config_dict(args, m_range=m_range)}
    code = EXIT_OK
    try:
        profile = inv.mu_profile(P, args.n_max, m_range)
        report["mu_profile"] = {str(n): profile.mu[n] for n in sorted(profile.mu)}
        report["converged"] = {str(n): profile.converged[n] for n in sorted(profile.converged)}
        report["c_hat"] = {str(n): str(profile.c_hat[n]) for n in sorted(profile.c_hat)}
        report["level_orders"] = {
            str(n): {str(m): profile.raw[n][m] for m in sorted(profile.raw[n])}
            for n in sorted(profile.raw)
        }
        rep = inv.recover_elementary(profile)
        report["representation"] = _rep_dict(rep)
    except (NotConverged, ProfileTooShort, InconsistentProfile) as exc:
        report["inconclusive"] = str(exc)
        code = EXIT_INCONCLUSIVE
    _emit(report, args.format, args.out)
    return code


def run_compare(args) -> int:
    P = modfile.load_presentation(args.left)
    Q = modfile.load_presentation(args.right)
    m_range = _parse_levels(args.levels) or inv.default_m_range(P.spec)
    verdict = cmp.compare_modules(P, Q, mode=args.mode, m_range=m_range, n_max=args.n_max)
    return _emit_verdict(_config_dict(args, m_range=m_range), verdict, args)


def _check_counts(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) < 0:
            raise InvalidInput(f"--{name.replace('_', '-')} must be >= 0, got {getattr(args, name)}")


def run_tower(args) -> int:
    base = _parse_ring(args.ring)
    if base is None:
        raise InvalidInput("tower command requires --ring p,e,f (p is used)")
    error_c = _parse_error_c(args.error_C)
    A = modfile.load_tower_csv(args.left, base.p, args.dim)
    B = modfile.load_tower_csv(args.right, base.p, args.dim)
    verdict = cmp.tower_compare(A, B, error_c)
    return _emit_verdict(_config_dict(args), verdict, args)


def _default_gts(count: int, seed: int):
    rng = random.Random(seed)
    shapes = [
        (0, (1,)),
        (0, (2,)),
        (0, (1, 3)),
        (0, (2, 2)),
        (1, ()),
        (0, (1, 2, 3)),
        (1, (2,)),
        (0, (3,)),
    ]
    out = []
    for i in range(count):
        a, alphas = shapes[i % len(shapes)]
        out.append(synth.GroundTruth(a, alphas, seed=rng.randrange(10 ** 6)))
    return out


def run_synth(args) -> int:
    _check_counts(args, "count")
    base = _parse_ring(args.ring) or RingBase(3, 1, 1)
    spec = GroupSpec.abelian(base.p, 1)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = {"config": _config_dict(args), "modules": []}
    for i, gt in enumerate(_default_gts(args.count, args.seed)):
        P = synth.make_module(gt, spec, base)
        name = f"module_{i:03d}.json"
        modfile.save_presentation(P, f"{args.out_dir}/{name}")
        manifest["modules"].append(
            {
                "file": name,
                "free_rank": gt.free_rank,
                "alphas": list(gt.alphas),
                "seed": gt.seed,
            }
        )
    with open(f"{args.out_dir}/manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _emit(manifest, args.format, args.out)
    return EXIT_OK


def run_selftest(args) -> int:
    _check_counts(args, "cases", "oracle_cases")
    rng = random.Random(args.seed)
    config = _config_dict(args)
    results = []

    def record(name, passed, total):
        results.append({"property": name, "passed": passed, "total": total, "ok": passed == total})

    def finish(extra: dict) -> int:
        ok = all(r["ok"] for r in results)
        report = {"config": config, "properties": results, "status": "PASS" if ok else "FAIL"}
        _emit({**report, **extra}, args.format, args.out)
        return EXIT_OK if ok else EXIT_ERROR

    if args.cases == 0:
        record("vacuous", 0, 0)
        return finish({"warning": "empty corpus: vacuous pass"})

    # oracle agreement on random small matrices
    pool = [ChainRing(2, 1, 1, 2), ChainRing(2, 1, 1, 3), ChainRing(3, 1, 1, 2)]
    ok = 0
    for _ in range(args.oracle_cases):
        ring = rng.choice(pool)
        nr, nc = rng.randrange(0, 3), rng.randrange(1, 3)
        rows = [[ring.random_scalar(rng) for _ in range(nc)] for _ in range(nr)]
        if synth.brute_force_ordq(ring, rows, nc) == cokernel_ordq(ring, rows, nc):
            ok += 1
    record("oracle-agreement", ok, args.oracle_cases)

    # round trips and obfuscation soundness on a small corpus
    gts = _default_gts(args.cases, args.seed)
    spec = GroupSpec.abelian(3, 1)
    base = RingBase(3, 1, 1)
    roundtrip = 0
    soundness = 0
    soundness_total = 0
    for i, gt in enumerate(gts):
        P = synth.make_module(gt, spec, base)
        prof = inv.mu_profile(P)
        rep = inv.recover_elementary(prof)
        if rep == gt.expected_rep():
            roundtrip += 1
        # second seed must give identical level orders
        gt2 = synth.GroundTruth(gt.free_rank, gt.alphas, gt.garnish, seed=gt.seed + 1)
        Q = synth.make_module(gt2, spec, base)
        if args.inject_corruption and i == 0 and Q.rels > 0:
            Q = synth.corrupt_presentation(Q, seed=args.seed)
        prof_q = None
        try:
            prof_q = inv.mu_profile(Q)
        except MutowerError:
            pass
        soundness_total += 1
        if prof_q is not None and prof_q.raw == prof.raw:
            soundness += 1
    record("roundtrip", roundtrip, len(gts))
    record("obfuscation-soundness", soundness, soundness_total)

    # pseudo-null garnish invisibility (r = 2; the garnish residual p^m needs
    # level 3 to round away at p = 2)
    spec2 = GroupSpec.abelian(2, 2)
    base2 = RingBase(2, 1, 1)
    levels = [0, 1, 2, 3]
    garnished = 0
    g_total = 3
    for i in range(g_total):
        gt_plain = synth.GroundTruth(0, (2,), seed=100 + i)
        gt_g = synth.GroundTruth(0, (2,), (synth.Garnish(1),), seed=200 + i)
        try:
            rp = inv.recover_elementary(
                inv.mu_profile(synth.make_module(gt_plain, spec2, base2), m_range=levels)
            )
            rg = inv.recover_elementary(
                inv.mu_profile(synth.make_module(gt_g, spec2, base2), m_range=levels)
            )
        except MutowerError:
            continue
        if rp == rg:
            garnished += 1
    record("pseudo-null-invisibility", garnished, g_total)
    return finish({})


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (MutowerError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
