"""Closed-loop benchmark of the mutower engine.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Single process, single thread: each op starts when the previous one has
returned.  Inputs are drawn from ``--seed`` (see workloads.py) and every
answer is checked against closed-form ground truth; a wrong, raised or
inconclusive answer counts as failed and is printed with its op id.

``--trace 0`` loops over the draw for ``--seconds`` and reports the
end-to-end metrics (koszul's throughput is a median over blocks of ops, see
``workloads.THROUGHPUT_BLOCK_OPS``).  ``--trace 1`` replays a fixed prefix of
the draw twice, untraced and then with every public function of the engine
wrapped in spans (spans.py), and reports the per-layer metrics; its counts
repeat exactly from run to run.  Set-up (drawing the inputs, writing the
module files, one warm-up op) is repeated and its median reported as
``setup_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Module files, spans
(JSONL) and a full report go to ``.perfbench/`` at the repository root.
"""

import os

# Before numpy is imported: a BLAS-backed kernel must be measured on one
# thread on every commit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Tail latency percentile.  A 30-s run on a 2-vCPU machine completes about
# 160 (generic_ring) to 1400 (koszul) ops, so p90 keeps at least ten beyond
# it everywhere; fixed, so that it cannot switch rungs between runs.  p95 and
# p99 sit in koszul's basis-growth tail and moved a third between seeds.
TAIL_PERCENTILE = 90

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "op_latency_p50_ms": "ms",
    "op_latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_engine():
    """Puts the checkout's ``src`` first on the path and refuses any other
    copy of the engine."""
    if not (SRC / "mutower" / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine source at {SRC}")
    sys.path.insert(0, str(SRC))
    import mutower

    if Path(mutower.__file__).resolve().parent != (SRC / "mutower").resolve():
        sys.exit(f"perfbench: imported mutower from {mutower.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def run_op(wl, op, workdir):
    """(seconds, failure or None).  Only the engine call is timed."""
    t = time.perf_counter()
    try:
        raw = wl.call(op, workdir)
    except Exception as exc:  # any raise is a failed op, reported by id
        return time.perf_counter() - t, f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t
    got = wl.answer(op, raw, workdir)
    if got != op.expect:
        return dt, f"expected {op.expect}, got {got}"
    return dt, None


def setup(wl, workload, seed, workdir):
    """Draw, budget check, module files and one warm-up op, repeated; returns
    (ops, inputs digest, set-up seconds of each repeat)."""
    samples = []
    digests = set()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops = wl.draw(workload, seed)
        wl.check_budget(ops)
        wl.write_inputs(ops, workdir)
        run_op(wl, ops[0], workdir)
        samples.append(time.perf_counter() - t)
        digests.add(wl.inputs_digest(ops))
    if len(digests) != 1:
        sys.exit("perfbench: the draw is not deterministic")
    return ops, digests.pop(), samples


def latency_tail(times, pct):
    """Nearest-rank ``pct`` percentile and the number of ops beyond it."""
    s = sorted(times)
    k = max(0, math.ceil(pct / 100 * len(s)) - 1)
    return s[k], len(s) - 1 - k


def throughput(times, wall, block):
    """Ops per second of the timed loop or, with ``block``, the median over
    consecutive blocks of ``block`` ops of each block's ops per second of op
    time."""
    if not block or len(times) < 2 * block:
        return len(times) / wall
    rates = [block / sum(times[i : i + block]) for i in range(0, len(times) - block + 1, block)]
    return statistics.median(rates)


def run_ops(wl, ops, workdir, seconds=None, tracer=None):
    """Runs the ops in order, once, or cycling until ``seconds`` have passed;
    returns (op times, failures, wall seconds)."""
    times, failures = [], []
    gc.collect()
    t0 = time.perf_counter()
    i = 0

    def more():
        if seconds is None:
            return i < len(ops)
        return i == 0 or time.perf_counter() - t0 < seconds

    while more():
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = op.id
        dt, why = run_op(wl, op, workdir)
        times.append(dt)
        if why:
            failures.append((op, why))
        i += 1
    return times, failures, time.perf_counter() - t0


def traced_passes(wl, spans, ops, workdir, workload, seed):
    plain_times, failures, _ = run_ops(wl, ops, workdir)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        t0 = time.perf_counter()
        traced_times, traced_failures, _ = run_ops(wl, ops, workdir, tracer=tracer)
    failures += traced_failures
    overhead = sum(traced_times) / sum(plain_times) - 1
    metrics = spans.layer_metrics(tracer.spans, sum(traced_times), overhead)
    tracer.write_jsonl(OUT / f"spans-{workload}-{seed}.jsonl", t0)
    shapes = spans.diagonalize_by_shape(tracer.spans, workload)
    return metrics, failures, 2 * len(ops), shapes


def main(argv=None) -> int:
    _import_engine()
    import spans
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(wl.DRAWS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}"
    try:
        ops, digest, setup_samples = setup(wl, args.workload, args.seed, workdir)
    except wl.BudgetExceeded as exc:
        sys.exit(f"perfbench: refused: {exc}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "inputs_sha256": digest,
        "draw_ops": len(ops),
        "setup_s_samples": setup_samples,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"machine {json.dumps(report['machine'], sort_keys=True)}")
    print(f"inputs_sha256 {args.workload} {digest}")

    if args.trace:
        prefix = ops[: wl.TRACE_OPS[args.workload]]
        metrics, failures, attempted, shapes = traced_passes(
            wl, spans, prefix, workdir, args.workload, args.seed
        )
        units = {k: unit for k, (unit, _) in spans.PER_LAYER.items()}
        report["diagonalize_by_shape"] = shapes
        for g in shapes[:12]:
            print(
                f"diagonalize {g['preset']} m={g['m']} {g['shape']} {g['path']} ring={g['ring_pefN']}: "
                f"{g['calls']} calls, {g['total_s']:.3f} s, median {g['median_ms']:.2f} ms"
            )
    else:
        times, failures, wall = run_ops(wl, ops, workdir, seconds=args.seconds)
        attempted = len(times)
        tail, beyond = latency_tail(times, TAIL_PERCENTILE)
        block = wl.THROUGHPUT_BLOCK_OPS.get(args.workload)
        metrics = {
            "throughput_ops_s": throughput(times, wall, block),
            "op_latency_p50_ms": 1000 * statistics.median(times),
            "op_latency_tail_ms": 1000 * tail,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END_UNITS)
        report["tail"] = {"percentile": TAIL_PERCENTILE, "samples": attempted, "beyond": beyond}
        report["throughput"] = {"block_ops": block, "whole_loop_ops_s": attempted / wall}
        report["op_times_s"] = times
        print(f"op_latency_tail_ms is the p{TAIL_PERCENTILE} of {attempted} ops ({beyond} beyond it)")
        if block:
            print(
                f"throughput_ops_s is the median over blocks of {block} ops; "
                f"the whole loop ran {attempted / wall:.6g} ops/s"
            )

    # fail_rate is 0 on a correct engine, so it is reported here and through
    # the result's attempted/failed counts rather than as a bounded metric.
    report["fail_rate"] = len(failures) / attempted
    print(f"fail_rate {report['fail_rate']:.6g} frac ({len(failures)}/{attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    report["failures"] = [{"op": op.id, "input": op.label, "why": why} for op, why in failures]
    for f in report["failures"]:
        print(f"FAILED op {f['op']}: {f['input']}: {f['why']}")
    report["metrics"] = metrics
    with open(OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
