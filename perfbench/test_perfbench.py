"""The benchmark's own checks.

    PYTHONPATH=src python -m pytest -q perfbench

Runs each workload traced twice at the default seed (about four minutes).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from mutower.groupring import GroupSpec  # noqa: E402
from mutower.synth import GroundTruth, make_module  # noqa: E402

DEFAULT_SEED = 0

# sha256 of the canonical inputs (module JSON, levels, expected answers) that
# the default seed draws.  A change to synth or group-ring arithmetic that
# moves a workload fails here instead of shifting the baseline silently.
INPUT_DIGESTS = {
    "corpus": "4aa83eab38cee7eaff52aa396a402aec38d4100c806c50de0eb5a407ce536dda",
    "generic_ring": "7542a253bc53020b6870d48ad6e2a8d4720e33d853eb1de623a08a514dde7dae",
    "koszul": "402c659d3adb7e8340796fdf99ce1709497babdc6e6b2ad8bf2700f55cfde195",
}

# Layers each workload must reach (calls > 0, or self time > 0 where the
# layer reports no call count), and layers it must never reach.
BUSY = {
    "corpus": [
        "chainring.diagonalize.calls",
        "lambda_mod.expand.calls",
        "groupring.reduce_poly.calls",
        "compare.compare_modules.calls",
        "lambda_mod.quotient_pi.self_s",
        "invariants.mu_profile.self_s",
        "invariants.base_change.self_s",
        "invariants.fit_mu.self_s",
        "invariants.recover_elementary.self_s",
        "modfile.load.self_s",
        "cli.self_s",
    ],
    "generic_ring": [
        "chainring.diagonalize.calls",
        "lambda_mod.expand.calls",
        "groupring.reduce_poly.calls",
        "lambda_mod.quotient_pi.self_s",
        "invariants.mu_profile.self_s",
        "invariants.base_change.self_s",
        "invariants.fit_mu.self_s",
        "invariants.recover_elementary.self_s",
    ],
    "koszul": [
        "lambda_mod.koszul.calls",
        "syzygy.strong_groebner.calls",
        "syzygy.preimage_gens.self_s",
        "syzygy.quotient_ordq.self_s",
    ],
}
IDLE = {
    "corpus": ["syzygy.strong_groebner.calls", "lambda_mod.koszul.calls"],
    "generic_ring": ["syzygy.strong_groebner.calls", "lambda_mod.koszul.calls", "compare.compare_modules.calls"],
    "koszul": ["chainring.diagonalize.calls", "lambda_mod.expand.calls"],
}
DOMINANT = {
    "corpus": "chainring.diagonalize.share",
    "generic_ring": "chainring.diagonalize.share",
    "koszul": "syzygy.strong_groebner.share",
}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    out = {}
    for w in workloads.DRAWS:
        out[w] = [
            _result(_run("--workload", w, "--seed", str(DEFAULT_SEED), "--trace", "1"))
            for _ in range(2)
        ]
    return out


@pytest.mark.parametrize("workload", sorted(workloads.DRAWS))
def test_frozen_inputs(workload):
    ops = workloads.draw(workload, DEFAULT_SEED)
    assert workloads.inputs_digest(ops) == INPUT_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(workloads.DRAWS))
def test_trace_sanity(traced, workload):
    for res in traced[workload]:
        assert res["correct"] and res["failed"] == 0
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert set(m) == set(spans.PER_LAYER)
        for name in BUSY[workload]:
            assert m[name] > 0, name
        for name in IDLE[workload]:
            assert m[name] == 0, name
        assert 0.97 <= m["trace.coverage_frac"] <= 1.0
        assert m[DOMINANT[workload]] > 0.5


@pytest.mark.parametrize("workload", sorted(workloads.DRAWS))
def test_counters_repeat(traced, workload):
    first, second = traced[workload]
    for name in spans.COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_untraced_result_line():
    res = _result(_run("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        "throughput_ops_s": "1/s",
        "op_latency_p50_ms": "ms",
        "op_latency_tail_ms": "ms",
        "setup_s": "s",
        "peak_rss_mb": "MB",
    }


def test_block_throughput_ignores_one_heavy_op():
    import run

    times = [0.01] * 80
    times[3] = 5.0
    assert run.throughput(times, sum(times), 8) == pytest.approx(100.0)
    assert run.throughput(times, sum(times), None) == pytest.approx(80 / sum(times))


def test_budget_refuses_oversized_levels():
    spec = GroupSpec.abelian(3, 2)
    P = make_module(GroundTruth(0, (1,), seed=1), spec)
    op = workloads.Op(0, "invariants", "abelian(3,2) levels 0..5", (P,), (0, 1, 2, 3, 4, 5), {})
    with pytest.raises(workloads.BudgetExceeded):
        workloads.check_budget([op])


def test_refuses_without_engine_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
