"""Spans around the engine's public functions, for the traced run.

The engine's modules import each other with ``from .x import f``, so a
function is wrapped at every binding its callers use (``lambda_mod.diagonalize``,
``invariants.level_diagonal_form``, ``compare.mu_profile``, ...), not only in
the module that defines it.  Spans are kept in memory as
``[name, start, end, parent, op, attrs]`` and written out as JSONL at the end.
A layer's self time is its spans' duration minus that of their child spans;
calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

import numpy as np

from mutower import cli, compare, invariants, lambda_mod, modfile, syzygy
from mutower.groupring import quotient_order

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def wrap(self, name, fn, probe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[ATTRS] = probe(out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                rec = {
                    "id": idx,
                    "name": s[NAME],
                    "start": s[START] - t0,
                    "end": s[END] - t0,
                    "parent": s[PARENT],
                    "op": s[OP],
                }
                rec.update(s[ATTRS] or {})
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _diag_probe(form, ring, rows, ncols=None):
    return {
        "ring": [ring.p, ring.e, ring.f, ring.N],
        "rows": form.row_count,
        "cols": form.col_count,
        "path": "int64" if isinstance(rows, np.ndarray) else "tuple",
        "pivots": len(form.diag_valuations),
        "unit_pivots": form.diag_valuations.count(0),
    }


def _expand_probe(form, P, m, N):
    return {
        "preset": f"{P.spec.kind}({P.spec.p},{P.spec.r})",
        "m": m,
        "rows_in": P.rels * quotient_order(P.spec, m),
        "rows_kept": form.row_count,
    }


def _groebner_probe(basis, ctx, gens, split=0):
    return {"gens_in": len(gens), "basis_out": len(basis)}


# (module, attribute, span name, probe): every binding through which the
# pipeline, the CLI and the benchmark's own ops reach a public function.
BINDINGS = [
    (cli, "main", "cli", None),
    (modfile, "load_presentation", "modfile.load", None),
    (compare, "compare_modules", "compare.compare_modules", None),
    (invariants, "mu_profile", "invariants.mu_profile", None),
    (compare, "mu_profile", "invariants.mu_profile", None),
    (invariants, "recover_elementary", "invariants.recover_elementary", None),
    (compare, "recover_elementary", "invariants.recover_elementary", None),
    (invariants, "fit_mu", "invariants.fit_mu", None),
    (invariants, "ordq_from_form", "invariants.base_change", None),
    (invariants, "quotient_pi", "lambda_mod.quotient_pi", None),
    (invariants, "level_diagonal_form", "lambda_mod.expand", _expand_probe),
    (lambda_mod, "reduce_poly", "groupring.reduce_poly", None),
    (lambda_mod, "diagonalize", "chainring.diagonalize", _diag_probe),
    (lambda_mod, "koszul_homology_ordq", "lambda_mod.koszul", None),
    (lambda_mod, "preimage_gens", "syzygy.preimage_gens", None),
    (lambda_mod, "quotient_ordq", "syzygy.quotient_ordq", None),
    (syzygy, "strong_groebner", "syzygy.strong_groebner", _groebner_probe),
]


@contextmanager
def installed(tracer: Tracer):
    """Wraps every binding for the duration of the block."""
    saved = []
    try:
        for module, attr, name, probe in BINDINGS:
            orig = getattr(module, attr)
            saved.append((module, attr, orig))
            setattr(module, attr, tracer.wrap(name, orig, probe))
        yield tracer
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


# Per-layer metric -> (unit, better).  Counts are exact and repeat from run
# to run; times are self times summed over the traced pass.
PER_LAYER = {
    "chainring.diagonalize.calls": ("count", "lower"),
    "chainring.diagonalize.self_s": ("s", "lower"),
    "chainring.diagonalize.share": ("frac", "lower"),
    "chainring.diagonalize.cells": ("count", "lower"),
    "chainring.diagonalize.pivots": ("count", "lower"),
    "chainring.diagonalize.unit_pivot_frac": ("frac", "higher"),
    "chainring.diagonalize.top_level_s": ("s", "lower"),
    "lambda_mod.expand.calls": ("count", "lower"),
    "lambda_mod.expand.self_s": ("s", "lower"),
    "lambda_mod.expand.rows_in": ("count", "lower"),
    "lambda_mod.expand.rows_kept": ("count", "lower"),
    "groupring.reduce_poly.calls": ("count", "lower"),
    "groupring.reduce_poly.self_s": ("s", "lower"),
    "lambda_mod.quotient_pi.self_s": ("s", "lower"),
    "lambda_mod.koszul.calls": ("count", "lower"),
    "lambda_mod.koszul.self_s": ("s", "lower"),
    "syzygy.strong_groebner.calls": ("count", "lower"),
    "syzygy.strong_groebner.self_s": ("s", "lower"),
    "syzygy.strong_groebner.share": ("frac", "lower"),
    "syzygy.strong_groebner.gens_in": ("count", "lower"),
    "syzygy.strong_groebner.basis_out": ("count", "lower"),
    "syzygy.strong_groebner.basis_max": ("count", "lower"),
    "syzygy.preimage_gens.self_s": ("s", "lower"),
    "syzygy.quotient_ordq.self_s": ("s", "lower"),
    "invariants.mu_profile.self_s": ("s", "lower"),
    "invariants.base_change.self_s": ("s", "lower"),
    "invariants.fit_mu.self_s": ("s", "lower"),
    "invariants.recover_elementary.self_s": ("s", "lower"),
    "compare.compare_modules.calls": ("count", "lower"),
    "compare.compare_modules.self_s": ("s", "lower"),
    "modfile.load.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.coverage_frac": ("frac", "higher"),
}

COUNT_METRICS = [k for k, (unit, _) in PER_LAYER.items() if unit == "count"]


def self_times(spans: Sequence[list]) -> List[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans: Sequence[list], op_wall_s: float, overhead_frac: float) -> Dict[str, float]:
    """Every PER_LAYER metric from the spans of one traced pass whose ops
    took ``op_wall_s`` seconds in total."""
    selfs = self_times(spans)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for s, t in zip(spans, selfs):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + t

    # Attributes of the spans whose call returned (a raising op has none).
    def probed(name):
        return [s[ATTRS] for s in spans if s[NAME] == name and s[ATTRS] is not None]

    def attr_sum(name, key):
        return sum(a[key] for a in probed(name))

    # Top-level diagonalization: the one under the highest level that each
    # mu_profile call expands.
    top_s = 0.0
    top_expand = {}
    for idx, s in enumerate(spans):
        if s[NAME] == "lambda_mod.expand" and s[ATTRS] is not None:
            best = top_expand.get(s[PARENT])
            if best is None or s[ATTRS]["m"] > spans[best][ATTRS]["m"]:
                top_expand[s[PARENT]] = idx
    top_ids = set(top_expand.values())
    for s, t in zip(spans, selfs):
        if s[NAME] == "chainring.diagonalize" and s[PARENT] in top_ids:
            top_s += t

    pivots = attr_sum("chainring.diagonalize", "pivots")
    basis = [a["basis_out"] for a in probed("syzygy.strong_groebner")]
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] is None)

    def c(name):
        return calls.get(name, 0)

    def st(name):
        return self_s.get(name, 0.0)

    out = {
        "chainring.diagonalize.calls": c("chainring.diagonalize"),
        "chainring.diagonalize.self_s": st("chainring.diagonalize"),
        "chainring.diagonalize.share": st("chainring.diagonalize") / op_wall_s,
        "chainring.diagonalize.cells": sum(a["rows"] * a["cols"] for a in probed("chainring.diagonalize")),
        "chainring.diagonalize.pivots": pivots,
        "chainring.diagonalize.unit_pivot_frac": (
            attr_sum("chainring.diagonalize", "unit_pivots") / pivots if pivots else 0.0
        ),
        "chainring.diagonalize.top_level_s": top_s,
        "lambda_mod.expand.calls": c("lambda_mod.expand"),
        "lambda_mod.expand.self_s": st("lambda_mod.expand"),
        "lambda_mod.expand.rows_in": attr_sum("lambda_mod.expand", "rows_in"),
        "lambda_mod.expand.rows_kept": attr_sum("lambda_mod.expand", "rows_kept"),
        "groupring.reduce_poly.calls": c("groupring.reduce_poly"),
        "groupring.reduce_poly.self_s": st("groupring.reduce_poly"),
        "lambda_mod.quotient_pi.self_s": st("lambda_mod.quotient_pi"),
        "lambda_mod.koszul.calls": c("lambda_mod.koszul"),
        "lambda_mod.koszul.self_s": st("lambda_mod.koszul"),
        "syzygy.strong_groebner.calls": c("syzygy.strong_groebner"),
        "syzygy.strong_groebner.self_s": st("syzygy.strong_groebner"),
        "syzygy.strong_groebner.share": st("syzygy.strong_groebner") / op_wall_s,
        "syzygy.strong_groebner.gens_in": attr_sum("syzygy.strong_groebner", "gens_in"),
        "syzygy.strong_groebner.basis_out": sum(basis),
        "syzygy.strong_groebner.basis_max": max(basis, default=0),
        "syzygy.preimage_gens.self_s": st("syzygy.preimage_gens"),
        "syzygy.quotient_ordq.self_s": st("syzygy.quotient_ordq"),
        "invariants.mu_profile.self_s": st("invariants.mu_profile"),
        "invariants.base_change.self_s": st("invariants.base_change"),
        "invariants.fit_mu.self_s": st("invariants.fit_mu"),
        "invariants.recover_elementary.self_s": st("invariants.recover_elementary"),
        "compare.compare_modules.calls": c("compare.compare_modules"),
        "compare.compare_modules.self_s": st("compare.compare_modules"),
        "modfile.load.self_s": st("modfile.load"),
        "cli.self_s": st("cli"),
        "trace.overhead_frac": overhead_frac,
        "trace.coverage_frac": covered / op_wall_s,
    }
    assert set(out) == set(PER_LAYER)
    return out


def diagonalize_by_shape(spans: Sequence[list], workload: str) -> List[dict]:
    """Traced diagonalize self time grouped by (workload, preset, level, shape),
    so measured kernels can be set against quoted baselines."""
    selfs = self_times(spans)
    groups: Dict[tuple, List[float]] = {}
    for s, t in zip(spans, selfs):
        if s[NAME] != "chainring.diagonalize" or s[ATTRS] is None:
            continue
        a = s[ATTRS]
        parent = (spans[s[PARENT]][ATTRS] or {}) if s[PARENT] is not None else {}
        key = (parent.get("preset"), parent.get("m"), a["rows"], a["cols"], a["path"], tuple(a["ring"]))
        groups.setdefault(key, []).append(t)
    out = []
    for (preset, m, rows, cols, path, ring), ts in sorted(groups.items(), key=lambda kv: -sum(kv[1])):
        out.append(
            {
                "workload": workload,
                "preset": preset,
                "m": m,
                "shape": f"{rows}x{cols}",
                "path": path,
                "ring_pefN": list(ring),
                "calls": len(ts),
                "total_s": sum(ts),
                "median_ms": 1000 * statistics.median(ts),
            }
        )
    return out
