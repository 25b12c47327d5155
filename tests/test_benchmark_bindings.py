"""The benchmark's traced run wraps engine functions at the module attributes
listed in perfbench/spans.py; a rename or deletion there breaks it."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_binding_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.BINDINGS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _name, _probe in spans.BINDINGS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
