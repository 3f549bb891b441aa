"""The traced benchmark wraps package functions by name; every name must resolve."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
