"""The benchmark's traced mode wraps package functions by name; a
deleted or renamed one would only fail there.  Check every name here."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    for module, functions, _ in spans.TARGETS.values():
        owner = importlib.import_module(f"ribbonknots.{module}")
        for fn in functions:
            assert callable(getattr(owner, fn, None)), f"ribbonknots.{module}.{fn}"
