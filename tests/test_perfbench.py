import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    # the tracer wraps each name where its caller looks it up; a name the
    # package no longer binds makes every traced benchmark run fail
    monkeypatch.setattr(sys, "path", [str(PERFBENCH)] + sys.path)
    tracing = importlib.import_module("tracing")
    for module_name, attr, _ in tracing.INTERPOSITIONS:
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), f"{module_name}.{attr}"
