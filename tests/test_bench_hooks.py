"""The benchmark wraps package functions by name; every name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def resolve(module, name):
    return getattr(importlib.import_module(f"dfatoms.{module}"), name, None)


def test_traced_functions_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, name, *_ in tracing.TRACED:
        assert callable(resolve(module, name)), f"dfatoms.{module}.{name}"


# The attribution pass and the in-process replay call these directly.
DIRECT = (("atoms", "build_atom_dfa"), ("dfa", "quotient_complexity"), ("cli", "main"))


def test_attribution_and_entry_point_functions_exist():
    for module, name in DIRECT:
        assert callable(resolve(module, name)), f"dfatoms.{module}.{name}"
