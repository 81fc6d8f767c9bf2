"""The benchmark's ``--trace 1`` looks up every traced function by name."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod.__name__}.{name}" for mod, names in tracing.TRACED.items()
               for name in names if not callable(getattr(mod, name, None))]
    assert missing == []
