"""The benchmark's traced runs wrap program functions by name; each name must exist."""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    missing = []
    for span, attr, _ in load_tracing().TARGETS:
        module = importlib.import_module("graphsteering." + span.split(".")[0])
        try:
            target = functools.reduce(getattr, attr.split("."), module)
        except AttributeError:
            missing.append(f"{module.__name__}.{attr}")
            continue
        assert callable(target), span
    assert not missing, missing
