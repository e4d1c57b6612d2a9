"""The benchmark's traced runs wrap program functions by name; each name must exist."""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

from graphsteering import (
    Bipartition,
    ProtocolConfig,
    Transcript,
    make_star,
    run_protocol,
    schmidt,
    two_color,
)

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


def test_traced_transcript_bytes_match_file(tmp_path):
    # the benchmark counts a transcript's bytes with tell() around to_jsonl(transcript, stream)
    assert list(inspect.signature(Transcript.to_jsonl).parameters) == ["self", "stream"]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    traced = tracer.wrap_to_jsonl(Transcript.to_jsonl)
    g = make_star(3)
    t = run_protocol(ProtocolConfig(g, 2, Bipartition.from_side_a(g, {1}), rounds=30_000, seed=7))
    path = tmp_path / "t.jsonl"
    with open(path, "wb") as handle:
        traced(t, handle)
    (span,) = tracer.spans
    assert span[tracing.ATTRS]["bytes"] == path.stat().st_size > 0


def test_traced_setting_search_accepts_its_arguments():
    # the span sizes a derive_setting call by passing its arguments to _fourier_candidates
    tracing = load_tracing()
    params = list(inspect.signature(schmidt.derive_setting).parameters)
    inspect.signature(tracing._fourier_candidates).bind(*params)
    tracer = tracing.Tracer()
    traced = tracer.wrap("schmidt.derive_setting", schmidt.derive_setting, tracing._fourier_candidates)
    g = make_star(4)
    part = Bipartition.from_side_a(g, {1})
    coloring = two_color(g)
    for m in (1, 2):
        assert traced(g, 3, coloring, part, m) == schmidt.derive_setting(g, 3, coloring, part, m)
    # setting 1 measures the three leaves in the Fourier basis, setting 2 the centre
    assert [span[tracing.ATTRS]["candidates"] for span in tracer.spans] == [3 ** 3 - 1, 3 - 1]
