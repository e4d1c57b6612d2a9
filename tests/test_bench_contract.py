"""The benchmark's traced runs wrap program functions by name, and its checks read the derived forms."""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

from hypothesis import given, settings as hyp_settings, strategies as st

from graphsteering import (
    Bipartition,
    Graph,
    NoCorrelationForm,
    ProtocolConfig,
    Transcript,
    derive_both_settings,
    make_star,
    run_protocol,
    schmidt,
    two_color,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("tracing")


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


@hyp_settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bench_checks_accept_derived_settings(data):
    # cut_sweep counts a derived setting the checker refuses as an incorrect output
    checks = load_bench("checks")
    d = data.draw(st.sampled_from([2, 3, 4, 5, 6, 10, 30]), label="d")
    n = data.draw(st.integers(2, 14), label="n")
    colors = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="colors")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if colors[i - 1] != colors[j - 1]]
    edges = data.draw(st.sets(st.sampled_from(pairs)), label="edges") if pairs else set()
    side_a = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1), label="side_a")
    g = Graph(n, frozenset(edges))
    try:
        settings = derive_both_settings(g, d, Bipartition.from_side_a(g, side_a))
    except NoCorrelationForm:
        return
    graph = {"n": n, "d": d, "edges": [list(e) for e in sorted(edges)]}
    for s in settings:
        assert checks.check_setting(graph, side_a, s) is None
