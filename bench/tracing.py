"""Spans around the program's public functions, installed from outside the program.

``install`` rebinds each traced function at every ``graphsteering`` module
namespace that holds it (and patches the two traced methods on their class),
so calls from one module into another are traced as well; ``restore`` undoes
it. Spans are kept in memory and turned into per-layer counts and self times
by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time

LAYERS = ("registers", "steering", "schmidt", "graphstate", "graphs", "infotheory", "cloner", "protocol", "cli")


def _density_bytes(reg):
    """Bytes of one dense complex density matrix on the register: 16 d^2N."""
    return 16 * reg.total_dim ** 2


def _fourier_candidates(g, d, coloring, part, m, paper_exact=False):
    return {"candidates": d ** len(coloring.color_class(1 if m == 1 else 0)) - 1}


# (span name, attribute in the module named by the span's first component, sizes).
# ``sizes`` takes the call's arguments and returns counts computed from input
# sizes, not measured.
TARGETS = [
    ("registers.DensityOperator", "DensityOperator.__init__", None),
    ("registers.permute_qudits", "permute_qudits", None),
    ("steering.white_noise", "white_noise", lambda psi, p: {"bytes": _density_bytes(psi.register)}),
    ("steering.steering_statistic", "steering_statistic", None),
    ("steering.derive_both_settings", "derive_both_settings", None),
    ("schmidt.derive_setting", "derive_setting", _fourier_candidates),
    ("schmidt.build_povm", "build_povm", None),
    ("schmidt.joint_distribution", "joint_distribution",
     lambda rho, povm_a, povm_b, part: {"bytes": _density_bytes(rho.register)}),
    ("graphstate.build_graph_state", "build_graph_state", None),
    ("graphs.parse_graph", "parse_graph", None),
    ("graphs.two_color", "two_color", None),
    ("infotheory.mutual_information", "mutual_information", None),
    ("cloner.bell_state", "bell_state", None),
    ("cloner.phase_covariant_gamma", "phase_covariant_gamma", None),
    ("protocol.setting_pair_tables", "setting_pair_tables", None),
    ("protocol.run_protocol", "run_protocol", lambda cfg: {"rounds": cfg.rounds}),
    ("protocol.estimate_rates", "estimate_rates", None),
    ("protocol.Transcript.to_jsonl", "Transcript.to_jsonl", None),
]

NAME, START, END, PARENT, REQUEST, ERROR, ATTRS = range(7)


class Tracer:
    """Single-threaded span recorder: spans are lists indexed by their id."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    def open(self, name, attrs=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.request, False, attrs])
        self._stack.append(sid)
        return sid

    def close(self, sid, error=False):
        self._stack.pop()
        span = self.spans[sid]
        span[END] = time.perf_counter_ns()
        span[ERROR] = error

    def wrap(self, name, fn, sizes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name, sizes(*args, **kwargs) if sizes else None)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.close(sid, error=True)
                raise
            self.close(sid)
            return result

        return traced

    def wrap_to_jsonl(self, fn):
        """Transcript.to_jsonl, counting the characters it writes to its stream."""

        @functools.wraps(fn)
        def traced(transcript, stream):
            attrs = {"bytes": 0}
            sid = self.open("protocol.Transcript.to_jsonl", attrs)
            start = stream.tell()
            try:
                fn(transcript, stream)
            except Exception:
                self.close(sid, error=True)
                raise
            attrs["bytes"] = stream.tell() - start
            self.close(sid)

        return traced


def dump(path, meta, blocks):
    """Write spans as gzipped JSON lines after one header line; ids are per block."""
    keys = ("name", "start_ns", "end_ns", "parent", "request", "error", "attrs")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(meta) + "\n")
        for block, spans in enumerate(blocks):
            for sid, span in enumerate(spans):
                fh.write(json.dumps({"block": block, "id": sid, **dict(zip(keys, span))}) + "\n")


def install(tracer):
    """Wrap every target; returns the (owner, attribute, original) list for ``restore``."""
    package = [m for name, m in list(sys.modules.items()) if name == "graphsteering" or name.startswith("graphsteering.")]
    patched = []
    for name, attr, sizes in TARGETS:
        owner = sys.modules["graphsteering." + name.split(".")[0]]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        if leaf == "to_jsonl":
            wrapper = tracer.wrap_to_jsonl(original)
        else:
            wrapper = tracer.wrap(name, original, sizes)
        if path:  # a method: one binding, on its class
            patched.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            continue
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, key, original))
                    setattr(module, key, wrapper)
    return patched


def restore(patched):
    for owner, key, original in reversed(patched):
        setattr(owner, key, original)


def layer_metrics(spans, names):
    """Values of the per-layer metrics ``names`` in one traced block.

    A name ``<span>.calls`` counts spans, ``<span>.self_s`` sums their self
    time, ``<layer>.errors`` counts spans of the layer an exception passed
    through, ``cli.bytes_written`` sums what each request wrote, and any other
    ``<span>.<key>`` sums that size attribute. Spans named ``cli.<command>``
    and ``request`` are opened by the runner. ``trace.overhead_s`` is left to
    the runner.
    """
    child_ns = {}
    for span in spans:
        if span[PARENT] is not None:
            child_ns[span[PARENT]] = child_ns.get(span[PARENT], 0) + span[END] - span[START]
    calls, self_ns, sums = {}, {}, {}
    errors = dict.fromkeys(LAYERS, 0)
    for sid, span in enumerate(spans):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + span[END] - span[START] - child_ns.get(sid, 0)
        for key, value in (span[ATTRS] or {}).items():
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
        layer = name.split(".")[0]
        if span[ERROR] and layer in errors:
            errors[layer] += 1
    out = {}
    for metric in names:
        base, _, kind = metric.rpartition(".")
        if metric == "cli.bytes_written":
            out[metric] = sums.get("request.bytes_written", 0)
        elif metric == "trace.overhead_s":
            continue
        elif kind == "calls":
            out[metric] = calls.get(base, 0)
        elif kind == "self_s":
            out[metric] = self_ns.get(base, 0) / 1e9
        elif kind == "errors":
            out[metric] = errors[base]
        else:
            out[metric] = sums.get(metric, 0)
    return out


def median_metrics(blocks):
    """Median over traced blocks of each per-layer value."""
    return {key: statistics.median(b[key] for b in blocks) for key in blocks[0]}
