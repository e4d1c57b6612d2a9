"""Seeded request plans for the three benchmark workloads.

A run issues its requests in blocks. Every block of a workload holds the same
multiset of input sizes, so block times compare across blocks and seeds; the
seed and the block index choose vertex labels, cuts, noise values, round
counts and request order. The program only ever sees the graph files written
here and command-line flags.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field

@dataclass
class Request:
    """One closed-loop request: a CLI command, or ``derive`` for the library call."""

    command: str
    argv: list
    expect: dict = field(default_factory=dict)
    out_ext: str | None = None  # the runner appends ``--out <file>`` when set


# --- graphs ---------------------------------------------------------------


def star(n):
    return n, [(1, k) for k in range(2, n + 1)]


def chain(n):
    return n, [(k, k + 1) for k in range(1, n)]


def grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, edges


FAMILIES = {"star": star, "chain": chain, "grid": grid}


def _tree_side(n, edges, cut):
    """Vertices on the lower endpoint's side once tree edge ``cut`` is removed."""
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        if (i, j) != cut:
            adj[i].add(j)
            adj[j].add(i)
    side, stack = {cut[0]}, [cut[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in side:
                side.add(w)
                stack.append(w)
    return side


def _side_a(n, edges, kind, rng):
    if kind == "single":
        return {rng.randint(1, n)}
    if kind == "leaf":
        degree = {v: 0 for v in range(1, n + 1)}
        for i, j in edges:
            degree[i] += 1
            degree[j] += 1
        low = min(degree.values())
        return {rng.choice([v for v in degree if degree[v] == low])}
    if kind == "half":
        return set(range(1, n // 2 + 1))
    if kind == "link":
        return _tree_side(n, edges, rng.choice(edges))
    raise ValueError(kind)


class Inputs:
    """Writes relabelled graph files for one block into ``directory``."""

    def __init__(self, directory, rng):
        self.directory = directory
        self.rng = rng
        self.count = 0

    def graph(self, family, size, d, cut_kinds):
        """Random relabelling of a family graph; returns (path, doc, side_a)."""
        n, edges = FAMILIES[family](*size)
        side = _side_a(n, edges, self.rng.choice(cut_kinds), self.rng)
        labels = list(range(1, n + 1))
        self.rng.shuffle(labels)
        relabel = dict(zip(range(1, n + 1), labels))
        new_edges = [[relabel[i], relabel[j]] for i, j in edges]
        self.rng.shuffle(new_edges)
        doc = {"n": n, "d": d, "edges": new_edges}
        return self.write(json.dumps(doc)), doc, sorted(relabel[v] for v in side)

    def write(self, text):
        self.count += 1
        path = os.path.join(self.directory, f"g{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _noise(rng, high):
    """Noise value written as the user would type it; exactly 0 one time in five."""
    return 0.0 if rng.random() < 0.2 else round(rng.uniform(0.0, high), 4)


# --- certify_mix ------------------------------------------------------------

# (family, size, d, count). One d=2 N=10 and one d=3 N=6 request set the top of
# the tail; the four N=9 requests hold the p90 rank; the small requests hold
# the median. Every request is a different (graph, partition, p).
CERTIFY_PLAN = [
    ("grid", (2, 5), 2, 1),
    ("star", (6,), 3, 1),
    ("star", (9,), 2, 2), ("chain", (9,), 2, 1), ("grid", (3, 3), 2, 1),
    ("star", (8,), 2, 2), ("chain", (8,), 2, 1), ("grid", (2, 4), 2, 1),
    ("star", (5,), 3, 1), ("chain", (5,), 3, 1),
    ("star", (3,), 7, 1), ("star", (3,), 5, 1), ("chain", (3,), 5, 1),
    ("star", (3,), 2, 2), ("star", (4,), 2, 2), ("star", (5,), 2, 2),
    ("star", (6,), 2, 2), ("star", (7,), 2, 2),
    ("chain", (3,), 2, 1), ("chain", (4,), 2, 2), ("chain", (5,), 2, 1),
    ("chain", (6,), 2, 1), ("chain", (7,), 2, 1),
    ("grid", (2, 2), 2, 2), ("grid", (2, 3), 2, 2),
    ("star", (3,), 3, 2), ("star", (4,), 3, 2), ("chain", (3,), 3, 2),
    ("chain", (4,), 3, 2), ("grid", (2, 2), 3, 2),
]
CERTIFY_TINY = [("star", (3,), 2, 1), ("chain", (4,), 3, 1), ("grid", (2, 2), 2, 1)]
CERTIFY_INVALID_PER_BLOCK = 2


def _invalid_certify(inputs, rng):
    """A request the CLI must refuse with exit code 2."""
    kind = rng.choice(["malformed", "missing", "odd_cycle", "partition", "noise", "self_loop"])
    argv = ["certify"]
    if kind == "malformed":
        argv.append(inputs.write('{"n": 3, "d": 2, "edges": [[1, 2],'))
    elif kind == "missing":
        argv.append(inputs.write('{"n": 3, "edges": [[1, 2], [1, 3]]}'))
    elif kind == "odd_cycle":
        n = rng.choice([3, 5, 7])
        edges = [[k, k % n + 1] for k in range(1, n + 1)]
        argv.append(inputs.write(json.dumps({"n": n, "d": rng.choice([2, 3]), "edges": edges})))
    elif kind == "self_loop":
        argv.append(inputs.write('{"n": 3, "d": 2, "edges": [[1, 2], [3, 3]]}'))
    else:
        path, doc, _ = inputs.graph("star", (4,), 2, ["single"])
        argv.append(path)
        argv += ["--partition", "9"] if kind == "partition" else ["--p", "1.5"]
    return Request("certify", argv, {"exit": 2})


def certify_mix(inputs, rng, tiny):
    requests = []
    for family, size, d, count in CERTIFY_TINY if tiny else CERTIFY_PLAN:
        for _ in range(count):
            path, doc, side = inputs.graph(family, size, d, ["single", "leaf", "half"])
            p = _noise(rng, 0.3)
            argv = ["certify", path, "--partition", ",".join(map(str, side)), "--p", str(p)]
            requests.append(Request("certify", argv, {"exit": 0, "d": d, "p": p}))
    for _ in range(1 if tiny else CERTIFY_INVALID_PER_BLOCK):
        requests.append(_invalid_certify(inputs, rng))
    return requests


# --- cut_sweep --------------------------------------------------------------

# Networks whose density matrices are far too large to build; derivation is
# the d^|Fourier class| enumeration in schmidt.derive_setting. Five requests
# of about equal cost hold the median, the two heaviest (one in seven) the p90.
CUT_PLAN = [
    ("chain", (10,), 5, 2), ("star", (14,), 2, 2),
    ("chain", (24,), 2, 2), ("grid", (4, 6), 2, 3),
    ("chain", (16,), 3, 3),
    ("chain", (18,), 3, 1), ("chain", (28,), 2, 1),
]
CUT_TINY = [("chain", (6,), 3, 2), ("grid", (2, 3), 2, 1)]


def cut_sweep(inputs, rng, tiny):
    requests = []
    for family, size, d, count in CUT_TINY if tiny else CUT_PLAN:
        kinds = ["single"] if family == "grid" else ["single", "link"]
        for _ in range(count):
            path, doc, side = inputs.graph(family, size, d, kinds)
            requests.append(Request("derive", [path, side], {"graph": doc, "side_a": side}))
    return requests


# --- qss_transcript ---------------------------------------------------------

# Eight transcripts of 30k rounds and three estimate-only runs of 100k rounds.
# The transcripts share one size so the latency median does not move between
# size classes, and their serialisation buffer (about 230 bytes a round) is
# the largest allocation of the block, above the sampling arrays of the
# estimate-only runs (about 40 bytes a round), so peak memory follows it.
QSS_OUT_ROUNDS = [30_000] * 8
QSS_ESTIMATE_ROUNDS = [100_000] * 3
QSS_TINY = ([2_000], [20_000])
# Kinds of request: (d=3 graph file, noise, cloner). The eight transcripts of
# a block take each kind once, so every block and seed issues the same mix.
QSS_KINDS = list(itertools.product((False, True), repeat=3))


def _qss(inputs, rng, rounds, with_out, kind):
    d3, noisy, cloner = kind
    argv = ["qss"]
    d = 2
    if d3:
        family, size = rng.choice([("chain", (4,)), ("star", (3,))])
        d = 3
        path, doc, side = inputs.graph(family, size, d, ["single", "leaf"])
        argv += ["--graph-file", path, "--partition", ",".join(map(str, side))]
    p = _noise(rng, 0.1) if noisy else 0.0
    disturbance = round(rng.uniform(0.0, 0.15), 4) if cloner else None
    argv += ["--p", str(p), "--rounds", str(rounds), "--seed", str(rng.randrange(2**31))]
    if disturbance is not None:
        argv += ["--disturbance", str(disturbance)]
    expect = {"d": d, "p": p, "disturbance": disturbance or 0.0, "rounds": rounds}
    return Request("qss", argv, expect, out_ext="jsonl" if with_out else None)


def qss_transcript(inputs, rng, tiny):
    out_rounds, estimate_rounds = QSS_TINY if tiny else (QSS_OUT_ROUNDS, QSS_ESTIMATE_ROUNDS)
    out_kinds = rng.sample(QSS_KINDS, len(out_rounds))
    estimate_kinds = rng.sample(QSS_KINDS, len(estimate_rounds))
    return [_qss(inputs, rng, r, True, k) for r, k in zip(out_rounds, out_kinds)] + [
        _qss(inputs, rng, r, False, k) for r, k in zip(estimate_rounds, estimate_kinds)
    ]


PLANS = {
    "certify_mix": certify_mix,
    "cut_sweep": cut_sweep,
    "qss_transcript": qss_transcript,
}
WORKLOADS = tuple(PLANS)


def block(workload, seed, index, directory, tiny=False):
    """Requests of block ``index``, in seeded order, with inputs written to ``directory``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    requests = PLANS[workload](Inputs(directory, rng), rng, tiny)
    rng.shuffle(requests)
    return requests
