"""Graph model: two-colorability, standard generators and the JSON input format.

Vertices are 1-indexed throughout; edges are unordered pairs without
self-loops or duplicates.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass


class NotTwoColorable(ValueError):
    """Raised when a graph contains an odd cycle; carries one offending cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"graph is not two-colorable: odd cycle {self.cycle}")


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: frozenset

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        normalized = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i <= self.n_vertices and 1 <= j <= self.n_vertices):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.n_vertices}")
            normalized.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def _from_checked(cls, n_vertices: int, edges: frozenset) -> Graph:
        """A graph whose edges are already checked (i < j) pairs within 1..n_vertices."""
        g = object.__new__(cls)
        object.__setattr__(g, "n_vertices", n_vertices)
        object.__setattr__(g, "edges", edges)
        return g

    @functools.cached_property
    def adjacency(self) -> list:
        """Neighbour lists indexed by vertex (entry 0 unused), each in the iteration order of ``edges``.

        Built on first use, in O(N + |E|), and shared by every later caller,
        which must not modify it.  The command line builds it only after the
        graph-size bound has refused an oversized graph.
        """
        adjacency = [[] for _ in range(self.n_vertices + 1)]
        for i, j in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        return adjacency

    @functools.cached_property
    def coloring(self) -> TwoColoring:
        """The graph's ``two_color``, run on first use and shared by every later caller.

        A graph with an odd cycle keeps nothing, so each use raises
        NotTwoColorable again.  Callers must not modify the coloring.
        """
        return two_color(self)


@dataclass(frozen=True)
class TwoColoring:
    colors: dict

    def color_class(self, c: int) -> frozenset:
        return frozenset(v for v, col in self.colors.items() if col == c)


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint vertex sets, each also sorted once, on first use, into ``a_vertices`` or ``b_vertices``."""

    side_a: frozenset
    side_b: frozenset

    def __post_init__(self):
        object.__setattr__(self, "side_a", frozenset(self.side_a))
        object.__setattr__(self, "side_b", frozenset(self.side_b))
        if not self.side_a or not self.side_b:
            raise ValueError("both sides of a bipartition must be non-empty")
        if self.side_a & self.side_b:
            raise ValueError("bipartition sides must be disjoint")

    @functools.cached_property
    def a_vertices(self) -> tuple:
        return tuple(sorted(self.side_a))

    @functools.cached_property
    def b_vertices(self) -> tuple:
        return tuple(sorted(self.side_b))

    @classmethod
    def from_side_a(cls, g: Graph, side_a) -> Bipartition:
        side_a = frozenset(side_a)
        if any(not 1 <= v <= g.n_vertices for v in side_a):
            raise ValueError("A-side contains out-of-range vertices")
        return cls(side_a, frozenset(range(1, g.n_vertices + 1)) - side_a)


def two_color(g: Graph) -> TwoColoring:
    """Deterministic BFS two-coloring; lowest-indexed root of each component gets 0.

    Raises NotTwoColorable with one odd cycle if the graph is not bipartite.
    Each vertex's neighbours, read from ``g.adjacency``, are visited in
    increasing order.
    """
    adjacency = g.adjacency
    colors: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for root in range(1, g.n_vertices + 1):
        if root in colors:
            continue
        colors[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in sorted(adjacency[v]):
                if w not in colors:
                    colors[w] = 1 - colors[v]
                    parent[w] = v
                    queue.append(w)
                elif colors[w] == colors[v]:
                    raise NotTwoColorable(_odd_cycle(parent, v, w))
    return TwoColoring(colors)


def _odd_cycle(parent, v, w):
    """Cycle through edge (v, w) using the BFS tree paths back to their meeting point."""
    path_v, path_w = [v], [w]
    anc_v = {v}
    x = v
    while parent[x] is not None:
        x = parent[x]
        path_v.append(x)
        anc_v.add(x)
    x = w
    while x not in anc_v:
        x = parent[x]
        path_w.append(x)
    meet = x
    cycle = path_v[: path_v.index(meet) + 1]
    cycle.extend(reversed(path_w[: path_w.index(meet)]))
    return cycle


def make_star(n: int) -> Graph:
    """Star graph: center 1 joined to vertices 2..n."""
    if n < 2:
        raise ValueError("star graph needs n >= 2")
    return Graph(n, frozenset((1, k) for k in range(2, n + 1)))


def make_chain(n: int) -> Graph:
    """Chain (path) graph on vertices 1..n."""
    if n < 2:
        raise ValueError("chain graph needs n >= 2")
    return Graph(n, frozenset((k, k + 1) for k in range(1, n)))


def make_grid(rows: int, cols: int) -> Graph:
    """rows x cols square lattice, vertices numbered row by row from 1."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid graph needs at least two vertices")
    label = lambda r, c: r * cols + c + 1
    edges = {(label(r, c), label(r, c + 1)) for r in range(rows) for c in range(cols - 1)}
    edges |= {(label(r, c), label(r + 1, c)) for r in range(rows - 1) for c in range(cols)}
    return Graph(rows * cols, frozenset(edges))


def parse_graph(text: str):
    """Parse the JSON graph format {"n": int, "d": int, "edges": [[i,j], ...]}.

    Returns (Graph, local_dim).  Raises ValueError with a field diagnostic on
    malformed input.  Each edge is checked here, once, so the Graph is built
    without checking them again.  ``type(x) is int`` refuses the bools that
    json.loads gives for true/false, which Python counts as int.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per nesting level
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("graph file must be a JSON object")
    for key in ("n", "d", "edges"):
        if key not in doc:
            raise ValueError(f"missing field '{key}'")
    n, d, edges = doc["n"], doc["d"], doc["edges"]
    if type(n) is not int or n < 1:
        raise ValueError(f"field 'n' must be a positive integer, got {n!r}")
    if type(d) is not int or d < 2:
        raise ValueError(f"field 'd' must be an integer >= 2, got {d!r}")
    if type(edges) is not list:
        raise ValueError("field 'edges' must be a list of [i, j] pairs")
    seen = set()
    for k, e in enumerate(edges):
        if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            raise ValueError(f"edges[{k}] must be a pair of integers, got {e!r}")
        i, j = e
        if i == j:
            raise ValueError(f"edges[{k}] is a self-loop at vertex {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edges[{k}] = ({i},{j}) out of range 1..{n}")
        key = (i, j) if i < j else (j, i)
        if key in seen:
            raise ValueError(f"edges[{k}] duplicates edge ({key[0]},{key[1]})")
        seen.add(key)
    return Graph._from_checked(n, frozenset(seen)), d
