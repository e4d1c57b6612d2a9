import itertools
import json
import re

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from graphsteering import (
    Bipartition,
    Graph,
    NotTwoColorable,
    make_chain,
    make_grid,
    make_star,
    parse_graph,
    two_color,
)
from oracle import edge_scan_two_color


def coloring_valid(g, coloring):
    return all(coloring.colors[i] != coloring.colors[j] for i, j in g.edges)


def brute_force_two_colorable(g):
    for bits in itertools.product((0, 1), repeat=g.n_vertices):
        if all(bits[i - 1] != bits[j - 1] for i, j in g.edges):
            return True
    return False


class TestTwoColor:
    def test_star_center_zero(self):
        coloring = two_color(make_star(5))
        assert coloring.colors[1] == 0
        assert all(coloring.colors[k] == 1 for k in range(2, 6))

    def test_triangle_rejected_with_cycle(self):
        g = Graph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
        with pytest.raises(NotTwoColorable) as err:
            two_color(g)
        cycle = err.value.cycle
        assert len(cycle) % 2 == 1
        edge_set = set(g.edges)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert (min(a, b), max(a, b)) in edge_set

    def test_chain_alternates(self):
        coloring = two_color(make_chain(5))
        assert [coloring.colors[v] for v in range(1, 6)] == [0, 1, 0, 1, 0]

    def test_disconnected_components_colored_independently(self):
        g = Graph(4, frozenset({(1, 2), (3, 4)}))
        coloring = two_color(g)
        assert coloring.colors[1] == 0 and coloring.colors[3] == 0

    def test_deterministic(self):
        g = make_chain(6)
        assert two_color(g).colors == two_color(g).colors

    def test_matches_brute_force_small_graphs(self):
        # exhaustive up to 5 vertices, random sample at 6
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(2 ** len(pairs)):
                edges = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
                g = Graph(n, edges)
                try:
                    coloring = two_color(g)
                    assert coloring_valid(g, coloring)
                    assert brute_force_two_colorable(g)
                except NotTwoColorable:
                    assert not brute_force_two_colorable(g)

    def test_matches_brute_force_six_vertices_sample(self):
        import random

        rng = random.Random(99)
        pairs = list(itertools.combinations(range(1, 7), 2))
        for _ in range(300):
            edges = frozenset(p for p in pairs if rng.random() < 0.4)
            g = Graph(6, edges)
            try:
                coloring = two_color(g)
                assert coloring_valid(g, coloring)
                assert brute_force_two_colorable(g)
            except NotTwoColorable:
                assert not brute_force_two_colorable(g)


    @hyp_settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_edge_scan_oracle(self, data):
        # same colors, or the same odd cycle raised, as the edge-scanning BFS
        n = data.draw(st.integers(1, 14))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = set(data.draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else [])
        if n >= 3 and data.draw(st.booleans()):
            length = data.draw(st.sampled_from([k for k in range(3, n + 1) if k % 2]))
            cycle = data.draw(st.permutations(range(1, n + 1)))[:length]
            edges |= {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
        g = Graph(n, frozenset(edges))
        try:
            expected = edge_scan_two_color(g)
        except NotTwoColorable as exc:
            with pytest.raises(NotTwoColorable) as err:
                two_color(g)
            assert err.value.cycle == exc.cycle
        else:
            assert two_color(g).colors == expected.colors


class TestGenerators:
    def test_star_edges(self):
        assert make_star(3).edges == frozenset({(1, 2), (1, 3)})

    def test_chain_edges(self):
        assert make_chain(4).edges == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_star_edge_count(self):
        for n in range(2, 8):
            assert len(make_star(n).edges) == n - 1

    def test_generators_two_colorable(self):
        for n in range(2, 8):
            two_color(make_star(n))
            two_color(make_chain(n))

    def test_grid_edges(self):
        # 1 2 3
        # 4 5 6
        assert make_grid(2, 3).edges == frozenset(
            {(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)}
        )
        assert len(make_grid(30, 30).edges) == 2 * 30 * 29
        two_color(make_grid(5, 4))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_star(1)
        with pytest.raises(ValueError):
            make_chain(1)
        with pytest.raises(ValueError):
            make_grid(1, 1)


class TestParseGraph:
    def test_star3(self):
        g, d = parse_graph('{"n":3,"d":2,"edges":[[1,2],[1,3]]}')
        assert g == make_star(3)
        assert d == 2

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_graph('{"n":2,"d":4,"edges":[[1,1]]}')

    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_graph('{"n":3,"d":2,"edges":[[1,2],[1,2]]}')

    def test_reversed_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_graph('{"n":3,"d":2,"edges":[[1,2],[2,1]]}')

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_graph('{"n":3,"d":2,"edges":[[1,4]]}')

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="'d'"):
            parse_graph('{"n":3,"d":1,"edges":[]}')

    def test_malformed_json(self):
        with pytest.raises(ValueError, match="malformed JSON"):
            parse_graph("{not json")

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            parse_graph(json.dumps({"n": 3, "edges": []}))

    def test_deeply_nested(self):
        with pytest.raises(ValueError, match="malformed JSON"):
            parse_graph("[" * 100_000)


# Each message as parse_graph words it, with the field or edge index it names.
PARSE_MESSAGES = [
    ('{"n": 0, "d": 2, "edges": []}', "field 'n' must be a positive integer, got 0"),
    ('{"n": 3, "d": 1.5, "edges": []}', "field 'd' must be an integer >= 2, got 1.5"),
    ('{"n": 3, "d": 2, "edges": {}}', "field 'edges' must be a list of [i, j] pairs"),
    ('{"n": 3, "d": 2, "edges": [[1, 2], [1]]}', "edges[1] must be a pair of integers, got [1]"),
    ('{"n": 3, "d": 2, "edges": [[1, 2.0]]}', "edges[0] must be a pair of integers, got [1, 2.0]"),
    ('{"n": 3, "d": 2, "edges": [[1, 2], "ab"]}', "edges[1] must be a pair of integers, got 'ab'"),
    ('{"n": 3, "d": 2, "edges": [[3, 3]]}', "edges[0] is a self-loop at vertex 3"),
    ('{"n": 3, "d": 2, "edges": [[0, 0]]}', "edges[0] is a self-loop at vertex 0"),
    ('{"n": 3, "d": 2, "edges": [[4, 1]]}', "edges[0] = (4,1) out of range 1..3"),
    ('{"n": 3, "d": 2, "edges": [[1, 2], [3, 1], [2, 1]]}', "edges[2] duplicates edge (1,2)"),
]


class TestParseGraphBuildsGraph:
    @pytest.mark.parametrize("text, message", PARSE_MESSAGES)
    def test_message(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_graph(text)
        assert str(err.value) == message

    @hyp_settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_constructed_graph(self, data):
        # the parse path skips Graph's own edge checks; the result must not tell
        n = data.draw(st.integers(1, 12), label="n")
        d = data.draw(st.integers(2, 9), label="d")
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20), label="edges") if pairs else []
        edges = [[j, i] if data.draw(st.booleans()) else [i, j] for i, j in edges]
        g, d_parsed = parse_graph(json.dumps({"n": n, "d": d, "edges": edges}))
        expected = Graph(n, frozenset(map(tuple, edges)))
        assert (g, d_parsed) == (expected, d)
        assert all(sorted(a) == sorted(b) for a, b in zip(g.adjacency, expected.adjacency, strict=True))
        for v in range(1, n + 1):
            assert g.neighbors(v) == frozenset(j if i == v else i for i, j in g.edges if v in (i, j))


class TestBipartition:
    def test_from_side_a(self):
        part = Bipartition.from_side_a(make_star(4), {1, 3})
        assert part.side_a == frozenset({1, 3})
        assert part.side_b == frozenset({2, 4})

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            Bipartition(frozenset(), frozenset({1}))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Bipartition(frozenset({1}), frozenset({1, 2}))


class TestParseGraphRejectsBooleans:
    # json.loads maps true/false to bool, a subclass of int
    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"n": true, "d": 2, "edges": []}', "'n'"),
            ('{"n": 3, "d": true, "edges": [[1, 2]]}', "'d'"),
            ('{"n": 3, "d": 2, "edges": [[true, 2], [1, 3]]}', "edges[0]"),
            ('{"n": 3, "d": 2, "edges": [[1, 2], [1, false]]}', "edges[1]"),
        ],
    )
    def test_boolean_rejected(self, text, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            parse_graph(text)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)
VERTEX = st.integers(-1, 6) | JSON_VALUES
GRAPH_LIKE = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 6) | JSON_VALUES,
        "d": st.integers(0, 4) | JSON_VALUES,
        "edges": st.lists(st.lists(VERTEX, max_size=3) | JSON_VALUES, max_size=5) | JSON_VALUES,
    }
)
VALID_TEXT = '{"n": 4, "d": 3, "edges": [[1, 2], [2, 3], [3, 4]]}'


def parses_or_refuses(text):
    """parse_graph either returns (Graph, d >= 2) or raises ValueError; nothing else."""
    try:
        g, d = parse_graph(text)
    except ValueError:
        return
    assert isinstance(g, Graph)
    assert isinstance(d, int) and not isinstance(d, bool) and d >= 2


class TestParseGraphFuzz:
    @hyp_settings(max_examples=300, deadline=None)
    @given(JSON_VALUES | GRAPH_LIKE)
    def test_arbitrary_json(self, doc):
        parses_or_refuses(json.dumps(doc))

    @hyp_settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_valid_document(self, data):
        start = data.draw(st.integers(0, len(VALID_TEXT)))
        stop = data.draw(st.integers(start, min(start + 3, len(VALID_TEXT))))
        insert = data.draw(st.text(alphabet='[]{},:"0123456789-.e ntruefalsd', max_size=3))
        parses_or_refuses(VALID_TEXT[:start] + insert + VALID_TEXT[stop:])
