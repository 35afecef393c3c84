"""Graph model, exact durations, periods and the JSON interchange format."""

import copy
import dataclasses
import json
import math
import pickle
import random
from fractions import Fraction
from itertools import chain, combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalog
import dynwalk.graph_model as gm
from adjacency import adjacency_matrix
from dynwalk.gate_compiler import _pairs, parse_circuit
from dynwalk.graph_model import (
    MAX_VERTICES,
    DynamicGraph,
    Graph,
    ParseError,
    TimedGraph,
    format_angle,
    parse_dynamic_graph,
    period,
    radians,
    serialize_dynamic_graph,
    spectrum,
    supports_disjoint,
)
from test_walk_engine import dense_step_unitary

PERIOD_TOL = 1e-9

angles = st.builds(
    Fraction,
    st.integers(0, 40),
    st.integers(1, 12),
)


# -- durations and angles ----------------------------------------------------


def test_angle_ordering_and_float():
    assert radians(Fraction(1, 2)) == pytest.approx(np.pi / 2)
    assert radians(Fraction(3, 2)) == pytest.approx(3 * np.pi / 2)
    # the same expression the step rates have always used, to the bit
    assert radians(Fraction(5, 13)) == math.pi * 5 / 13
    assert radians(Fraction(1, 4)) < radians(Fraction(1, 3))


def test_angle_strings():
    assert format_angle(Fraction(0, 5)) == "0"
    assert format_angle(Fraction(1, 1)) == "π"
    assert format_angle(Fraction(1, 4)) == "π/4"
    assert format_angle(Fraction(3, 2)) == "3π/2"
    assert format_angle(Fraction(2, 1)) == "2π"


def test_angle_hashable_by_value():
    g = Graph.make(2, loops=[0])
    assert TimedGraph(g, Fraction(2, 4)) == TimedGraph(g, Fraction(1, 2))
    assert hash(TimedGraph(g, Fraction(2, 4))) == hash(TimedGraph(g, Fraction(1, 2)))
    assert len({TimedGraph(g, Fraction(2, 4)), TimedGraph(g, Fraction(1, 2))}) == 1


def test_equal_graphs_and_steps_built_apart_hash_equal_on_every_call():
    first = Graph.make(4, [(0, 1), (2, 3)], [1])
    second = Graph.make(4, [(3, 2), (1, 0)], [1])
    assert first == second and first is not second
    assert len({hash(first), hash(second), hash(first), hash(second)}) == 1
    step = TimedGraph(first, Fraction(1, 2))
    other = TimedGraph(second, Fraction(2, 4))
    assert step == other and step is not other
    assert len({hash(step), hash(other), hash(step), hash(other)}) == 1
    # the kept hash is not a field: equality and repr read the fields alone
    assert repr(first) == "Graph(n_vertices=4, edges=frozenset({(0, 1), (2, 3)}), loops=frozenset({1}))"
    assert repr(step) == f"TimedGraph(graph={first!r}, duration=Fraction(1, 2))"
    assert step != TimedGraph(Graph.make(4, [(0, 1), (2, 3)]), Fraction(1, 2))


def test_a_step_is_not_equal_to_a_value_of_another_class():
    # __eq__ answers NotImplemented, so Python falls back to identity
    step = TimedGraph(Graph.make(2, edges=[(0, 1)]), Fraction(1, 2))
    assert step.__eq__((step.graph, step.pi_num, step.pi_den)) is NotImplemented
    assert (step == (step.graph, step.pi_num, step.pi_den)) is False
    assert step != 0


def test_angle_rejects_negative():
    # durations are checked where they enter a step
    with pytest.raises(ValueError, match="negative duration"):
        TimedGraph(Graph.make(2, edges=[(0, 1)]), Fraction(-1, 2))


def test_angle_rejects_non_int():
    # a float is not an exact multiple of pi, so no step takes one
    g = Graph.make(2, edges=[(0, 1)])
    for value in (0.5, 1.0, 1, True, "1/2", None):
        with pytest.raises(TypeError, match="Fraction multiple of pi"):
            TimedGraph(g, value)


def test_angle_subtraction_below_zero_raises():
    # a difference that went below zero stops at the step it would build
    with pytest.raises(ValueError, match="negative duration"):
        TimedGraph(Graph.make(2, loops=[0]), Fraction(1, 4) - Fraction(1, 2))


def test_a_step_holds_its_duration_as_integers_in_lowest_terms():
    g = Graph.make(3, edges=[(0, 1)], loops=[2])
    step = TimedGraph(g, Fraction(6, 4))
    assert (step.pi_num, step.pi_den) == (3, 2)
    assert type(step.duration) is Fraction and step.duration == Fraction(3, 2)
    assert TimedGraph.of(g, 6, 4) == step and hash(TimedGraph.of(g, 6, 4)) == hash(step)
    assert (TimedGraph.of(g, 0, 9).pi_num, TimedGraph.of(g, 0, 9).pi_den) == (0, 1)
    for num, den in ((-1, 2), (1, 0), (1, -2)):
        with pytest.raises(ValueError, match="not a nonnegative multiple of pi"):
            TimedGraph.of(g, num, den)


def test_a_step_is_immutable_and_copies_by_value():
    step = TimedGraph(Graph.make(2, loops=[0]), Fraction(1, 4))
    for name, value in (("graph", Graph(2)), ("pi_num", 3), ("duration", Fraction(1, 2))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(step, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del step.pi_den
    for copied in (pickle.loads(pickle.dumps(step)), copy.copy(step), copy.deepcopy(step)):
        assert copied == step and hash(copied) == hash(step)


def test_the_parser_builds_no_fraction(monkeypatch):
    walk = DynamicGraph(4, (
        TimedGraph(Graph.make(4, [(0, 1)], [3]), Fraction(6, 4)),
        TimedGraph(Graph.make(4, loops=[0, 2]), Fraction(7, 8)),
        TimedGraph(Graph(4), Fraction(0)),
    ))
    text = serialize_dynamic_graph(walk).replace('"pi_num": 3,\n        "pi_den": 2', '"pi_num": 6,\n        "pi_den": 4')

    def refuse(*args):
        raise AssertionError(f"built Fraction{args}")

    monkeypatch.setattr(gm, "Fraction", refuse)
    parsed = parse_dynamic_graph(text)
    monkeypatch.undo()
    assert '"pi_num": 6' in text
    assert parsed == walk


# -- Graph and containers ----------------------------------------------------


def test_graph_make_normalizes_edge_order():
    g = Graph.make(3, edges=[(2, 0)])
    assert g.edges == frozenset({(0, 2)})


def test_graph_make_rejects_self_pair():
    with pytest.raises(ValueError):
        Graph.make(3, edges=[(1, 1)])


@pytest.mark.parametrize(
    "edges, loops",
    [
        ([], [1.7]),
        ([], [1.0]),
        ([(0.5, 1.5)], []),
        ([(0, 2.0)], []),
        ([], ["1"]),
        # bools, which Graph(True) and the parser refuse too
        ([(0, True)], []),
        ([], [False]),
        ([(0, True)], [False]),
    ],
)
def test_graph_make_refuses_vertices_that_are_not_integers(edges, loops):
    with pytest.raises(TypeError):
        Graph.make(3, edges, loops)
    # so does the constructor: (0.5, 1.5) is no edge 0-1, and True no vertex 1
    with pytest.raises(TypeError, match="not an int"):
        Graph(3, frozenset(map(tuple, edges)), frozenset(loops))


def test_graph_make_reads_numpy_integers_as_ints():
    graph = Graph.make(3, [np.array([2, 0])], np.array([1]))
    assert graph == Graph(3, frozenset({(0, 2)}), frozenset({1}))
    assert {type(v) for v in (*graph.loops, *next(iter(graph.edges)))} == {int}
    # the constructor takes exactly int
    with pytest.raises(TypeError, match="not an int"):
        Graph(3, frozenset({(0, np.int64(2))}))
    with pytest.raises(TypeError, match="not an int"):
        Graph(3, loops=frozenset({np.intp(1)}))


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="negative vertex count"):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph.make(2, edges=[(0, 2)])
    with pytest.raises(ValueError):
        Graph.make(2, loops=[2])


@pytest.mark.parametrize("count", [2.5, 2.0, True, False])
def test_vertex_counts_must_be_ints(count):
    with pytest.raises(TypeError, match="vertex count must be an int"):
        Graph(count)
    with pytest.raises(TypeError, match="vertex count must be an int"):
        DynamicGraph(count, ())


def test_graph_predicates():
    assert Graph.make(3).is_empty
    assert Graph.make(3, loops=[1]).is_loops_only
    assert not Graph.make(3, edges=[(0, 1)]).is_loops_only
    assert not Graph.make(3, edges=[(0, 1)]).is_empty


def test_degree_free_matches_the_edge_scan():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randrange(1, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        graph = Graph.make(n, edges=edges, loops=[v for v in range(n) if rng.random() < 0.3])
        for v in range(n):
            assert graph.degree_free(v) == all(v not in pair for pair in graph.edges)
    # the cached endpoints are no field: equality and repr read the fields alone
    asked, fresh = Graph.make(3, edges=[(0, 1)]), Graph.make(3, edges=[(0, 1)])
    assert not asked.degree_free(0)
    assert asked == fresh and repr(asked) == repr(fresh) and hash(asked) == hash(fresh)


@pytest.mark.parametrize("name", ["_endpoints", "_hash"])
def test_a_graph_computes_its_kept_values_once(name, monkeypatch):
    kept = vars(Graph)[name]
    calls = []

    def counting(graph):
        calls.append(graph)
        return compute(graph)

    compute = kept.compute
    monkeypatch.setattr(kept, "compute", counting)
    rng = random.Random(43)
    for n in (1, 2, 5, 8, 33):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        for graph in (Graph.make(n, edges, [v for v in range(n) if rng.random() < 0.5]), Graph._of(n)):
            calls.clear()
            first = getattr(graph, name)
            # every reader of either value, twice over
            hash(graph), graph.degree_free(0), supports_disjoint(graph, graph), spectrum.__wrapped__(graph)
            assert getattr(graph, name) is first and vars(graph)[name] is first
            assert calls == [graph]
            if name == "_endpoints":
                assert first == frozenset(chain(*graph.edges))
            else:
                assert first == hash((graph.n_vertices, graph.edges, graph.loops)) == hash(graph)


def test_graph_union_and_degree_free():
    a = Graph.make(4, edges=[(0, 1)])
    b = Graph.make(4, loops=[3])
    u = a.union(b)
    assert u.edges == frozenset({(0, 1)}) and u.loops == frozenset({3})
    assert u.degree_free(3)
    assert not u.degree_free(0)
    with pytest.raises(ValueError):
        a.union(Graph.make(5))


def test_dynamic_graph_totals_and_replace():
    g = Graph.make(2, loops=[0])
    walk = DynamicGraph(2, (TimedGraph(g, Fraction(1, 2)), TimedGraph(g, Fraction(1, 4))))
    assert walk.total_time() == Fraction(3, 4)
    assert walk.graph_count == 2
    swapped = walk.replaced(0, 1, ())
    assert swapped.graph_count == 1
    assert swapped.steps[0].duration == Fraction(1, 4)


def test_dynamic_graph_rejects_vertex_mismatch():
    with pytest.raises(ValueError):
        DynamicGraph(3, (TimedGraph(Graph.make(2), Fraction(1, 2)),))


def test_adjacency_and_support():
    g = Graph.make(4, edges=[(0, 2)], loops=[3])
    a = adjacency_matrix(g)
    expected = np.zeros((4, 4), dtype=np.int64)
    expected[0, 2] = expected[2, 0] = expected[3, 3] = 1
    assert np.array_equal(a, expected)
    assert [v for v in range(4) if not supports_disjoint(g, Graph.make(4, loops=[v]))] == [0, 2, 3]
    assert supports_disjoint(g, Graph.make(4, loops=[1]))
    assert not supports_disjoint(g, Graph.make(4, edges=[(1, 2)]))


# -- small ratios and period -------------------------------------------------


def test_rationalize_clean_values():
    assert gm._small_ratio(0.5) == (1, 2)
    assert gm._small_ratio(1.0) == (1, 1)
    assert gm._small_ratio(2 / 3) == (2, 3)


def test_rationalize_rejects_irrational():
    assert gm._small_ratio(np.sqrt(2) / 2) is None
    assert gm._small_ratio(1 / np.sqrt(3)) is None


def hypercube_graph(dim):
    n = 2 ** dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return Graph.make(n, edges)


@pytest.mark.parametrize(
    "graph, expected",
    [
        (Graph.make(2, edges=[(0, 1)]), Fraction(2, 1)),
        (Graph.make(3, loops=[0, 1, 2]), Fraction(2, 1)),
        (Graph.make(1, loops=[0]), Fraction(2, 1)),
        (hypercube_graph(2), Fraction(2, 1)),
        (hypercube_graph(3), Fraction(6, 1)),
        (hypercube_graph(4), Fraction(4, 1)),
    ],
    ids=["edge", "loops", "one-loop", "square", "cube", "cube4"],
)
def test_period_known_graphs(graph, expected):
    p = period(graph)
    assert p is not None
    assert p == expected


def test_period_empty_graph_is_zero():
    p = period(Graph.make(3))
    assert p is not None and p == 0


@pytest.mark.parametrize(
    "graph, expected_period",
    [
        (Graph.make(600, loops=[517, 3, 64, 200, 0, 599, 12]), Fraction(2)),
        (Graph.make(1, loops=[0]), Fraction(2)),
        (Graph.make(8, loops=range(8)), Fraction(2)),
        (Graph.make(5), Fraction(0)),
    ],
)
def test_edge_free_spectrum_skips_the_component_search(graph, expected_period, monkeypatch):
    def refuse(*args):
        raise AssertionError("an edge-free graph went through the component search")

    monkeypatch.setattr(gm, "components", refuse)
    spectrum.cache_clear()
    spec = spectrum(graph)
    assert spec.looped.dtype == np.intp and not spec.looped.flags.writeable
    assert spec.looped.tolist() == sorted(graph.loops)
    assert spec.blocks == ()
    assert spec.norm == (1.0 if graph.loops else 0.0) and type(spec.norm) is float
    assert period(graph) == expected_period
    spectrum.cache_clear()


def union_find_components(n, heads, tails):
    """components' result, from union-find on the edge list and Python sorting."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving keeps a 4,096-vertex path fast
        return v

    for i, j in zip(heads.tolist(), tails.tolist()):
        parent[root(i)] = root(j)
    members = {}
    for v in range(n):
        members.setdefault(root(v), []).append(v)
    by_size = {}
    for group in sorted(members.values()):
        by_size.setdefault(len(group), []).append(group)
    size_of = np.array([len(members[root(v)]) for v in range(n)])
    return size_of, [np.array(by_size[k], dtype=np.intp) for k in sorted(by_size) if k > 1]


def component_cases():
    rng = np.random.default_rng(39)
    for n in (4, 16, 100, 512, 4096):
        for density in (0.2, 0.5, 1.0):
            m = max(1, int(density * n))
            heads, tails = rng.integers(0, n, m), rng.integers(0, n, m)
            yield pytest.param(n, heads, tails, id=f"random {n} vertices, {m} edges")
    for q in (2, 4, 9, 12):
        n = 2**q
        vertices = np.arange(n)
        for mask, control in ((1, 0), (n // 2, 0), (n - 1, 0), (1, n // 2), (n // 2 + 1, 2)):
            heads = vertices[(vertices & (control | 1 << (mask.bit_length() - 1))) == control]
            yield pytest.param(n, heads, heads ^ mask, id=f"matching on {n} vertices, mask {mask}, control {control}")
        cube = np.concatenate([vertices[(vertices & bit) == 0] for bit in (1, 2)])
        yield pytest.param(n, cube, cube ^ np.where(np.arange(cube.size) < n // 2, 1, 2), id=f"2-cubes on {n} vertices")
    # connected graphs: one component of every vertex
    for q in (1, 4, 9, 12):
        n = 2**q
        vertices = np.arange(n)
        yield pytest.param(n, vertices[:-1], vertices[1:], id=f"path on {n} vertices")
        yield pytest.param(n, np.zeros(n - 1, dtype=np.intp), vertices[1:], id=f"star on {n} vertices")
        heads = np.concatenate([vertices[(vertices & 1 << bit) == 0] for bit in range(q)])
        yield pytest.param(n, heads, heads ^ np.repeat(1 << np.arange(q), n // 2), id=f"{q}-cube on {n} vertices")


@pytest.mark.parametrize("n, heads, tails", component_cases())
def test_components_match_a_union_find_reference(n, heads, tails):
    size_of, groups = gm.components(n, heads, tails)
    expected_sizes, expected_groups = union_find_components(n, heads, tails)
    for array, expected in zip((size_of, *groups), (expected_sizes, *expected_groups)):
        assert array.dtype == expected.dtype and array.shape == expected.shape
        assert array.tobytes() == expected.tobytes()
    assert len(groups) == len(expected_groups)


def component_spectrum(graph):
    """spectrum's (looped, blocks, norm) by the component search: ``components``, then one stacked eigh per size group."""
    n = graph.n_vertices
    loops = np.array(sorted(graph.loops), dtype=np.intp)
    edges = np.array(sorted(graph.edges), dtype=np.intp).reshape(-1, 2)
    size_of, groups = gm.components(n, edges[:, 0], edges[:, 1])
    looped = loops[size_of[loops] == 1]
    norm = 1.0 if looped.size else 0.0
    blocks = []
    for members in groups:
        k = members.shape[1]
        place = {v: divmod(i, k) for i, v in enumerate(members.ravel().tolist())}
        stack = np.zeros((len(members), k, k))
        for i, j in graph.edges:
            if size_of[i] == k:
                (row, a), (_, b) = place[i], place[j]
                stack[row, a, b] = stack[row, b, a] = 1.0
        for v in graph.loops:
            if size_of[v] == k:
                row, a = place[v]
                stack[row, a, a] = 1.0
        if (stack == stack[0]).all():
            stack = stack[:1]
        eigenvalues, eigenvectors = np.linalg.eigh(stack)
        norm = max(norm, float(np.abs(eigenvalues).max()))
        blocks.append((members, eigenvalues, eigenvectors))
    return looped, blocks, norm


def with_loops(graph, rng, share):
    """The graph plus loops on a random share of its unmatched vertices."""
    ends = graph._endpoints
    free = [v for v in range(graph.n_vertices) if v not in ends and rng.random() < share]
    return Graph._of(graph.n_vertices, graph.edges, graph.loops | frozenset(free))


def matching_graph(n, rows):
    """The graph on n vertices whose edges are the rows (i, j), i < j."""
    return Graph._of(n, frozenset(map(tuple, rows)))


def matching_cases():
    """Matchings with loops on unmatched vertices only: the graphs spectrum reads from the edge list."""
    rng = random.Random(40)
    for q in range(1, 7):
        n = 2**q
        for mask in range(1, n):
            rows = _pairs(n, mask).tolist()
            yield matching_graph(n, rows)
            subset = [row for row in rows if rng.random() < 0.5] or rows[:1]
            yield matching_graph(n, subset)
            yield with_loops(matching_graph(n, subset), rng, 0.5)
    for n in (1024, 4096):
        for mask, control in ((1, 0), (n - 1, 0), (1, n // 2), (n // 2 + 6, 1)):
            yield matching_graph(n, _pairs(n, mask, control).tolist())
        yield with_loops(matching_graph(n, _pairs(n, 5, 2).tolist()), rng, 0.3)


# a loop on a matched end, a vertex on two edges (with no more edge ends than
# vertices), a 3-vertex path (with more)
COMPONENT_PATH_GRAPHS = [
    Graph.make(4, edges=[(0, 1), (2, 3)], loops=[3]),
    Graph.make(6, edges=[(0, 1), (0, 2), (3, 4)]),
    Graph.make(3, edges=[(0, 1), (1, 2)]),
]


def assert_same_spectrum(spec, looped, blocks, norm, graph):
    """The spectrum has the reference's arrays, shape, dtype and bytes, read-only, and its norm."""
    assert spec.n_vertices == graph.n_vertices, graph
    arrays = [spec.looped] + [array for members, pair in spec.blocks for array in (members, *pair)]
    references = [looped] + [array for block in blocks for array in block]
    assert len(arrays) == len(references), graph
    for array, reference in zip(arrays, references):
        assert array.shape == reference.shape and array.dtype == reference.dtype, graph
        assert array.tobytes() == reference.tobytes(), graph
        assert not array.flags.writeable, graph
    assert spec.norm == norm and type(spec.norm) is float, graph


def test_a_matching_spectrum_equals_the_component_search():
    graphs = list(matching_cases()) + COMPONENT_PATH_GRAPHS
    assert any(graph.loops for graph in graphs[:-3])
    spectrum.cache_clear()
    for graph in graphs:
        assert_same_spectrum(spectrum(graph), *component_spectrum(graph), graph)
    for graph in graphs[:-3]:
        ((members, (eigenvalues, eigenvectors)),) = spectrum(graph).blocks
        assert members.shape == (len(graph.edges), 2)
        assert eigenvalues.shape == (1, 2) and eigenvectors.shape == (1, 2, 2)
    spectrum.cache_clear()


def test_a_matching_spectrum_searches_no_components(monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph went through the component search")

    seen, searched = [], []
    eigh, search = np.linalg.eigh, gm.components

    def recording_eigh(stack):
        seen.append(stack.shape)
        return eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(gm, "components", refuse)
    spectrum.cache_clear()
    # CNOT with control qubit 3 and target qubit 7, and loops on every vertex the gate leaves alone
    cnot = _pairs(1024, 1 << 7, 1 << 3)
    idle = [v for v in range(1024) if not v & 1 << 3]
    spec = spectrum(Graph._of(1024, frozenset(map(tuple, cnot.tolist())), frozenset(idle)))
    assert seen == [(1, 2, 2)]
    assert np.array_equal(spec.looped, idle) and np.array_equal(spec.blocks[0][0], cnot)
    # below the bound no graph is searched, whatever its components
    rng = random.Random(43)
    small = COMPONENT_PATH_GRAPHS + [random_graph(rng, rng.randrange(1, gm.LISTED_VERTICES)) for _ in range(50)]
    small += [Graph._of(gm.LISTED_VERTICES - 1, graph.edges, graph.loops) for graph in COMPONENT_PATH_GRAPHS]
    for graph in small:
        spectrum(graph)

    def recording_search(*args):
        searched.append(args)
        return search(*args)

    # from the bound on, every graph with a component other than an edge is searched once
    monkeypatch.setattr(gm, "components", recording_search)
    wide = [Graph._of(n, graph.edges, graph.loops) for n in (gm.LISTED_VERTICES, 2 * gm.LISTED_VERTICES) for graph in COMPONENT_PATH_GRAPHS]
    for graph in wide + wide:
        spectrum(graph)
    assert len(searched) == len(wide)
    spectrum.cache_clear()


def small_graph_cases():
    """Graphs for both spectrum routes: every graph on up to 4 vertices, then larger ones up to the bound."""
    bound = gm.LISTED_VERTICES
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for edge_mask in range(1 << len(pairs)):
            for loop_mask in range(1 << n):
                edges = [pair for at, pair in enumerate(pairs) if edge_mask >> at & 1]
                yield Graph.make(n, edges, [v for v in range(n) if loop_mask >> v & 1])
    rng = random.Random(43)
    for n in range(5, bound + 1):
        for density in (0.5 / n, 1.5 / n, 4.0 / n, 0.5):
            edges = [pair for pair in combinations(range(n), 2) if rng.random() < density]
            yield Graph.make(n, edges, [v for v in range(n) if rng.random() < 0.3])
    for graph in matching_cases():
        if graph.n_vertices <= bound:
            yield graph
            # a loop on a matched end
            yield Graph._of(graph.n_vertices, graph.edges, graph.loops | {max(graph._endpoints)})
    # unions of equal components, whose stack is one block, and of mixed sizes
    triangle, path, star = [(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 2)], [(0, 1), (0, 2), (0, 3)]
    for parts, loops in (
        ([triangle] * 4, []),
        ([path] * 5, [1, 4, 7, 10, 13]),
        ([path] * 3, [0, 4]),
        ([star] * 6, [0, 4, 8, 12, 16, 20]),
        ([path, triangle, star, path, [(0, 1)], triangle], [2, 3, 9]),
        ([star, [(0, 1)], star, path, [(0, 1)]], [0, 5, 13]),
    ):
        edges, at = [], 0
        for part in parts:
            edges += [(at + i, at + j) for i, j in part]
            at += 1 + max(map(max, part))
        for n in (at, bound - 1):
            yield Graph.make(n, edges, loops)
    yield from COMPONENT_PATH_GRAPHS
    for n in (bound - 1, bound):
        yield Graph._of(n, frozenset(map(tuple, _pairs(n - n % 2, 1).tolist())))
        for density in (1.0 / n, 3.0 / n):
            edges = [pair for pair in combinations(range(n), 2) if rng.random() < density]
            yield Graph.make(n, edges, [v for v in range(n) if rng.random() < 0.3])


def test_the_edge_list_route_equals_the_numpy_route_bit_for_bit(monkeypatch):
    graphs = list(small_graph_cases())
    bound = gm.LISTED_VERTICES
    assert {graph.n_vertices for graph in graphs} == set(range(1, bound + 1))
    shared = 0
    for graph in graphs:
        expected = spectrum.__wrapped__(graph)
        monkeypatch.setattr(gm, "LISTED_VERTICES", 0)
        searched = spectrum.__wrapped__(graph)
        monkeypatch.setattr(gm, "LISTED_VERTICES", bound + 1)
        listed = spectrum.__wrapped__(graph)
        monkeypatch.setattr(gm, "LISTED_VERTICES", bound)
        looped, blocks, norm = component_spectrum(graph)
        for spec in (expected, searched, listed):
            assert_same_spectrum(spec, looped, blocks, norm, graph)
        shared += any(len(members) > len(eigenvalues) for members, (eigenvalues, _) in listed.blocks)
    assert shared > 100


def test_period_ignores_a_ratio_that_rounds_to_zero(monkeypatch):
    """A ratio in [1e-12, 1e-9) rationalizes to 0/1 and changes neither gcd(p) nor lcm(q)."""
    graph = Graph.make(2, edges=[(0, 1)])
    for tiny in ([], [2e-12], [6e-10, -1.998e-9]):
        spec = SimpleNamespace(norm=2.0, eigenvalues=lambda tiny=tiny: np.array([2.0, -1.0, *tiny]))
        monkeypatch.setattr(gm, "spectrum", lambda graph, spec=spec: spec)
        assert gm._period(graph) == (4, 1)  # ratios 1 and 1/2: 2pi * lcm(1, 2) / gcd(1, 1)


def test_period_incommensurate_spectrum_is_infinite():
    # a 2-path next to a 3-path: eigenvalue ratio 1/sqrt(2)
    g = Graph.make(5, edges=[(0, 1), (2, 3), (3, 4)])
    assert period(g) is None


@pytest.mark.parametrize(
    "graph",
    [
        Graph.make(2, edges=[(0, 1)]),
        Graph.make(4, loops=[0, 2]),
        hypercube_graph(2),
        hypercube_graph(3),
        Graph.make(4, edges=[(0, 1), (2, 3)], loops=[]),
    ],
)
def test_period_is_an_actual_recurrence(graph):
    """U(period) must come back to the identity, entrywise.

    The step engine reduces a duration modulo the period before it
    exponentiates, so U(period) is formed here by expm at the unreduced
    angle, from the whole adjacency matrix.
    """
    p = period(graph)
    assert p is not None
    u = dense_step_unitary(TimedGraph(graph, p))
    assert np.abs(u - np.eye(graph.n_vertices)).max() < PERIOD_TOL


def test_period_str():
    assert format_angle(period(Graph.make(2, edges=[(0, 1)]))) == "2π"


def period_per_eigenvalue(graph):
    """The period with one rationalization per eigenvalue, repeats included."""
    if graph.is_empty:
        return Fraction(0)
    spec = spectrum(graph)
    numerators, denominators = set(), set()
    for lam in spec.eigenvalues():
        magnitude = abs(float(lam))
        if magnitude / spec.norm < 1e-12:
            continue
        ratio = gm._small_ratio(magnitude / spec.norm)
        if ratio is None:
            return None
        if ratio[0] == 0:
            continue
        numerators.add(ratio[0])
        denominators.add(ratio[1])
    return Fraction(2 * math.lcm(*denominators), math.gcd(*numerators))


def random_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    density = rng.random()
    return Graph.make(
        n,
        edges=[pair for pair in pairs if rng.random() < density],
        loops=[v for v in range(n) if rng.random() < 0.4],
    )


def test_period_matches_the_per_eigenvalue_result():
    graphs = {entry.graph for entry in catalog.build_catalog()}
    rng = random.Random(7)
    graphs |= {random_graph(rng, rng.randrange(1, 11)) for _ in range(300)}
    graphs |= {hypercube_graph(dim) for dim in range(1, 6)}
    outcomes = {period(graph) is not None for graph in graphs}
    assert outcomes == {True, False}
    for graph in graphs:
        assert period(graph) == period_per_eigenvalue(graph), graph


# -- JSON parse / serialize --------------------------------------------------


GOOD = {
    "n_vertices": 3,
    "sequence": [
        {"edges": [[0, 1]], "loops": [2], "time": {"pi_num": 1, "pi_den": 2}},
        {"edges": [], "loops": [], "time": {"pi_num": 0, "pi_den": 1}},
    ],
}


def test_parse_good_walk():
    walk = parse_dynamic_graph(json.dumps(GOOD))
    assert walk.n_vertices == 3
    assert walk.steps[0].graph.edges == frozenset({(0, 1)})
    assert walk.steps[0].graph.loops == frozenset({2})
    assert walk.steps[0].duration == Fraction(1, 2)
    assert walk.steps[1].duration == 0


def test_parse_reads_a_pair_in_either_order():
    step = {"edges": [[1, 0], [2, 3]], "loops": [3, 0], "time": {"pi_num": 1, "pi_den": 1}}
    doc = {"n_vertices": 4, "sequence": [step]}
    walk = parse_dynamic_graph(json.dumps(doc))
    assert walk.steps[0].graph == Graph.make(4, [(0, 1), (2, 3)], [0, 3])


def test_serialize_then_parse_roundtrips():
    walk = parse_dynamic_graph(json.dumps(GOOD))
    again = parse_dynamic_graph(serialize_dynamic_graph(walk))
    assert again == walk


def test_serialize_is_deterministic():
    walk = parse_dynamic_graph(json.dumps(GOOD))
    assert serialize_dynamic_graph(walk) == serialize_dynamic_graph(walk)
    assert serialize_dynamic_graph(walk).endswith("\n")


def deep_edges(doc, bad):
    """Step 0 on 64 vertices: 700 distinct edges among vertices 2-63, the bad entry, then 300 more."""
    pairs = [[i, j] for i in range(2, 64) for j in range(i + 1, 64)]
    doc["n_vertices"] = 64
    doc["sequence"][0]["edges"] = pairs[:700] + [bad] + pairs[700:1000]


def deep_loops(doc, bad):
    """Step 0 on 1024 vertices: loops on vertices 100-999, the bad entry, then 1000-1023."""
    doc["n_vertices"] = 1024
    doc["sequence"][0]["loops"] = list(range(100, 1000)) + [bad] + list(range(1000, 1024))


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(n_vertices="3"), "n_vertices"),
        (lambda d: d.update(n_vertices=0), "n_vertices"),
        (lambda d: d.update(extra=1), "unknown field"),
        (lambda d: d.pop("sequence"), "missing field"),
        (lambda d: d.update(sequence={}), "sequence"),
        (lambda d: d["sequence"][0].update(time={"pi_num": 1}), "pi_den"),
        (lambda d: d["sequence"][0].update(time={"pi_num": -1, "pi_den": 2}), "nonnegative"),
        (lambda d: d["sequence"][0].update(time={"pi_num": 1, "pi_den": 0}), "pi_den"),
        (lambda d: d["sequence"][0].update(time={"pi_num": True, "pi_den": 1}), "integer"),
        (lambda d: d["sequence"][0].update(edges=[[0, 0]]), "sequence[0].edges[0]"),
        (lambda d: d["sequence"][0].update(edges=[[0, 3]]), "out of range"),
        (lambda d: d["sequence"][0].update(edges=[[0, 1], [1, 0]]), "duplicate edge"),
        (lambda d: d["sequence"][0].update(edges=[[0]]), "pair"),
        (lambda d: d["sequence"][0].update(loops=[2, 2]), "duplicate loop"),
        (lambda d: d["sequence"][0].update(loops=[5]), "sequence[0].loops[0]"),
        (lambda d: d["sequence"][0].update(loops=7), "list"),
        (lambda d: d["sequence"][0].pop("time"), "missing field"),
        (lambda d: d["sequence"][0].update(color="red"), "unknown field"),
        (lambda d: d["sequence"][0].update(time=1), "sequence[0].time: expected an object"),
        (lambda d: d["sequence"].__setitem__(0, []), "sequence[0]: expected a step object"),
        (lambda d: d["sequence"][0].update(edges={}), "sequence[0].edges: expected a list"),
        # one defect deep in a long list: the message and path name that entry
        (lambda d: deep_edges(d, [True, 5]), "sequence[0].edges[700]: expected an integer, got True"),
        (lambda d: deep_edges(d, [1, 2.0]), "sequence[0].edges[700]: expected an integer, got 2.0"),
        (lambda d: deep_edges(d, [1, 2, 3]), "sequence[0].edges[700]: expected a pair [i, j]"),
        (lambda d: deep_edges(d, [13, 2]), "sequence[0].edges[700]: duplicate edge [2, 13]"),
        (lambda d: deep_edges(d, [63, 63]), "sequence[0].edges[700]: self-pair; use loops instead"),
        (lambda d: deep_edges(d, [0, 64]), "sequence[0].edges[700]: vertex out of range 0..63"),
        (lambda d: deep_loops(d, 500), "sequence[0].loops[900]: duplicate loop 500"),
        (lambda d: deep_loops(d, True), "sequence[0].loops[900]: expected an integer, got True"),
        (lambda d: deep_loops(d, 3.0), "sequence[0].loops[900]: expected an integer, got 3.0"),
        (lambda d: deep_loops(d, 1024), "sequence[0].loops[900]: vertex out of range 0..1023"),
        # which defect an entry with several is named for: the first the tests meet
        (lambda d: deep_edges(d, [1, True]), "sequence[0].edges[700]: expected an integer, got True"),
        (lambda d: deep_edges(d, [1.5, 70]), "sequence[0].edges[700]: expected an integer, got 1.5"),
        (lambda d: deep_edges(d, [70, 70]), "sequence[0].edges[700]: self-pair; use loops instead"),
        (lambda d: deep_edges(d, {"i": 0, "j": 1}), "sequence[0].edges[700]: expected a pair [i, j]"),
        (lambda d: deep_loops(d, None), "sequence[0].loops[900]: expected an integer, got None"),
    ],
)
def test_parse_errors_carry_json_paths(mutate, fragment):
    doc = json.loads(json.dumps(GOOD))
    mutate(doc)
    with pytest.raises(ParseError) as err:
        parse_dynamic_graph(json.dumps(doc))
    assert fragment in str(err.value)


# Each defect of the document prologue, as (walk document, walk message,
# circuit document, circuit message): both formats read it in one place.
PROLOGUE_DEFECTS = {
    "top level not an object": (
        [], "$: expected a top-level object",
        "gates", "$: expected a top-level object",
    ),
    "an unknown key": (
        {"n_vertices": 2, "sequence": [], "extra": 1}, "$: unknown field 'extra'",
        {"n_qubits": 1, "gates": [], "extra": 1}, "$: unknown field 'extra'",
    ),
    "a missing key": (
        {"n_vertices": 2}, "$: missing field 'sequence'",
        {"gates": []}, "$: missing field 'n_qubits'",
    ),
    "a size that is not an integer": (
        {"n_vertices": "2", "sequence": []}, "n_vertices: expected an integer, got '2'",
        {"n_qubits": True, "gates": []}, "n_qubits: expected an integer, got True",
    ),
    "a size of 0": (
        {"n_vertices": 0, "sequence": []}, "n_vertices: must be at least 1",
        {"n_qubits": 0, "gates": []}, "n_qubits: must be at least 1",
    ),
    "a size above the ceiling": (
        {"n_vertices": 4097, "sequence": []}, "n_vertices: must be at most 4096",
        {"n_qubits": 13, "gates": []}, "n_qubits: must be at most 12",
    ),
    "items that are not a list": (
        {"n_vertices": 2, "sequence": {}}, "sequence: expected a list of steps",
        {"n_qubits": 1, "gates": "H"}, "gates: expected a list",
    ),
}


@pytest.mark.parametrize("defect", list(PROLOGUE_DEFECTS))
def test_both_formats_name_each_prologue_defect_in_full(defect):
    walk, walk_message, circuit, circuit_message = PROLOGUE_DEFECTS[defect]
    with pytest.raises(ParseError) as err:
        parse_dynamic_graph(json.dumps(walk))
    assert str(err.value) == walk_message
    with pytest.raises(ParseError) as err:
        parse_circuit(json.dumps(circuit))
    assert str(err.value) == circuit_message


def test_parse_rejects_invalid_json():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_dynamic_graph("{nope")


def test_parse_rejects_non_object_top_level():
    with pytest.raises(ParseError, match="top-level"):
        parse_dynamic_graph("[1, 2]")


def test_parse_refuses_vertex_counts_above_the_ceiling():
    # only the declared count is read: nothing of that size is built
    for count in (MAX_VERTICES + 1, 2**40):
        with pytest.raises(ParseError, match=r"n_vertices: must be at most 4096"):
            parse_dynamic_graph(json.dumps({"n_vertices": count, "sequence": []}))
    walk = parse_dynamic_graph(json.dumps({"n_vertices": MAX_VERTICES, "sequence": []}))
    assert walk.n_vertices == MAX_VERTICES


@st.composite
def walks(draw):
    n = draw(st.integers(1, 6))
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
        loops = draw(st.sets(st.integers(0, n - 1), max_size=n))
        duration = draw(angles)
        steps.append(TimedGraph(Graph.make(n, edges, loops), duration))
    return DynamicGraph(n, tuple(steps))


@settings(max_examples=80, deadline=None)
@given(walk=walks())
def test_json_roundtrip_property(walk):
    assert parse_dynamic_graph(serialize_dynamic_graph(walk)) == walk


def reference_serialization(walk):
    """json.dumps(indent=2)'s text of the walk's payload: the reference for the writer's bytes."""
    payload = {
        "n_vertices": walk.n_vertices,
        "sequence": [
            {
                "edges": [list(pair) for pair in sorted(step.graph.edges)],
                "loops": sorted(step.graph.loops),
                "time": {"pi_num": step.duration.numerator, "pi_den": step.duration.denominator},
            }
            for step in walk.steps
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(walk=walks())
def test_serialize_writes_the_reference_bytes(walk):
    assert serialize_dynamic_graph(walk) == reference_serialization(walk)


@pytest.mark.parametrize(
    "walk",
    [
        DynamicGraph(3, ()),
        DynamicGraph(4, (TimedGraph(Graph.make(4, loops=[1, 3]), Fraction(1, 2)),)),
        DynamicGraph(4, (TimedGraph(Graph.make(4, [(0, 1), (3, 2)]), Fraction(3, 4)),)),
        DynamicGraph(4, (TimedGraph(Graph(4), Fraction(5)),)),
        DynamicGraph(2, (TimedGraph(Graph.make(2, [(0, 1)], [0]), Fraction(0)),)),
        DynamicGraph(
            1, (TimedGraph(Graph.make(1, loops=[0]), Fraction(1, 4)), TimedGraph(Graph(1), Fraction(2)))
        ),
        DynamicGraph(2, (TimedGraph(Graph.make(2, [(0, 1)]), Fraction(10**998 + 1, 10**998)),)),
    ],
    ids=["no-steps", "no-edges", "no-loops", "neither", "zero-time", "one-vertex", "999-digits"],
)
def test_serialize_writes_the_reference_bytes_at_the_edges(walk):
    text = serialize_dynamic_graph(walk)
    assert text == reference_serialization(walk)
    assert parse_dynamic_graph(text) == walk
