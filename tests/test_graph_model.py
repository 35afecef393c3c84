"""Graph model, exact durations, periods and the JSON interchange format."""

import copy
import dataclasses
import json
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalog
import dynwalk.graph_model as gm
from adjacency import adjacency_matrix
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
from dynwalk.walk_engine import total_unitary

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


def test_graph_make_reads_numpy_integers_as_ints():
    graph = Graph.make(3, [np.array([2, 0])], np.array([1]))
    assert graph == Graph(3, frozenset({(0, 2)}), frozenset({1}))
    assert {type(v) for v in (*graph.loops, *next(iter(graph.edges)))} == {int}


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
    """U(period) must come back to the identity, entrywise."""
    p = period(graph)
    assert p is not None
    u = total_unitary(DynamicGraph(graph.n_vertices, (TimedGraph(graph, p),)))
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
