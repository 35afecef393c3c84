"""Step evaluation and program composition, block by block."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from adjacency import adjacency_matrix
from test_gate_compiler import check_distance
from dynwalk.gate_compiler import (
    Circuit,
    Gate,
    circuit_unitary,
    compile_circuit,
    compile_hadamard_layer,
    mixing_pairs,
)
from dynwalk.graph_model import (
    DynamicGraph,
    Graph,
    TimedGraph,
    period,
    radians,
    spectrum,
)
from dynwalk.numerics import phase_distance
import dynwalk.walk_engine as we
from dynwalk.walk_engine import (
    evolve_state,
    graphs_commute,
    prefix_unitaries,
    run_distance,
    total_unitary,
)

TOL = 1e-12

# H(0), CNOT(0->1), X(2), T(1), the width ladder: its union's components have 8 vertices
H_CNOT = (Gate("H", target=0), Gate("CNOT", control=0, target=1), Gate("X", target=2), Gate("T", target=1))


def matching(n_vertices, mask):
    """Perfect matching pairing each vertex v with v XOR mask."""
    return Graph.make(n_vertices, edges=[(v, v ^ mask) for v in range(n_vertices) if v < v ^ mask])


def test_step_unitary_matches_expm():
    step = TimedGraph(Graph.make(3, edges=[(0, 1), (1, 2)]), Fraction(2, 3))
    a = adjacency_matrix(step.graph).astype(float)
    norm = np.abs(np.linalg.eigvalsh(a)).max()
    expected = scipy.linalg.expm(-1j * a * (radians(step.duration) / norm))
    assert np.abs(total_unitary(DynamicGraph(3, (step,))) - expected).max() < TOL


def test_step_unitary_of_empty_graph_is_identity():
    step = TimedGraph(Graph.make(4), Fraction(5, 3))
    assert np.array_equal(total_unitary(DynamicGraph(4, (step,))), np.eye(4))


def test_total_unitary_applies_later_steps_on_the_left():
    s1 = TimedGraph(Graph.make(3, edges=[(0, 1)]), Fraction(1, 2))
    s2 = TimedGraph(Graph.make(3, edges=[(1, 2)]), Fraction(1, 3))
    walk = DynamicGraph(3, (s1, s2))
    u1 = total_unitary(DynamicGraph(3, (s1,)))
    u2 = total_unitary(DynamicGraph(3, (s2,)))
    assert not np.allclose(u1 @ u2, u2 @ u1)
    assert np.abs(total_unitary(walk) - u2 @ u1).max() < TOL


def test_total_unitary_of_empty_program():
    assert np.array_equal(total_unitary(DynamicGraph(5, ())), np.eye(5))
    assert total_unitary(DynamicGraph(0, ())).shape == (0, 0)
    assert run_distance(0, (), ()) == 0.0


def test_evolve_state_agrees_with_total_unitary():
    rng = np.random.default_rng(7)
    steps = tuple(
        TimedGraph(matching(4, mask), Fraction(k, 4))
        for k, mask in [(1, 1), (3, 2), (2, 3)]
    )
    walk = DynamicGraph(4, steps)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    assert np.abs(evolve_state(walk, state) - total_unitary(walk) @ state).max() < TOL


def test_evolve_state_rejects_wrong_shape():
    walk = DynamicGraph(3, ())
    with pytest.raises(ValueError):
        evolve_state(walk, np.zeros(4))
    with pytest.raises(ValueError):
        evolve_state(walk, np.zeros((3, 1)))


def test_graphs_commute_cases():
    loops_a = Graph.make(4, loops=[0, 1])
    loops_b = Graph.make(4, loops=[1, 3])
    assert graphs_commute(loops_a, loops_b)
    assert graphs_commute(matching(4, 1), matching(4, 2))
    assert not graphs_commute(Graph.make(3, edges=[(0, 1)]), Graph.make(3, edges=[(1, 2)]))
    with pytest.raises(ValueError):
        graphs_commute(Graph.make(3), Graph.make(4))


def commute_route(a, b):
    """Which test decides the pair: the diagonal rule, when one graph's edges avoid the other's edges and loops, or the walk counts."""
    for first, other in ((a, b), (b, a)):
        if not first._endpoints & (other.loops | other._endpoints):
            return "diagonal"
    return "walks"


def disjoint_graph(rng, graph, edge_chance, loop_chance):
    """A random graph on the vertices that carry no edge or loop of the given graph."""
    free = [v for v in range(graph.n_vertices) if v not in graph.loops and graph.degree_free(v)]
    edges = [(i, j) for i in free for j in free if i < j and rng.random() < edge_chance]
    return Graph.make(graph.n_vertices, edges=edges, loops=[v for v in free if rng.random() < loop_chance])


def looped_over(rng, graph, loop_chance):
    """A random graph whose edges avoid the given graph's edges and loops, with loops on some of its edge ends."""
    apart = disjoint_graph(rng, graph, 0.5, 0.5)
    ends = [v for v in sorted(graph._endpoints) if rng.random() < loop_chance]
    return Graph.make(graph.n_vertices, edges=apart.edges, loops=apart.loops | set(ends))


@pytest.mark.parametrize("seed", range(6))
def test_graphs_commute_matches_the_dense_products(seed, monkeypatch):
    """The diagonal rule and the walk counts decide exactly what the integer matrix products decide.

    The rule reads no arc list, and a walk count reads both graphs' arcs.
    """
    arcs, read = [], we._arcs
    monkeypatch.setattr(we, "_arcs", lambda graph: arcs.append(graph) or read(graph))
    rng = np.random.default_rng(seed)
    verdicts = set()
    for _ in range(240):
        n = int(rng.integers(1, 9))
        edge_chance = float(rng.choice([0.05, 0.15, 0.4]))
        a = random_graph(rng, n, edge_chance, 0.5)
        kind = rng.integers(6)
        if kind == 4:
            n, (x, y) = 8, rng.choice(range(1, 8), size=2, replace=False)
            a, b = matching(8, int(x)), matching(8, int(y))  # XOR matchings commute
        elif kind == 0:
            b = random_graph(rng, n, edge_chance, 0.5)
        elif kind == 1:
            b = random_graph(rng, n, 0.0, 0.5)  # loops only, or empty
        elif kind == 2:
            b = disjoint_graph(rng, a, 0.5, 0.5)
        elif kind == 3:
            b = Graph.make(n, edges=a.edges, loops=a.loops)
        else:
            b = looped_over(rng, a, float(rng.choice([0.5, 1.0])))
        for first, second in ((a, b), (b, a)):
            ma, mb = adjacency_matrix(first), adjacency_matrix(second)
            expected = np.array_equal(ma @ mb, mb @ ma)
            arcs.clear()
            assert graphs_commute(first, second) == expected
            route = commute_route(first, second)
            assert len(arcs) == (0 if route == "diagonal" else 2)
            verdicts.add((route, expected))
            verdicts.add((f"kind {kind}", expected))
    assert {("diagonal", True), ("diagonal", False), ("walks", True), ("walks", False)} <= verdicts
    assert {("kind 5", True), ("kind 5", False)} <= verdicts


def test_graphs_commute_decides_three_kinds_of_pair_without_walk_counts(monkeypatch):
    """Disjoint supports, a side without edges, and edges apart from the other's support with loops on its edge ends.

    The diagonal rule decides each kind in both orders without reading any
    arc list; equal graphs with edges go to the walk counts.
    """

    def refused(graph):
        raise AssertionError("graphs_commute counted walks")

    monkeypatch.setattr(we, "_arcs", refused)
    path = Graph.make(6, edges=[(0, 1), (1, 2)], loops=[5])
    for other, commute in [
        (Graph.make(6, edges=[(3, 4)]), True),
        (Graph.make(6), True),
        (Graph.make(6, loops=[0, 1, 2]), True),
        (Graph.make(6, loops=[3, 5]), True),
        (Graph.make(6, loops=[1, 2]), False),
        (Graph.make(6, loops=[0, 3]), False),
        (Graph.make(6, edges=[(3, 4)], loops=[0, 1, 2, 3]), True),
        (Graph.make(6, edges=[(3, 4)], loops=[0, 1, 2]), True),
        (Graph.make(6, edges=[(3, 4)], loops=[0, 1]), False),
        (Graph.make(6, edges=[(3, 4)], loops=[2]), False),
    ]:
        assert graphs_commute(path, other) == commute
        assert graphs_commute(other, path) == commute
    for other in (Graph.make(6, edges=[(0, 1), (1, 2)], loops=[5]), matching(6, 1)):
        with pytest.raises(AssertionError, match="counted walks"):
            graphs_commute(path, other)


def dense_step_unitary(step):
    """exp(-i A t / ||A||) from the whole adjacency matrix, through expm."""
    a = adjacency_matrix(step.graph).astype(float)
    norm = np.abs(np.linalg.eigvalsh(a)).max(initial=0.0)
    if norm == 0.0:
        return np.eye(step.graph.n_vertices)
    return scipy.linalg.expm(-1j * a * (radians(step.duration) / norm))


def random_graph(rng, n_vertices, edge_chance, loop_chance):
    edges = [
        (i, j)
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
        if rng.random() < edge_chance
    ]
    loops = [v for v in range(n_vertices) if rng.random() < loop_chance]
    return Graph.make(n_vertices, edges, loops)


DURATIONS = [Fraction(0), Fraction(5, 13), Fraction(17, 11), Fraction(1, 2)]

# Steps of 2pi and longer, with the tolerance of their expm comparison. The
# engine reduces such a step modulo its graph's period before it
# exponentiates, and expm takes the unreduced angle, so a wrong period or a
# wrong reduction is off by O(1). At (10^6 + 1/2)pi expm's scaling and
# squaring leaves about 1e-9 of its own (7.2e-10 at most on these graphs).
LONG_DURATIONS = [(Fraction(37, 4), TOL), (Fraction(2 * 10**6 + 1, 2), 1e-8)]


@pytest.mark.parametrize("seed", range(12))
def test_step_unitary_matches_expm_on_split_graphs(seed):
    """Disconnected, empty, loops-only and isolated-vertex graphs, on and off the pi/4 grid."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    graphs = [
        random_graph(rng, n, 0.2, 0.4),  # usually several components and idle vertices
        random_graph(rng, n, 0.0, 0.5),  # loops only, or empty
        Graph.make(n),
        Graph.make(n, loops=range(n)),
        random_graph(rng, n, 0.6, 0.0).union(Graph.make(n, loops=[n - 1])),
    ]
    for graph in graphs:
        for duration, tol in [(duration, TOL) for duration in DURATIONS] + LONG_DURATIONS:
            step = TimedGraph(graph, duration)
            assert np.abs(total_unitary(DynamicGraph(n, (step,))) - dense_step_unitary(step)).max() < tol


@pytest.mark.parametrize(
    "graph",
    [
        Graph.make(2, edges=[(0, 1)]),
        Graph.make(4, loops=[0, 2]),
        Graph.make(3, edges=[(0, 1), (1, 2)]),
        Graph.make(3, edges=[(0, 1), (1, 2)], loops=[1]),
        Graph.make(8, edges=[(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]),
        matching(8, 6).union(Graph.make(8, loops=[0, 6])),
    ],
)
def test_long_steps_on_periodic_graphs_match_expm(graph):
    """Steps longer than the period are reduced by it, and still equal expm at the whole angle."""
    cycle = period(graph)
    assert cycle is not None
    for duration, tol in LONG_DURATIONS + [(cycle * 3 + Fraction(1, 3), TOL)]:
        assert duration > cycle
        step = TimedGraph(graph, duration)
        n = graph.n_vertices
        assert np.abs(total_unitary(DynamicGraph(n, (step,))) - dense_step_unitary(step)).max() < tol


def test_spectrum_matches_dense_eigenvalues():
    rng = np.random.default_rng(11)
    for _ in range(20):
        graph = random_graph(rng, int(rng.integers(1, 10)), 0.25, 0.4)
        dense = np.linalg.eigvalsh(adjacency_matrix(graph).astype(float))
        spec = spectrum(graph)
        assert np.abs(np.sort(spec.eigenvalues()) - dense).max() < TOL
        assert spec.norm == pytest.approx(np.abs(dense).max(initial=0.0), abs=TOL)


def test_evolve_state_on_basis_states_gives_unitary_columns():
    rng = np.random.default_rng(5)
    steps = tuple(
        TimedGraph(random_graph(rng, 7, 0.25, 0.4), duration) for duration in DURATIONS * 2
    )
    walk = DynamicGraph(7, steps)
    u = total_unitary(walk)
    for j in range(7):
        basis = np.zeros(7)
        basis[j] = 1.0
        assert np.abs(evolve_state(walk, basis) - u[:, j]).max() < TOL


def test_evolve_state_leaves_its_input_alone():
    walk = DynamicGraph(2, (TimedGraph(Graph.make(2, edges=[(0, 1)]), Fraction(1, 2)),))
    state = np.array([1.0, 0.0], dtype=complex)
    evolve_state(walk, state)
    assert np.array_equal(state, [1.0, 0.0])


@pytest.mark.parametrize(
    "graph, largest",
    [
        (matching(1024, 0b1000000001), 2),
        (next(s.graph for s in compile_hadamard_layer([0, 4, 9], 10).steps if s.graph.edges), 8),
        (Graph.make(1024, loops=range(0, 1024, 3)), 1),
    ],
)
def test_ten_qubit_steps_decompose_only_component_blocks(graph, largest, monkeypatch):
    """No eigendecomposition sees a matrix larger than the largest component."""
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(matrix):
        seen.append(matrix.shape[-1])
        return eigh(matrix)

    def refuse(matrix):
        raise AssertionError("a dense eigenvalue call on the step path")

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    spectrum.cache_clear()
    step = TimedGraph(graph, Fraction(1, 3))
    state = np.zeros(1024)
    state[1] = 1.0
    final = evolve_state(DynamicGraph(1024, (step,)), state)
    assert np.linalg.norm(final) == pytest.approx(1.0)
    assert max(seen, default=1) == largest
    spectrum.cache_clear()


def test_step_unitary_of_quarter_period_matching_is_a_phased_bitflip():
    u = total_unitary(DynamicGraph(8, (TimedGraph(matching(8, 6), Fraction(1, 2)),)))
    expected = np.zeros((8, 8), dtype=complex)
    expected[np.arange(8) ^ 6, np.arange(8)] = -1j
    assert np.abs(u - expected).max() < 1e-12


def test_prefix_unitaries_are_the_running_products():
    rng = np.random.default_rng(3)
    steps = tuple(TimedGraph(random_graph(rng, 6, 0.3, 0.4), duration) for duration in DURATIONS * 2)
    products = prefix_unitaries(6, steps)
    assert len(products) == len(steps) + 1
    assert np.array_equal(products[0], np.eye(6))
    for k, product in enumerate(products):
        assert np.array_equal(product, total_unitary(DynamicGraph(6, steps[:k])))
    kept = [product.copy() for product in products]
    products[2][:] = 0.0
    assert all(np.array_equal(p, q) for p, q in zip(products[3:], kept[3:]))
    assert np.array_equal(products[1], kept[1])


@pytest.mark.parametrize("seed", range(6))
def test_prefix_unitaries_cache_each_distinct_step_once(seed):
    """Every recurring step is factored once, and ``run_distance`` reads the same entries."""
    we._cached_factors.cache_clear()
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    steps = tuple(TimedGraph(random_graph(rng, n, 0.3, 0.4), d) for d in DURATIONS * 2)
    assert np.array_equal(prefix_unitaries(n, steps)[-1], total_unitary(DynamicGraph(n, steps)))
    assert we._cached_factors.cache_info().currsize == len(set(steps))
    assert run_distance(n, steps, steps[:3]) >= 0.0
    assert we._cached_factors.cache_info().currsize == len(set(steps))
    assert len(prefix_unitaries(n, ())) == 1 and np.array_equal(prefix_unitaries(n, ())[0], np.eye(n))
    we._cached_factors.cache_clear()


def test_cached_factors_are_read_only_component_blocks():
    """A 256-vertex matching is cached as one 2 x 2 block its 128 pairs share, never as a 256 x 256 matrix."""
    we._cached_factors.cache_clear()
    step = TimedGraph(matching(256, 5), Fraction(1, 3))
    prefix_unitaries(256, (step,))
    looped, _, blocks = we._cached_factors(step)
    assert we._cached_factors.cache_info().currsize == 1
    assert [exponential.shape for _, exponential in blocks] == [(1, 2, 2)]
    for array in (looped, *(part for block in blocks for part in block)):
        assert not array.flags.writeable
    we._cached_factors.cache_clear()


def adjacency_blocks(graph, members):
    """The (b, k, k) stack of the adjacency blocks of the components in members, as spectrum builds it."""
    return adjacency_matrix(graph).astype(float)[members[:, :, None], members[:, None, :]]


IDENTICAL_STACKS = [
    matching(256, 5),
    Graph.make(64, edges=[(v, v ^ 3) for v in range(64) if v < v ^ 3], loops=range(64)),
    next(s.graph for s in compile_hadamard_layer([0, 2, 5], 7).steps if s.graph.edges),
]


@pytest.mark.parametrize("graph", IDENTICAL_STACKS, ids=["matching", "looped-matching", "hlayer-cubes"])
def test_identical_blocks_share_one_decomposition_and_one_exponential(graph):
    """The shared arrays are the bytes of eigh on the whole stack, and broadcasting them is copying them."""
    spec = spectrum(graph)
    assert spec.blocks
    for members, (eigenvalues, eigenvectors) in spec.blocks:
        b, k = members.shape
        assert b > 1 and eigenvalues.shape == (1, k) and eigenvectors.shape == (1, k, k)
        full_values, full_vectors = np.linalg.eigh(adjacency_blocks(graph, members))
        for values, vectors in zip(full_values, full_vectors):
            assert values.tobytes() == eigenvalues[0].tobytes()
            assert vectors.tobytes() == eigenvectors[0].tobytes()
    rng = np.random.default_rng(17)
    for columns in (1, 8):
        rows = rng.normal(size=(graph.n_vertices, columns)) + 1j * rng.normal(size=(graph.n_vertices, columns))
        for duration in DURATIONS:
            _, _, blocks = we._factors(TimedGraph(graph, duration))
            for members, exponential in blocks:
                assert exponential.shape == (1, members.shape[1], members.shape[1])
                copied = np.repeat(exponential, members.shape[0], axis=0)
                assert np.array_equal(exponential @ rows[members], copied @ rows[members])


@pytest.mark.parametrize(
    "graph",
    [
        matching(16, 1).union(Graph.make(16, loops=[6, 7])),
        matching(16, 1).union(Graph.make(16, loops=[6])),
        # equal pairs beside two 3-paths whose middle vertices differ in rank
        Graph.make(12, edges=[(0, 1), (2, 3), (4, 5), (6, 7), (7, 8), (9, 11), (10, 11)]),
    ],
    ids=["one-looped-pair", "one-looped-vertex", "two-sizes"],
)
def test_mixed_stacks_keep_one_decomposition_per_component(graph):
    spec = spectrum(graph)
    mixed = 0
    for members, (eigenvalues, eigenvectors) in spec.blocks:
        blocks = adjacency_blocks(graph, members)
        if (blocks == blocks[0]).all():
            assert eigenvalues.shape[0] == eigenvectors.shape[0] == 1
            continue
        mixed += 1
        b, k = members.shape
        assert eigenvalues.shape == (b, k) and eigenvectors.shape == (b, k, k)
        full_values, full_vectors = np.linalg.eigh(blocks)
        assert np.array_equal(eigenvalues, full_values) and np.array_equal(eigenvectors, full_vectors)
    assert mixed == 1


@pytest.mark.parametrize(
    "graph",
    [
        *IDENTICAL_STACKS,
        matching(16, 1).union(Graph.make(16, loops=[6, 7])),
        Graph.make(16, edges=[(v, v ^ 1) for v in range(8) if v % 2 == 0], loops=range(10, 16)),
    ],
)
def test_eigenvalues_of_shared_stacks_carry_their_multiplicities(graph):
    dense = np.linalg.eigvalsh(adjacency_matrix(graph).astype(float))
    listed = spectrum(graph).eigenvalues()
    assert listed.shape == dense.shape
    assert np.abs(np.sort(listed) - dense).max() < TOL


def test_whole_program_functions_add_no_cached_factors():
    we._cached_factors.cache_clear()
    rng = np.random.default_rng(9)
    walk = DynamicGraph(5, tuple(TimedGraph(random_graph(rng, 5, 0.3, 0.4), d) for d in DURATIONS))
    total_unitary(walk)
    evolve_state(walk, np.eye(5)[0])
    total_unitary(DynamicGraph(5, walk.steps[:1]))
    assert we._cached_factors.cache_info().currsize == 0


def union_components(walk):
    """Each vertex's component in the union of the walk's graphs, by union-find on the edge lists."""
    parent = list(range(walk.n_vertices))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for step in walk.steps:
        for i, j in step.graph.edges:
            parent[root(i)] = root(j)
    return np.array([root(v) for v in range(walk.n_vertices)])


def split_program(rng, n_vertices, n_steps):
    """Steps whose edges stay inside a random partition of the vertices, with loops anywhere."""
    part = rng.integers(0, int(rng.integers(2, n_vertices + 1)), size=n_vertices)
    steps = []
    for _ in range(n_steps):
        graph = random_graph(rng, n_vertices, float(rng.choice([0.2, 0.5])), 0.3)
        inside = [(i, j) for i, j in graph.edges if part[i] == part[j]]
        steps.append(TimedGraph(Graph.make(n_vertices, inside, graph.loops), DURATIONS[int(rng.integers(1, 4))]))
    return DynamicGraph(n_vertices, tuple(steps))


def expm_product(walk):
    u = np.eye(walk.n_vertices, dtype=complex)
    for step in walk.steps:
        u = dense_step_unitary(step) @ u
    return u


# Vertex counts on each side of the product's dense/split choice
SIDES = [pytest.param(3, 12, id="dense"), pytest.param(we.SPLIT_VERTICES, 2 * we.SPLIT_VERTICES + 1, id="split")]


def split_programs():
    rng = np.random.default_rng(21)
    path, pair = Graph.make(7, edges=[(0, 1), (1, 2)]), Graph.make(7, edges=[(5, 6)], loops=[2])
    yield pytest.param(DynamicGraph(
        7, (TimedGraph(path, Fraction(1, 3)), TimedGraph(Graph.make(7, loops=[4, 5]), Fraction(3, 4)),
            TimedGraph(pair, Fraction(5, 13)), TimedGraph(path.union(pair), Fraction(1, 2)))
    ), id="mixed sizes and an isolated vertex")
    yield pytest.param(DynamicGraph(
        5, tuple(TimedGraph(Graph.make(5, loops=loops), Fraction(k, 4)) for k, loops in ((1, [0, 3]), (3, [3]), (2, [1, 4])))
    ), id="loops only")
    for index in range(6):
        yield pytest.param(split_program(rng, int(rng.integers(3, 12)), int(rng.integers(2, 7))), id=f"random partition {index}")
    for n in (we.SPLIT_VERTICES, 2 * we.SPLIT_VERTICES):
        yield pytest.param(split_program(rng, n, 3), id=f"random partition of {n} vertices")
    yield pytest.param(compile_circuit(
        Circuit(9, (Gate("H", target=2), Gate("CNOT", control=0, target=5), Gate("T", target=8)))
    ), id="512 vertices")


@pytest.mark.parametrize("walk", split_programs())
def test_total_unitary_matches_expm_when_the_union_splits(walk):
    labels = union_components(walk)
    assert len(set(labels.tolist())) > 1
    assert np.abs(total_unitary(walk) - expm_product(walk)).max() < TOL


@pytest.mark.parametrize("seed", range(8))
def test_entries_between_union_components_are_exact_zeros(seed):
    """On both sides of the dense/split choice: the n x n loop leaves -0.0 there unless mended."""
    rng = np.random.default_rng(seed)
    for low, high in ((3, 12), (we.SPLIT_VERTICES, 2 * we.SPLIT_VERTICES + 1)):
        walk = split_program(rng, int(rng.integers(low, high)), int(rng.integers(1, 6)))
        labels = union_components(walk)
        between = labels[:, None] != labels[None, :]
        u = total_unitary(walk)
        assert between.any()
        for part in (u.real[between], u.imag[between]):
            assert (part == 0.0).all() and not np.signbit(part).any()


def test_total_unitary_is_the_dense_loop_bit_for_bit_on_connected_unions(monkeypatch):
    """The split product against the n x n loop: bit for bit when the union is connected, within rounding otherwise."""
    rng = np.random.default_rng(4)
    walks = []
    for _ in range(60):
        n = int(rng.integers(2, 10))
        walks.append(split_program(rng, n, int(rng.integers(1, 6))) if rng.random() < 0.5 else DynamicGraph(
            n, tuple(TimedGraph(random_graph(rng, n, 0.3, 0.4), d) for d in DURATIONS[1:])
        ))
    dense = [total_unitary(walk) for walk in walks]
    monkeypatch.setattr(we, "SPLIT_VERTICES", 0)
    seen = set()
    for walk, u in zip(walks, dense):
        connected = len(set(union_components(walk).tolist())) == 1
        split = total_unitary(walk)
        if connected:
            assert split.tobytes() == u.tobytes()
        else:
            assert np.abs(split - u).max() <= 1e-14
        seen.add(connected)
    assert seen == {True, False}


@pytest.mark.parametrize("low, high", SIDES)
def test_cached_factors_are_the_per_call_factors_bit_for_bit(low, high):
    """So a product reads the same numbers whether its factors come from the cache or not."""
    rng = np.random.default_rng(low)
    for _ in range(4):
        walk = split_program(rng, int(rng.integers(low, high)), int(rng.integers(1, 6)))
        for step in walk.steps:
            cached, fresh = (
                (looped.tobytes(), phase, [(members.tobytes(), exponential.tobytes()) for members, exponential in blocks])
                for looped, phase, blocks in (we._cached_factors(step), we._factors(step))
            )
            assert cached == fresh
    we._cached_factors.cache_clear()


@pytest.mark.parametrize("low, high", SIDES)
def test_run_distance_is_the_phase_distance_of_the_total_unitaries(low, high):
    """Unrelated runs, the same run with every step halved into two, and a run against itself."""
    rng = np.random.default_rng(low + 1)
    for _ in range(3):
        n = int(rng.integers(low, high))
        a, b = (split_program(rng, n, int(rng.integers(1, 5))) for _ in range(2))
        halved = DynamicGraph(n, tuple(TimedGraph(step.graph, step.duration / 2) for step in a.steps for _ in range(2)))
        for first, second in ((a, b), (a, halved), (b, b), (DynamicGraph(n, ()), a)):
            expected = phase_distance(total_unitary(first), total_unitary(second))
            assert abs(run_distance(n, first.steps, second.steps) - expected) <= 1e-13
    we._cached_factors.cache_clear()


def test_run_distance_of_a_wide_walk_allocates_less_than_one_dense_array():
    """One n x n complex array takes 16 MiB at 1024 vertices and 64 MiB at 2048.

    H+CNOT on 10 qubits splits the union; one H per qubit on 11 qubits connects it.
    """
    for circuit in (Circuit(10, H_CNOT), Circuit(11, tuple(Gate("H", target=q) for q in range(11)))):
        walk = compile_circuit(circuit)
        we._cached_factors.cache_clear()
        tracemalloc.start()
        try:
            distance = run_distance(walk.n_vertices, walk.steps, walk.steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            we._cached_factors.cache_clear()
        assert peak < walk.n_vertices**2 * np.dtype(np.complex128).itemsize
        assert distance < TOL


@pytest.mark.parametrize("circuit", [
    pytest.param(Circuit(8, H_CNOT), id="split union"),
    pytest.param(Circuit(8, tuple(Gate("H", target=q) for q in range(8))), id="connected union"),
    # a connected union of 8 vertices, whose steps leave sixteen -0.0 in the product
    pytest.param(Circuit(3, H_CNOT), id="connected union with -0.0"),
])
def test_narrow_blocks_give_the_one_block_results(monkeypatch, circuit):
    """Blocks of 4 columns against one block: the same bytes of the product, signs of zeros included.

    ``SPLIT_VERTICES`` goes to 0 with the block size, so that 8 vertices are laid out in blocks too.
    """
    walk = compile_circuit(circuit)
    n = walk.n_vertices
    assert we.BLOCK_ENTRIES // n >= n  # one block for any union
    one = total_unitary(walk), run_distance(n, walk.steps, walk.steps[::-1]), check_distance(circuit, walk)
    monkeypatch.setattr(we, "SPLIT_VERTICES", 0)
    monkeypatch.setattr(we, "BLOCK_ENTRIES", 7 * n)  # rounded down to 4 columns
    widths = [identity.shape[1] for identity, _ in we.laid_out_unitary(walk, mixing_pairs(circuit))]
    assert len(widths) > 1 and set(widths[:-1]) == {4}
    assert total_unitary(walk).tobytes() == one[0].tobytes()
    assert abs(run_distance(n, walk.steps, walk.steps[::-1]) - one[1]) <= 1e-15
    assert abs(check_distance(circuit, walk) - one[2]) <= 2e-15  # its trace summed over 64 blocks: 1.3e-15 apart
    we._cached_factors.cache_clear()


@pytest.mark.parametrize("graph", [
    pytest.param(matching(256, 5), id="matching"),
    pytest.param(Graph.make(256, [(v, v ^ 3) for v in range(256) if v < v ^ 3], [0, 1, 7, 200]), id="looped matching"),
    pytest.param(random_graph(np.random.default_rng(3), 128, 0.01, 0.1), id="random"),
    pytest.param(next(s.graph for s in compile_hadamard_layer((0, 4, 7), 8).steps if s.graph.edges), id="3-cube union"),
])
def test_a_single_steps_layout_groups_are_its_spectrum_blocks(graph):
    """A single step with no links takes the general path: its components are its blocks' vertex arrays, byte for byte."""
    steps = (TimedGraph(graph, Fraction(1, 2)),)
    (groups, _, _), *_ = we._blocks(graph.n_vertices, steps)
    blocks = [members for members, _ in spectrum(graph).blocks]
    assert blocks
    assert [(a.shape, a.dtype, a.tobytes()) for a in groups] == [(b.shape, b.dtype, b.tobytes()) for b in blocks]


def test_a_wide_single_gate_allocates_no_dense_array_beyond_its_result():
    """At 1024 vertices an n x n array of even one byte per entry would be 1 MiB."""
    walk = compile_circuit(Circuit(10, (Gate("H", target=3),)))
    total_unitary(walk)
    tracemalloc.start()
    try:
        u = total_unitary(walk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - u.nbytes < walk.n_vertices**2
    assert phase_distance(u, circuit_unitary(Circuit(10, (Gate("H", target=3),)))) < TOL


def test_prefix_unitaries_start_from_the_initial_product():
    rng = np.random.default_rng(8)
    steps = tuple(TimedGraph(random_graph(rng, 6, 0.3, 0.4), duration) for duration in DURATIONS)
    initial = total_unitary(DynamicGraph(6, steps[::-1]))
    products = prefix_unitaries(6, steps, initial)
    assert products[0] is initial
    for k, product in enumerate(products):
        assert np.abs(product - total_unitary(DynamicGraph(6, steps[:k])) @ initial).max() < TOL
