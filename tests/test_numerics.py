"""Checks for the walk kernel and the equivalence gate.

The kernel is the one path every command takes from a graph to a unitary:
``graph_model.spectrum`` decomposes the graph's component blocks with
numpy's batched ``eigh``, and ``walk_engine.total_unitary`` exponentiates
them. The blocks are checked against the graph's own adjacency matrix, and
the unitaries against scipy's expm on the same scaled Hamiltonian, so the
eigendecomposition route never gets to grade its own homework. Spectra of
a few named graphs are frozen as literals. The gate is ``numerics``:
``phase_distance`` is checked against the trace formula it stands for, and
the distance from the identity of U^dag V, ``overlap_distance`` of its
trace as ``gate_compiler.circuit_distance`` reads it, against
``phase_distance(U, V)``.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from adjacency import adjacency_matrix
from dynwalk.gate_compiler import Circuit, circuit_distance
from dynwalk.graph_model import DynamicGraph, Graph, TimedGraph, radians, spectrum
from dynwalk.numerics import overlap_distance, phase_distance
from dynwalk.walk_engine import total_unitary

RECONSTRUCT_TOL = 1e-11
UNITARY_TOL = 1e-10
EXPM_TOL = 1e-11

RNG = np.random.default_rng(20240817)


def random_graph(n, rng=RNG):
    """Each vertex pair an edge and each vertex a loop with chance 1/2."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.integers(0, 2)]
    loops = [v for v in range(n) if rng.integers(0, 2)]
    return Graph.make(n, edges, loops)


def random_components(n, copies=3, rng=RNG):
    """``copies`` connected random looped graphs on n vertices each, as one graph.

    Each component is a path plus every other vertex pair an edge with
    chance 1/2, and each vertex a loop with chance 1/2. The vertices are
    shuffled, so no component owns a contiguous range.
    """
    label = rng.permutation(copies * n).tolist()
    edges, loops = [], []
    for base in range(0, copies * n, n):
        edges += [(base + i, base + j) for i in range(n) for j in range(i + 1, n) if j == i + 1 or rng.integers(0, 2)]
        loops += [base + v for v in range(n) if rng.integers(0, 2)]
    return Graph.make(copies * n, [(label[i], label[j]) for i, j in edges], [label[v] for v in loops])


def block_stacks(n):
    """Each stack of spectrum(g).blocks with the adjacency blocks it decomposes.

    For n > 1 the graph's three components of size n make one stack of
    three blocks; a single vertex is a looped singleton or idle, never a
    block.
    """
    graph = random_components(n)
    adjacency = adjacency_matrix(graph)
    stacks = [
        (eigenvalues, eigenvectors, np.array([adjacency[rows][:, rows] for rows in members]))
        for members, (eigenvalues, eigenvectors) in spectrum(graph).blocks
    ]
    assert [block.shape for _, _, block in stacks] == ([(3, n, n)] if n > 1 else [])
    return stacks


def cycle(n):
    return Graph.make(n, edges=[(v, (v + 1) % n) for v in range(n)])


def path(n):
    return Graph.make(n, edges=[(v, v + 1) for v in range(n - 1)])


def unitary_at(graph, time):
    """The step unitary of ``graph`` run for ``time`` radians."""
    return total_unitary(DynamicGraph(graph.n_vertices, (TimedGraph(graph, Fraction(time / np.pi)),)))


def sorted_spectrum(graph):
    return np.sort(references.eigenvalues(spectrum(graph), graph.n_vertices))


# -- spectrum blocks -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_eigh_reconstructs_input(n):
    """Every block of a stack is V diag(w) V^T, as the step exponential assumes."""
    for w, v, blocks in block_stacks(n):
        rebuilt = (v * w[:, None, :]) @ np.swapaxes(v, -1, -2)
        assert np.abs(rebuilt - blocks).max() < RECONSTRUCT_TOL


@pytest.mark.parametrize("n", [2, 4, 7])
def test_eigh_columns_orthonormal(n):
    """V^T is V^dag only if each block's eigenvector columns are orthonormal."""
    for _, v, _ in block_stacks(n):
        assert np.abs(np.swapaxes(v, -1, -2) @ v - np.eye(n)).max() < RECONSTRUCT_TOL


def test_eigh_sorted_ascending():
    for w, _, _ in block_stacks(6):
        assert np.all(np.diff(w, axis=-1) >= -1e-12)


def test_frozen_spectrum_four_cycle():
    assert np.allclose(sorted_spectrum(cycle(4)), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_frozen_spectrum_single_edge():
    assert np.allclose(sorted_spectrum(path(2)), [-1.0, 1.0], atol=1e-12)


def test_frozen_spectrum_three_path():
    root2 = np.sqrt(2.0)
    assert np.allclose(sorted_spectrum(path(3)), [-root2, 0.0, root2], atol=1e-12)


def test_frozen_spectrum_loops_only():
    loops = Graph.make(4, loops=[0, 2, 3])
    assert np.allclose(sorted_spectrum(loops), [0.0, 1.0, 1.0, 1.0], atol=1e-12)


# -- one step's unitary -----------------------------------------------------


@pytest.mark.parametrize(
    "graph",
    [path(2), cycle(4), path(3), Graph.make(4, loops=[0, 1, 3])],
    ids=["edge", "cycle4", "path3", "loops"],
)
@pytest.mark.parametrize("time", [0.0, np.pi / 4, np.pi / 2, np.pi, 5.31])
def test_evolve_matches_scipy_expm(graph, time):
    step = TimedGraph(graph, Fraction(time / np.pi))
    matrix = adjacency_matrix(graph).astype(complex)
    norm = np.linalg.norm(matrix, 2)
    expected = scipy.linalg.expm(-1j * matrix * (radians(step.duration) / norm))
    assert np.abs(total_unitary(DynamicGraph(graph.n_vertices, (step,))) - expected).max() < EXPM_TOL


def test_evolve_zero_matrix_is_identity():
    u = unitary_at(Graph.make(3), 7.0)
    assert np.array_equal(u, np.eye(3))


def test_evolve_edge_quarter_period_swaps():
    """One edge at t = pi/2 moves amplitude across with phase -i."""
    u = total_unitary(DynamicGraph(2, (TimedGraph(path(2), Fraction(1, 2)),)))
    expected = np.array([[0, -1j], [-1j, 0]])
    assert np.abs(u - expected).max() < 1e-12


def test_evolve_semigroup_property():
    a, b = Fraction(2, 9), Fraction(3, 5)
    u1 = total_unitary(DynamicGraph(4, (TimedGraph(cycle(4), a),)))
    u2 = total_unitary(DynamicGraph(4, (TimedGraph(cycle(4), b),)))
    combined = total_unitary(DynamicGraph(4, (TimedGraph(cycle(4), a + b),)))
    assert np.abs(u2 @ u1 - combined).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    time=st.floats(0.0, 20.0, allow_nan=False),
)
def test_evolve_always_unitary(seed, n, time):
    u = unitary_at(random_graph(n, np.random.default_rng(seed)), time)
    assert np.abs(u @ u.conj().T - np.eye(n)).max() < UNITARY_TOL


# -- phase_distance ----------------------------------------------------------


def test_phase_distance_zero_for_equal():
    u = unitary_at(cycle(4), 1.3)
    assert phase_distance(u, u) < 1e-15


def test_phase_distance_ignores_global_phase():
    u = unitary_at(path(3), 2.1)
    assert phase_distance(u, np.exp(0.37j) * u) < 1e-12


def test_phase_distance_detects_difference():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert phase_distance(np.eye(2), x) == pytest.approx(1.0)


def test_phase_distance_single_row_change():
    u = np.eye(4, dtype=complex)
    v = u.copy()
    v[2, 2] = -1.0
    assert phase_distance(u, v) == pytest.approx(0.5)


def random_unitary(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_phase_distance_equals_the_trace_formula(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        for w in (v, np.exp(0.3j) * u, u):
            trace_formula = 1.0 - abs(np.trace(u.conj().T @ w)) / n
            assert abs(phase_distance(u, w) - trace_formula) < 1e-12


def test_phase_distance_shape_mismatch():
    with pytest.raises(ValueError):
        phase_distance(np.eye(2), np.eye(3))


def test_phase_distance_empty():
    assert phase_distance(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_identity_distance_of_the_product_is_the_phase_distance(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        for w in (v, np.exp(0.3j) * u, u):
            assert abs(overlap_distance(np.trace(u.conj().T @ w), n) - phase_distance(u, w)) < 1e-12


def test_identity_distance_shapes():
    """The identity distance, as ``circuit_distance`` of the empty circuit reads it."""
    assert overlap_distance(np.trace(np.zeros((0, 0))), 0) == 0.0
    assert overlap_distance(np.trace(-1j * np.eye(3)), 3) == 0.0
    assert circuit_distance(Circuit(2, ()), [(np.eye(4), -1j * np.eye(4, dtype=complex))]) == 0.0
    with pytest.raises(ValueError):
        circuit_distance(Circuit(2, ()), [(np.eye(4), np.eye(4, dtype=complex)[:2])])
    with pytest.raises(ValueError):
        circuit_distance(Circuit(2, ()), [(np.eye(4), np.ones(4, dtype=complex))])
