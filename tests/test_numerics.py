"""Checks for the dense linear-algebra kernel.

The evolution unitary is cross-checked against scipy's expm on the same
scaled Hamiltonian, so the eigendecomposition route never gets to grade
its own homework. Spectra of a few named graphs are frozen as literals.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwalk.numerics import (
    evolve_unitary,
    phase_distance,
    symmetric_eigh,
)

RECONSTRUCT_TOL = 1e-11
UNITARY_TOL = 1e-10
EXPM_TOL = 1e-11

RNG = np.random.default_rng(20240817)


def random_symmetric(n, rng=RNG):
    upper = rng.integers(0, 2, size=(n, n))
    sym = np.triu(upper, 1)
    return sym + sym.T + np.diag(rng.integers(0, 2, size=n))


def cycle_adjacency(n):
    a = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        a[v, (v + 1) % n] = 1
        a[(v + 1) % n, v] = 1
    return a


def path_adjacency(n):
    a = np.zeros((n, n), dtype=np.int64)
    for v in range(n - 1):
        a[v, v + 1] = 1
        a[v + 1, v] = 1
    return a


# -- symmetric_eigh ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_eigh_reconstructs_input(n):
    a = random_symmetric(n)
    w, v = symmetric_eigh(a)
    rebuilt = (v * w) @ v.T
    assert np.abs(rebuilt - a).max() < RECONSTRUCT_TOL


@pytest.mark.parametrize("n", [2, 4, 7])
def test_eigh_columns_orthonormal(n):
    _, v = symmetric_eigh(random_symmetric(n))
    assert np.abs(v.T @ v - np.eye(n)).max() < RECONSTRUCT_TOL


def test_eigh_sorted_ascending():
    w, _ = symmetric_eigh(cycle_adjacency(6))
    assert np.all(np.diff(w) >= -1e-12)


def test_frozen_spectrum_four_cycle():
    w, _ = symmetric_eigh(cycle_adjacency(4))
    assert np.allclose(w, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_frozen_spectrum_single_edge():
    w, _ = symmetric_eigh(path_adjacency(2))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)


def test_frozen_spectrum_three_path():
    w, _ = symmetric_eigh(path_adjacency(3))
    root2 = np.sqrt(2.0)
    assert np.allclose(w, [-root2, 0.0, root2], atol=1e-12)


def test_frozen_spectrum_loops_only():
    w, _ = symmetric_eigh(np.diag([1, 0, 1, 1]))
    assert np.allclose(w, [0.0, 1.0, 1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 3)),
        np.array([[0, 1], [0, 0]]),
        np.array([[0, 1j], [-1j, 0]]),
        np.zeros(3),
    ],
)
def test_eigh_rejects_non_symmetric(bad):
    with pytest.raises(ValueError):
        symmetric_eigh(bad)


# -- evolve_unitary ----------------------------------------------------------


@pytest.mark.parametrize(
    "matrix",
    [path_adjacency(2), cycle_adjacency(4), path_adjacency(3), np.diag([1, 1, 0, 1])],
    ids=["edge", "cycle4", "path3", "loops"],
)
@pytest.mark.parametrize("time", [0.0, np.pi / 4, np.pi / 2, np.pi, 5.31])
def test_evolve_matches_scipy_expm(matrix, time):
    norm = np.linalg.norm(matrix.astype(float), 2)
    expected = scipy.linalg.expm(-1j * matrix.astype(complex) * (time / norm))
    got = evolve_unitary(matrix, time)
    assert np.abs(got - expected).max() < EXPM_TOL


def test_evolve_zero_matrix_is_identity():
    u = evolve_unitary(np.zeros((3, 3)), 7.0)
    assert np.array_equal(u, np.eye(3))


def test_evolve_edge_quarter_period_swaps():
    """One edge at t = pi/2 moves amplitude across with phase -i."""
    u = evolve_unitary(path_adjacency(2), np.pi / 2)
    expected = np.array([[0, -1j], [-1j, 0]])
    assert np.abs(u - expected).max() < 1e-12


def test_evolve_refuses_a_fraction_duration():
    """A Fraction is a multiple of pi: pi/2 must not run as 0.5 rad."""
    with pytest.raises(TypeError, match="graph_model.radians"):
        evolve_unitary(path_adjacency(2), Fraction(1, 2))


def test_evolve_semigroup_property():
    a = cycle_adjacency(4)
    u1 = evolve_unitary(a, 0.7)
    u2 = evolve_unitary(a, 1.9)
    combined = evolve_unitary(a, 2.6)
    assert np.abs(u2 @ u1 - combined).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    time=st.floats(0.0, 20.0, allow_nan=False),
)
def test_evolve_always_unitary(seed, n, time):
    a = random_symmetric(n, np.random.default_rng(seed))
    u = evolve_unitary(a, time)
    assert np.abs(u @ u.conj().T - np.eye(n)).max() < UNITARY_TOL


# -- phase_distance ----------------------------------------------------------


def test_phase_distance_zero_for_equal():
    u = evolve_unitary(cycle_adjacency(4), 1.3)
    assert phase_distance(u, u) < 1e-15


def test_phase_distance_ignores_global_phase():
    u = evolve_unitary(path_adjacency(3), 2.1)
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
