"""Running walk programs one connected component at a time.

A program step (graph G, duration t) acts on amplitudes as the unitary
exp(-i A t / ||A||), with A the adjacency matrix of G. Steps compose left
to right in program order, so the total unitary of [s1, s2, s3] is
U3 U2 U1.

A step never forms its n x n unitary. ``graph_model.spectrum`` splits the
graph into connected components: an edge-free looped vertex only picks up
the phase exp(-i t / ||A||), an edge-free vertex without a loop stays put,
and every other component is a k x k block whose exponential acts on the
k rows it owns. Applying a step to an n x m matrix therefore costs
O(n k m) for the largest block size k, so ``evolve_state`` costs O(n k)
per step and ``total_unitary`` O(n^2 k), and a connected graph is simply
one block. ``step_unitary`` is the same kernel applied to the identity.
"""

from __future__ import annotations

import numpy as np

from .graph_model import DynamicGraph, Graph, TimedGraph, adjacency_matrix, radians, spectrum
from .numerics import ComplexMatrix, StateVector, block_exponential

__all__ = [
    "step_unitary",
    "total_unitary",
    "evolve_state",
    "graphs_commute",
]


def _apply_step(step: TimedGraph, rows: np.ndarray) -> None:
    """Multiply an n x m complex array in place by the step's unitary."""
    spec = spectrum(step.graph)
    if spec.norm == 0.0:
        return
    rate = radians(step.duration) / spec.norm
    if spec.looped.size:
        rows[spec.looped] *= np.exp(-1j * rate)
    for members, decomposition in spec.blocks:
        rows[members] = block_exponential(decomposition, rate) @ rows[members]


def step_unitary(step: TimedGraph) -> ComplexMatrix:
    """Unitary of one timed graph step, as a dense matrix."""
    u = np.eye(step.graph.n_vertices, dtype=np.complex128)
    _apply_step(step, u)
    return u


def total_unitary(walk: DynamicGraph) -> ComplexMatrix:
    """Product of all step unitaries, later steps applied on the left."""
    u = np.eye(walk.n_vertices, dtype=np.complex128)
    for step in walk.steps:
        _apply_step(step, u)
    return u


def evolve_state(walk: DynamicGraph, state: StateVector) -> StateVector:
    """Run the program on a state, one step at a time."""
    psi = np.array(state, dtype=np.complex128)
    if psi.shape != (walk.n_vertices,):
        raise ValueError(f"state has shape {psi.shape}, expected ({walk.n_vertices},)")
    column = psi.reshape(-1, 1)
    for step in walk.steps:
        _apply_step(step, column)
    return psi


def graphs_commute(a: Graph, b: Graph) -> bool:
    """Exact integer test of whether two adjacency matrices commute."""
    if a.n_vertices != b.n_vertices:
        raise ValueError("vertex sets differ")
    ma = adjacency_matrix(a)
    mb = adjacency_matrix(b)
    return np.array_equal(ma @ mb, mb @ ma)
