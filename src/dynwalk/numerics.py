"""The walk kernel and the equivalence gate.

In the paper each graph of a dynamic graph drives Schrödinger's equation
for its duration, so every step's unitary is an exponential
exp(-i A t / ||A||) of a real symmetric {0,1} matrix A. There is one path
from a graph to that unitary: ``graph_model.spectrum`` splits the graph
into connected components and hands ``block_eigh`` each stack of
equal-size component blocks, decomposed in one batched call, and
``walk_engine.step_unitary`` turns the decompositions into the blocks'
unitaries through ``block_exponential``. The rest of the package stays
exact-rational until that moment.

Two unitaries count as the same program when ``phase_distance``, which
ignores a global phase, is below ``VERIFY_TOLERANCE``. ``compile``,
``equiv`` and every optimizer rewrite are gated on it.

Matrices are plain numpy arrays. ``ComplexMatrix`` and ``StateVector`` are
aliases, not wrappers: adjacency matrices arrive as real arrays and leave
as complex unitaries, and keeping them bare keeps the algebra readable.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

ComplexMatrix = np.ndarray
StateVector = np.ndarray

__all__ = [
    "ComplexMatrix",
    "StateVector",
    "EigenDecomposition",
    "block_eigh",
    "block_exponential",
    "VERIFY_TOLERANCE",
    "phase_distance",
]

class EigenDecomposition(NamedTuple):
    """Spectral factorization A = V diag(w) V^T of a real symmetric matrix.

    For a stack of matrices both fields carry the stack axis first.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def block_eigh(blocks: np.ndarray) -> EigenDecomposition:
    """Eigendecompositions of a (b, k, k) stack of real symmetric blocks.

    One batched call for the whole stack: eigenvalues come back (b, k),
    ascending per block, and eigenvectors (b, k, k), one per column. The
    blocks are not checked for symmetry; callers build them symmetric.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(blocks)
    return EigenDecomposition(eigenvalues, eigenvectors)


def block_exponential(decomposition: EigenDecomposition, rate: float) -> ComplexMatrix:
    """exp(-i A rate) for every matrix A of a decomposed stack (or one matrix).

    Rebuilds V diag(exp(-i w rate)) V^T; the eigenvectors of a real
    symmetric matrix are real, so V^T is V^dag.
    """
    eigenvalues, vectors = decomposition
    phases = np.exp(-1j * rate * eigenvalues)
    return (vectors * phases[..., None, :]) @ np.swapaxes(vectors, -1, -2)


# phase_distance below this: the same program up to global phase
VERIFY_TOLERANCE = 1e-9


def phase_distance(u: ComplexMatrix, v: ComplexMatrix) -> float:
    """Global-phase-invariant distance 1 - |tr(U^dag V)| / dim.

    Zero exactly when U and V agree up to a global phase; for unitaries it is
    bounded by [0, 1] up to rounding. Raises ``ValueError`` on shape mismatch.
    The trace is the entrywise inner product sum conj(U_ij) V_ij, so no
    matrix product is formed.
    """
    a = np.asarray(u)
    b = np.asarray(v)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    dim = a.shape[0]
    if dim == 0:
        return 0.0
    overlap = np.vdot(a, b)
    return float(1.0 - abs(overlap) / dim)
