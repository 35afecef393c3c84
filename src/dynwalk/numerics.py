"""Hermitian linear algebra for walk evolution.

Everything downstream (stepping a walk, comparing programs, checking a
compiled circuit) reduces to exponentials of real symmetric {0,1} matrices.
This module owns that numerical kernel so the rest of the package can stay
exact-rational until the moment a unitary is actually needed.

A walk step never needs the exponential of its whole n x n adjacency
matrix: the graph splits into connected components, and the walk engine
hands this module one stack of equal-size component blocks at a time.
``block_eigh`` decomposes such a stack in one batched call, and
``block_exponential`` turns the decompositions into the blocks' unitaries.
``evolve_unitary`` is the same exponential for a single checked matrix.

Matrices are plain numpy arrays. ``ComplexMatrix`` and ``StateVector`` are
aliases, not wrappers: adjacency matrices arrive as integer arrays and leave
as complex unitaries, and keeping them bare keeps the algebra readable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, SupportsFloat, Union

import numpy as np

ComplexMatrix = np.ndarray
StateVector = np.ndarray

__all__ = [
    "ComplexMatrix",
    "StateVector",
    "EigenDecomposition",
    "symmetric_eigh",
    "block_eigh",
    "block_exponential",
    "evolve_unitary",
    "phase_distance",
]


class EigenDecomposition(NamedTuple):
    """Spectral factorization A = V diag(w) V^T of a real symmetric matrix.

    For a stack of matrices both fields carry the stack axis first.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_symmetric(matrix: np.ndarray) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        if np.abs(arr.imag).max(initial=0.0) != 0.0:
            raise ValueError("expected a real symmetric matrix, got complex entries")
        arr = arr.real
    arr = arr.astype(np.float64, copy=False)
    if not np.array_equal(arr, arr.T):
        raise ValueError("matrix is not symmetric")
    return arr


def symmetric_eigh(matrix: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix, eigenvalues ascending.

    Guarantees V diag(w) V^T reconstructs the input to high accuracy and that
    the eigenvector columns are orthonormal. Raises ``ValueError`` for
    non-square or non-symmetric input.
    """
    arr = _require_symmetric(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(arr)
    return EigenDecomposition(eigenvalues, eigenvectors)


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


def evolve_unitary(matrix: np.ndarray, time: Union[float, SupportsFloat]) -> ComplexMatrix:
    """Unitary exp(-i A t / ||A||) for a symmetric A, via its spectrum.

    The norm scaling matches the walk convention: a step of duration t
    evolves under A / ||A||, so spectra of different graphs live on a common
    [-1, 1] scale. A zero matrix (no edges, no loops) has no dynamics and
    yields the identity. ``time`` is in radians: a ``Fraction`` (a duration,
    in multiples of pi) raises TypeError instead of running as radians.
    """
    if isinstance(time, Fraction):
        raise TypeError(f"time {time} is a multiple of pi, not radians; use graph_model.radians")
    decomposition = symmetric_eigh(matrix)
    norm = float(np.abs(decomposition.eigenvalues).max(initial=0.0))
    if norm == 0.0:
        return np.eye(decomposition.eigenvalues.shape[0], dtype=np.complex128)
    return block_exponential(decomposition, float(time) / norm)


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
