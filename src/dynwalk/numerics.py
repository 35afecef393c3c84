"""The equivalence gate.

Two unitaries count as the same program when their phase distance
1 - |tr(U^dag V)| / n, which ignores a global phase, is below
``VERIFY_TOLERANCE``. Each check reads the distance off the overlap
tr(U^dag V) through ``overlap_distance``, and every package check goes
through one of two routines, which sum the overlap over the blocks of
``walk_engine``'s layout. ``walk_engine.run_distance`` compares two runs
of steps: ``equiv`` and the optimizer's span checks and final check.
``gate_compiler.circuit_distance`` compares a product with a circuit:
``compile`` and the optimizer's Hadamard-layer match, with the trace of
C^dag times the product, formed in each block's own array; the
optimizer's fragment is one block, read off its two prefix products,
and reaches this check only after its own trace and its column 0 have
left a layer possible.
``phase_distance`` of two dense matrices is the dense form that tests
call and that perfbench's tracer looks up by name; no package code calls
it. Nothing else lives here: a graph's spectrum comes from
``graph_model.spectrum`` and a step's unitary from ``walk_engine``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VERIFY_TOLERANCE", "phase_distance", "overlap_distance"]

# phase_distance below this: the same program up to global phase
VERIFY_TOLERANCE = 1e-9


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
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
    return overlap_distance(np.vdot(a, b), a.shape[0])


def overlap_distance(overlap: complex, dim: int) -> float:
    """1 - |overlap| / dim, for an overlap tr(U^dag V) of two dim x dim unitaries."""
    return 0.0 if dim == 0 else float(1.0 - abs(overlap) / dim)
