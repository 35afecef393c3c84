"""The equivalence gate.

Two unitaries count as the same program when ``phase_distance``, which
ignores a global phase, is below ``VERIFY_TOLERANCE``. ``compile``,
``equiv`` and every optimizer rewrite are gated on it, and nothing else
lives here: a graph's spectrum comes from ``graph_model.spectrum`` and a
step's unitary from ``walk_engine``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VERIFY_TOLERANCE", "phase_distance"]

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
    dim = a.shape[0]
    if dim == 0:
        return 0.0
    overlap = np.vdot(a, b)
    return float(1.0 - abs(overlap) / dim)
