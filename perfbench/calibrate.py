"""Machine-speed calibration interleaved with the measured work.

On a shared virtual machine the speed of one process drifts by up to 1.7x
over tens of seconds, and a run sees whatever share of slow and fast
periods it happens to fall in. ``kernel`` is a fixed piece of work in the
same mix the package does (interpreted loops, dict and frozenset churn,
Fraction sums, small dense ``eigh``) that never touches the package. The
worker runs it between programs, outside their timing; the mean time of
the kernels around a program (or over a round), divided by
``REFERENCE_S``, is the speed factor for that program (or round).
Dividing a time by its factor converts it to seconds on a machine that
runs the kernel in ``REFERENCE_S``.

Measured on a 2-vCPU x86 virtual machine over 150 s of repeated
``optimize`` passes, the raw pass times spread by 37% (quartile distance
over median, max/min 1.65) and the calibrated ones by 5% (max/min 1.27).
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# kernel time on a 2-vCPU x86 machine at its faster steady speed
REFERENCE_S = 0.002

_MATRIX = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5.0


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time."""
    started = time.perf_counter()
    total = 0
    for i in range(12000):
        total += i * i
    table = {}
    for i in range(1200):
        table[(i, i + 1)] = frozenset((i, i + 1, i % 7))
    sum((Fraction(i, 7) for i in range(200)), Fraction(0))
    for _ in range(24):
        np.linalg.eigh(_MATRIX)
    return time.perf_counter() - started


def speed_factor(samples) -> float:
    """How many times slower than the reference the samples ran."""
    return sum(samples) / (len(samples) * REFERENCE_S)
