"""Independent reference results for checking the program's outputs.

Nothing here imports the package under test. Gates use their own 2x2
matrices and CNOT its own index permutation; a walk step is exponentiated
from its own adjacency matrix with one ``eigh`` per step. Results are
compared by the largest entry difference after aligning the global phase,
which bounds every amplitude's error (a trace-based distance is quadratic
in small errors and diluted by the dimension).
"""

from __future__ import annotations

import math
import re
from typing import List

import numpy as np

TOLERANCE = 1e-8

_R = 1.0 / math.sqrt(2.0)
_GATES = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "T": np.array([[1, 0], [0, complex(_R, _R)]], dtype=np.complex128),
    "H": np.array([[_R, _R], [_R, -_R]], dtype=np.complex128),
}


def _one_qubit(psi: np.ndarray, matrix: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of a batch of states (rows = basis)."""
    cols = psi.shape[1]
    view = psi.reshape(2**qubit, 2, 2 ** (n_qubits - qubit - 1), cols)
    return np.einsum("ij,ajbc->aibc", matrix, view).reshape(psi.shape)


def _apply_gate(psi: np.ndarray, gate: dict, n_qubits: int) -> np.ndarray:
    kind = gate["kind"]
    if kind == "CNOT":
        control = 1 << (n_qubits - 1 - gate["control"])
        target = 1 << (n_qubits - 1 - gate["target"])
        index = np.arange(2**n_qubits)
        source = np.where(index & control, index ^ target, index)
        return psi[source]
    if kind == "HLAYER":
        for qubit in gate["targets"]:
            psi = _one_qubit(psi, _GATES["H"], qubit, n_qubits)
        return psi
    if kind == "PHASE":
        theta = math.pi * gate["theta"]["pi_num"] / gate["theta"]["pi_den"]
        matrix = np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=np.complex128)
    else:
        matrix = _GATES[kind]
    return _one_qubit(psi, matrix, gate["target"], n_qubits)


def circuit_states(circuit: dict, initial: np.ndarray) -> np.ndarray:
    """Run the circuit on each column of ``initial`` by state-vector updates."""
    psi = np.array(initial, dtype=np.complex128)
    if psi.ndim == 1:
        psi = psi[:, None]
    for gate in circuit["gates"]:
        psi = _apply_gate(psi, gate, circuit["n_qubits"])
    return psi


def circuit_matrix(circuit: dict) -> np.ndarray:
    return circuit_states(circuit, np.eye(2 ** circuit["n_qubits"]))


def basis_state(label: str) -> np.ndarray:
    psi = np.zeros(2 ** len(label), dtype=np.complex128)
    psi[int(label, 2)] = 1.0
    return psi


def walk_matrix(walk: dict) -> np.ndarray:
    """Program unitary: product of exp(-i A t / ||A||), later steps on the left."""
    n = walk["n_vertices"]
    u = np.eye(n, dtype=np.complex128)
    for step in walk["sequence"]:
        a = np.zeros((n, n))
        for i, j in step["edges"]:
            a[i, j] = a[j, i] = 1.0
        for v in step["loops"]:
            a[v, v] = 1.0
        values, vectors = np.linalg.eigh(a)
        norm = np.abs(values).max() if n else 0.0
        if norm == 0.0:
            continue
        t = math.pi * step["time"]["pi_num"] / step["time"]["pi_den"]
        u = (vectors * np.exp(-1j * values * (t / norm))) @ vectors.T @ u
    return u


def aligned_distance(expected: np.ndarray, actual: np.ndarray) -> float:
    """max |e^{i phi} expected - actual| with phi fitted to the overlap."""
    if expected.shape != actual.shape:
        return math.inf
    overlap = np.vdot(expected, actual)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.abs(phase * expected - actual).max())


_FLOAT = r"(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|inf|nan)"
_AMPLITUDE = re.compile(rf"^\|([0-9]+)>\s+(-?{_FLOAT})([+-]{_FLOAT})i$")


def parse_amplitudes(lines: List[str], n: int) -> np.ndarray:
    """Amplitudes from ``dynwalk simulate`` output; raises ValueError on junk."""
    psi = np.full(n, np.nan, dtype=np.complex128)
    for line in lines:
        match = _AMPLITUDE.match(line)
        if not match:
            continue
        label = match.group(1)
        index = int(label, 2) if len(label) > 1 and n == 2 ** len(label) else int(label)
        psi[index] = complex(float(match.group(2)), float(match.group(3)))
    if np.isnan(psi.real).any():
        raise ValueError("simulate output is missing amplitudes")
    return psi
