"""Dense reference forms the tests compare the package's code with."""

import numpy as np

from dynwalk.gate_compiler import _undo_gate


def circuit_unitary(circuit):
    """The circuit's dense unitary: its gates undone on the identity, last gate first, then conjugate-transposed."""
    u = np.eye(circuit.n_vertices, dtype=np.complex128)
    for gate in reversed(circuit.gates):
        _undo_gate(gate, circuit.n_qubits, u)
    return np.ascontiguousarray(u.conj().T)


def eigenvalues(spec, n_vertices):
    """Every eigenvalue of the spectrum's adjacency matrix with its multiplicity, unordered."""
    parts = [np.ones(spec.looped.size)]
    parts += [
        values.repeat(len(members) // len(values), axis=0).ravel()
        for members, (values, _) in spec.blocks
    ]
    idle = n_vertices - sum(part.size for part in parts)
    return np.concatenate(parts + [np.zeros(idle)])
