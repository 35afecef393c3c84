"""Circuit-to-walk compilation checked against dense gate references."""

import itertools
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwalk.gate_compiler import (
    GATE_KINDS,
    MAX_QUBITS,
    _apply_gate,
    _loops,
    _matching,
    _pairs,
    _staircase,
    Circuit,
    Gate,
    bit_value,
    circuit_distance,
    circuit_unitary,
    compile_circuit,
    compile_hadamard_layer,
    mixing_pairs,
    parse_circuit,
)
from dynwalk.graph_model import DynamicGraph, Graph, ParseError, TimedGraph, radians
from dynwalk.numerics import VERIFY_TOLERANCE, phase_distance
from dynwalk.walk_engine import evolve_state, laid_out_unitary, total_unitary

TOL = 1e-12

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kron(*factors):
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def angle(num, den=1):
    return Fraction(num, den)


# -- masks and graph builders ------------------------------------------------


def test_bit_value_is_msb_first():
    assert bit_value(0, 3) == 4
    assert bit_value(1, 3) == 2
    assert bit_value(2, 3) == 1
    assert bit_value(0, 1) == 1


def test_bit_value_range_check():
    with pytest.raises(ValueError):
        bit_value(3, 3)
    with pytest.raises(ValueError):
        bit_value(-1, 3)


def test_matching_graph_pairs_by_xor():
    assert _pairs(4, 1).tolist() == [[0, 1], [2, 3]]
    assert _pairs(8, 6).tolist() == [[0, 6], [1, 7], [2, 4], [3, 5]]
    for n in range(2, 65):
        for mask in range(1, n):
            pairs = {(v, v ^ mask) for v in range(n) if v < v ^ mask}
            edges = frozenset(map(tuple, _pairs(n, mask).tolist()))
            if max(b for _, b in pairs) < n:
                assert _matching(n, _pairs(n, mask)) == Graph(n, edges) == Graph(n, frozenset(pairs))
            else:
                # the pairing runs past the last vertex: the graph refuses the pair
                with pytest.raises(ValueError, match=rf"out of range for {n} vertices$"):
                    Graph(n, edges)


def test_loop_builders():
    assert _loops(4, 0).loops == frozenset({0, 1, 2, 3})
    assert _loops(4, 2).loops == frozenset({2, 3})
    assert _loops(8, 5).loops == frozenset({5, 7})


# -- gate and circuit validation ---------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: Gate("Q", target=0),
        lambda: Gate("X"),
        lambda: Gate("CNOT", target=0),
        lambda: Gate("CNOT", target=0, control=0),
        lambda: Gate("PHASE", target=0),
        lambda: Gate("PHASE", target=0, theta=angle(2)),
        lambda: Gate("HLAYER"),
        lambda: Gate("HLAYER", targets=()),
        lambda: Gate("HLAYER", targets=(0, 0)),
    ],
)
def test_gate_validation_rejects(build):
    with pytest.raises(ValueError):
        build()


# the fields of a valid gate of each kind, and a stray value for each field that none of those gates holds
VALID_FIELDS = {
    "X": {"target": 0}, "Y": {"target": 0}, "Z": {"target": 0}, "S": {"target": 0}, "T": {"target": 0},
    "PHASE": {"target": 0, "theta": angle(1, 4)}, "H": {"target": 0},
    "CNOT": {"control": 0, "target": 1}, "HLAYER": {"targets": (0, 1)},
}
STRAY_VALUES = {"target": 2, "control": 3, "theta": angle(1, 2), "targets": (4,)}


@pytest.mark.parametrize(
    "kind, field",
    [(kind, field) for kind in GATE_KINDS for field in STRAY_VALUES if field not in VALID_FIELDS[kind]],
)
def test_gate_refuses_fields_its_kind_does_not_take(kind, field):
    Gate(kind, **VALID_FIELDS[kind])
    with pytest.raises(ValueError, match=rf"^{kind} takes no {field}$"):
        Gate(kind, **VALID_FIELDS[kind], **{field: STRAY_VALUES[field]})


def test_gate_keeps_targets_as_a_tuple():
    listed, tupled = Gate("HLAYER", targets=[0, 1]), Gate("HLAYER", targets=(0, 1))
    assert listed.targets == (0, 1)
    assert listed == tupled
    assert hash(listed) == hash(tupled)
    assert hash(Circuit(2, (listed,))) == hash(Circuit(2, (tupled,)))


@pytest.mark.parametrize("theta", [0.25, 1, True, "1/4"])
def test_gate_rejects_a_theta_that_is_not_a_fraction(theta):
    with pytest.raises(TypeError, match="Fraction multiple of pi"):
        Gate("PHASE", target=0, theta=theta)


@pytest.mark.parametrize("index", [0.0, 1.5, True, False])
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda q: Gate("X", target=q), id="target"),
        pytest.param(lambda q: Gate("CNOT", control=q, target=2), id="control"),
        pytest.param(lambda q: Gate("HLAYER", targets=(2, q)), id="targets"),
    ],
)
def test_gate_qubit_indices_must_be_ints(build, index):
    with pytest.raises(TypeError, match="qubit index must be an int"):
        build(index)


@pytest.mark.parametrize("count", [2.5, 2.0, True])
def test_circuit_qubit_count_must_be_an_int(count):
    with pytest.raises(TypeError, match="qubit count must be an int"):
        Circuit(count, (Gate("X", target=0),))


def test_gate_rejects_a_negative_theta():
    with pytest.raises(ValueError, match=r"\[0, 2pi\)"):
        Gate("PHASE", target=0, theta=Fraction(-1, 4))


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0, ())
    with pytest.raises(ValueError):
        Circuit(1, (Gate("X", target=1),))
    with pytest.raises(ValueError):
        Circuit(2, (Gate("CNOT", control=0, target=2),))
    c = Circuit(3, (Gate("HLAYER", targets=(0, 2)),))
    assert c.n_vertices == 8


# -- phase staircases ---------------------------------------------------------


def test_staircase_explicit_levels():
    # phases pi/2, 3pi/2, 3pi/2 and pi, in halves of pi
    steps = _staircase({0: 1, 1: 3, 2: 3, 3: 2}, 2, 4)
    got = [(sorted(step.graph.loops), step.duration) for step in steps]
    assert got == [
        ([1, 2], angle(1, 2)),
        ([1, 2, 3], angle(1, 2)),
        ([0, 1, 2, 3], angle(1, 2)),
    ]
    assert DynamicGraph(4, steps).total_time() == angle(3, 2)
    assert all(step.graph.is_loops_only for step in steps)


def test_staircase_unitary_is_target_diagonal():
    phases = {0: angle(1, 4), 2: angle(7, 4), 3: angle(1)}
    u = total_unitary(DynamicGraph(4, _staircase({v: int(phase * 4) for v, phase in phases.items()}, 4, 4)))
    expected = np.diag([np.exp(-1j * radians(phases.get(v, angle(0)))) for v in range(4)])
    assert np.abs(u - expected).max() < 1e-12


def test_staircase_drops_zero_entries():
    steps = _staircase({0: 0, 1: 1}, 2, 2)
    assert steps == (TimedGraph(Graph.make(2, loops=[1]), angle(1, 2)),)


def test_staircase_empty_map():
    steps = _staircase({}, 1, 4)
    assert steps == ()
    assert DynamicGraph(4, steps).total_time() == angle(0)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.dictionaries(st.integers(0, 7), st.integers(0, 7), max_size=8),
)
def test_staircase_property(raw):
    phases = {v: angle(k, 4) for v, k in raw.items()}
    steps = _staircase(raw, 4, 8)
    u = total_unitary(DynamicGraph(8, steps))
    expected = np.diag([np.exp(-1j * radians(phases.get(v, angle(0)))) for v in range(8)])
    assert np.abs(u - expected).max() < 1e-10
    nonzero = [a for a in phases.values() if a != 0]
    assert DynamicGraph(8, steps).total_time() == (max(nonzero) if nonzero else angle(0))
    assert len(steps) == len({a for a in nonzero})


# -- hadamard layers -----------------------------------------------------------


def test_layer_single_target_shape_and_value():
    layer = compile_hadamard_layer([0], 1)
    assert layer.graph_count == 3
    assert layer.total_time() == angle(5, 4)
    assert layer.steps[0] == layer.steps[2]
    assert layer.steps[0].graph.is_loops_only
    assert not layer.steps[1].graph.loops
    u = total_unitary(layer)
    assert np.abs(u - (-H)).max() < 1e-12


def test_layer_two_targets_shape_and_value():
    layer = compile_hadamard_layer([0, 1], 2)
    assert layer.graph_count == 5
    assert layer.total_time() == angle(5, 2)
    assert layer.steps[:2] == layer.steps[3:]
    u = total_unitary(layer)
    assert np.abs(u - kron(H, H)).max() < 1e-11


def test_layer_three_targets_shape_and_value():
    layer = compile_hadamard_layer([0, 1, 2], 3)
    assert layer.graph_count == 7
    assert layer.total_time() == angle(15, 4)
    stair = layer.steps[:3]
    assert stair == layer.steps[4:]
    assert [step.duration for step in stair] == [angle(1, 2)] * 3
    u = total_unitary(layer)
    assert np.abs(u - kron(H, H, H)).max() < 1e-11


def test_layer_subset_of_wires():
    layer = compile_hadamard_layer([1], 2)
    u = total_unitary(layer)
    assert np.abs(u - (-kron(I2, H))).max() < 1e-12


def brute_force_beta(k):
    """Beta over the four quarter turns with the lowest staircase, the smaller beta on a tie."""
    return min(
        (max((beta - Fraction(h, 2)) % 2 for h in range(k + 1)), beta)
        for beta in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))
    )


@pytest.mark.parametrize("k", range(1, 11))
def test_layer_bracket_phase_is_the_lowest_quarter_turn(k):
    """The staircase height and beta (vertex 0's phase) match the search over four betas."""
    layer = compile_hadamard_layer(range(k), k)
    stair = layer.steps[: layer.graph_count // 2]
    assert layer.steps[len(stair) + 1 :] == stair
    height = sum(step.duration for step in stair)
    beta = sum(step.duration for step in stair if 0 in step.graph.loops)
    assert (height, beta) == brute_force_beta(k)


@pytest.mark.parametrize("q", range(1, 9))
def test_layer_column_zero_is_an_even_spread_with_one_phase(q):
    """Hadamards on the bits of a mask send vertex 0 to 2^(-k/2) times one phase on the 2^k vertices inside it.

    The optimizer's Hadamard-layer row reads a fragment's column 0 by this
    closed form: its support, the entries weighing more than 1/(2n), and
    one common value there.
    """
    n = 2**q
    for mask in range(1, n):
        targets = [qubit for qubit in range(q) if mask & bit_value(qubit, q)]
        column = evolve_state(compile_hadamard_layer(targets, q), np.eye(1, n, dtype=complex)[0])
        inside = [v for v in range(n) if not v & ~mask]
        assert np.flatnonzero(np.abs(column) ** 2 > 1 / (2 * n)).tolist() == inside
        assert abs(abs(column[0]) - 2 ** (-len(targets) / 2)) < 1e-12
        assert np.abs(column[inside] - column[0]).max() < 1e-12


def test_layer_rejects_empty_targets():
    with pytest.raises(ValueError):
        compile_hadamard_layer([], 2)


# -- single gates against the dense reference ---------------------------------


LOCAL = {
    "X": X,
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]).astype(complex),
    "S": np.diag([1, 1j]),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]),
    "H": H,
}


def kron_gate_matrix(gate, n_qubits):
    """Whole-register matrix of one gate: a kron product, or CNOT's permutation."""
    if gate.kind == "CNOT":
        u = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
        for v in range(2**n_qubits):
            bits = [(v >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
            if bits[gate.control]:
                bits[gate.target] ^= 1
            u[int("".join(map(str, bits)), 2), v] = 1
        return u
    if gate.kind == "PHASE":
        local = np.diag([1, np.exp(1j * radians(gate.theta))])
    else:
        local = LOCAL["H" if gate.kind == "HLAYER" else gate.kind]
    acted = gate.targets if gate.kind == "HLAYER" else (gate.target,)
    return kron(*(local if q in acted else I2 for q in range(n_qubits)))


def random_gate(rng, n_qubits):
    kinds = ["X", "Y", "Z", "S", "T", "H", "PHASE", "HLAYER"] + (["CNOT"] if n_qubits > 1 else [])
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "CNOT":
        control, target = rng.choice(n_qubits, size=2, replace=False).tolist()
        return Gate("CNOT", control=control, target=target)
    if kind == "HLAYER":
        size = int(rng.integers(1, n_qubits + 1))
        return Gate("HLAYER", targets=tuple(rng.choice(n_qubits, size=size, replace=False).tolist()))
    target = int(rng.integers(n_qubits))
    if kind == "PHASE":
        return Gate("PHASE", target=target, theta=angle(int(rng.integers(0, 16)), 8))
    return Gate(kind, target=target)


@pytest.mark.parametrize("seed", range(15))
def test_circuit_unitary_matches_kron_products(seed):
    rng = np.random.default_rng(seed)
    n_qubits = int(rng.integers(1, 6))
    gates = [random_gate(rng, n_qubits) for _ in range(int(rng.integers(0, 9)))]
    expected = np.eye(2**n_qubits, dtype=complex)
    for gate in gates:
        expected = kron_gate_matrix(gate, n_qubits) @ expected
    assert np.abs(circuit_unitary(Circuit(n_qubits, tuple(gates))) - expected).max() < TOL


def test_gate_unitary_reference_values():
    assert np.array_equal(circuit_unitary(Circuit(2, (Gate("X", target=0),))), kron(X, I2))
    cnot01 = circuit_unitary(Circuit(2, (Gate("CNOT", control=0, target=1),)))
    assert np.array_equal(
        cnot01,
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    )
    cnot10 = circuit_unitary(Circuit(2, (Gate("CNOT", control=1, target=0),)))
    assert np.array_equal(
        cnot10,
        np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),
    )
    t = circuit_unitary(Circuit(2, (Gate("T", target=1),)))
    assert np.allclose(np.diag(t), [1, np.exp(1j * np.pi / 4), 1, np.exp(1j * np.pi / 4)])


@pytest.mark.parametrize("kind", ["X", "Y", "Z", "S", "T"])
@pytest.mark.parametrize("target, n_qubits", [(0, 1), (0, 2), (1, 2), (2, 3)])
def test_catalog_gates_compile_exactly(kind, target, n_qubits):
    gate = Gate(kind, target=target)
    compiled = total_unitary(compile_circuit(Circuit(n_qubits, (gate,))))
    assert np.abs(compiled - circuit_unitary(Circuit(n_qubits, (gate,)))).max() < 1e-11


@pytest.mark.parametrize("control, target", [(0, 1), (1, 0), (0, 2), (2, 0)])
def test_cnot_compiles_exactly(control, target):
    gate = Gate("CNOT", control=control, target=target)
    compiled = total_unitary(compile_circuit(Circuit(3, (gate,))))
    assert np.abs(compiled - circuit_unitary(Circuit(3, (gate,)))).max() < 1e-11


@pytest.mark.parametrize("num, den", [(1, 4), (1, 1), (3, 2), (7, 4)])
def test_phase_gate_compiles_exactly(num, den):
    gate = Gate("PHASE", target=1, theta=angle(num, den))
    compiled = total_unitary(compile_circuit(Circuit(2, (gate,))))
    assert np.abs(compiled - circuit_unitary(Circuit(2, (gate,)))).max() < 1e-11


def test_phase_zero_compiles_to_nothing():
    walk = compile_circuit(Circuit(2, (Gate("PHASE", target=0, theta=angle(0)),)))
    assert walk.graph_count == 0


def test_h_compiles_to_minus_h():
    gate = Gate("H", target=1)
    compiled = total_unitary(compile_circuit(Circuit(2, (gate,))))
    reference = circuit_unitary(Circuit(2, (gate,)))
    assert np.abs(compiled + reference).max() < 1e-11
    assert phase_distance(compiled, reference) < 1e-11


def test_hlayer_compiles_exactly():
    gate = Gate("HLAYER", targets=(0, 2))
    compiled = total_unitary(compile_circuit(Circuit(3, (gate,))))
    assert np.abs(compiled - circuit_unitary(Circuit(3, (gate,)))).max() < 1e-11


def xor_matching(n, mask, control=0):
    """The matching on (v, v XOR mask) for the v with every control bit set, from a set comprehension."""
    return Graph.make(n, {(v, v ^ mask) for v in range(n) if v & control == control and v < v ^ mask})


def reference_steps(gate, n_qubits):
    """A gate's compiled steps, rebuilt from edge and loop comprehensions."""
    n = 2**n_qubits
    if gate.kind in ("H", "HLAYER"):
        masks = [bit_value(q, n_qubits) for q in sorted(gate.targets or (gate.target,))]
        k, union = len(masks), sum(masks)
        # beta and the staircase phases in halves of pi
        beta = k if k < 3 else 0
        stair = _staircase({v: (beta - (v & union).bit_count()) % 4 for v in range(n)}, 2, n)
        edges = {(v, v ^ m) for m in masks for v in range(n) if v < v ^ m}
        return stair + (TimedGraph(Graph.make(n, edges), angle(k, 4)),) + stair
    mask = bit_value(gate.target, n_qubits)
    bit_set = Graph.make(n, loops=(v for v in range(n) if v & mask))
    if gate.kind == "X":
        every_vertex = Graph.make(n, loops=range(n))
        return (TimedGraph(xor_matching(n, mask), angle(1, 2)), TimedGraph(every_vertex, angle(3, 2)))
    if gate.kind == "Y":
        return (TimedGraph(xor_matching(n, mask), angle(1, 2)), TimedGraph(bit_set, angle(1)))
    if gate.kind == "CNOT":
        control = bit_value(gate.control, n_qubits)
        controlled = Graph.make(n, loops=(v for v in range(n) if v & control))
        return (TimedGraph(xor_matching(n, mask, control), angle(1, 2)), TimedGraph(controlled, angle(3, 2)))
    if gate.kind == "PHASE":
        return (TimedGraph(bit_set, 2 - gate.theta),) if gate.theta else ()
    return (TimedGraph(bit_set, {"Z": angle(1), "S": angle(3, 2), "T": angle(7, 4)}[gate.kind]),)


def gates_of_kind(kind, n_qubits):
    qubits = range(n_qubits)
    if kind == "HLAYER":
        return [Gate(kind, targets=t) for k in qubits for t in itertools.combinations(qubits, k + 1)]
    if kind == "CNOT":
        return [Gate(kind, control=c, target=t) for c in qubits for t in qubits if c != t]
    if kind == "PHASE":
        thetas = (angle(0), angle(1, 4), angle(1), angle(7, 4))
        return [Gate(kind, target=t, theta=theta) for t in qubits for theta in thetas]
    return [Gate(kind, target=t) for t in qubits]


@pytest.mark.parametrize("n_qubits", range(1, 7))
@pytest.mark.parametrize("kind", GATE_KINDS)
def test_compiled_gates_hold_the_comprehensions_graphs(kind, n_qubits):
    gates = gates_of_kind(kind, n_qubits)
    assert gates or (kind, n_qubits) == ("CNOT", 1)
    for gate in gates:
        assert compile_circuit(Circuit(n_qubits, (gate,))).steps == reference_steps(gate, n_qubits)


# -- whole circuits ------------------------------------------------------------


def test_compile_circuit_orders_later_gates_left():
    circuit = Circuit(1, (Gate("X", target=0), Gate("S", target=0)))
    compiled = total_unitary(compile_circuit(circuit))
    s = circuit_unitary(Circuit(1, (Gate("S", target=0),)))
    x = circuit_unitary(Circuit(1, (Gate("X", target=0),)))
    assert np.abs(compiled - s @ x).max() < 1e-11
    assert np.abs(compiled - x @ s).max() > 0.5


def h_gates(*targets):
    return tuple(Gate("H", target=q) for q in targets)


def test_parallel_hadamards_fuses_adjacent_runs():
    fused = compile_circuit(Circuit(2, h_gates(0, 1)), parallel_hadamards=True)
    assert fused.graph_count == 5
    plain = compile_circuit(Circuit(2, h_gates(0, 1)))
    assert plain.graph_count == 6
    assert phase_distance(total_unitary(fused), total_unitary(plain)) < 1e-11


def test_parallel_hadamards_run_breaks_on_repeat_target():
    walk = compile_circuit(Circuit(2, h_gates(0, 1, 0)), parallel_hadamards=True)
    assert walk.graph_count == 8
    walk = compile_circuit(Circuit(2, h_gates(0, 0)), parallel_hadamards=True)
    assert walk.graph_count == 6


def test_parallel_hadamards_run_breaks_on_other_gate():
    gates = (Gate("H", target=0), Gate("X", target=1), Gate("H", target=1))
    walk = compile_circuit(Circuit(2, gates), parallel_hadamards=True)
    assert walk.graph_count == 8
    reference = circuit_unitary(Circuit(2, gates))
    assert phase_distance(total_unitary(walk), reference) < 1e-11


@pytest.mark.parametrize(
    "gates, layers",
    [
        pytest.param(
            (Gate("H", target=0), Gate("HLAYER", targets=(1,)), Gate("H", target=2)),
            [(0,), (1,), (2,)],
            id="H-HLAYER-H",
        ),
        pytest.param(
            (Gate("HLAYER", targets=(0, 1)), Gate("H", target=2), Gate("H", target=3)),
            [(0, 1), (2, 3)],
            id="HLAYER-H-H",
        ),
    ],
)
def test_parallel_hadamards_run_breaks_on_hlayer(gates, layers):
    circuit = Circuit(4, gates)
    walk = compile_circuit(circuit, parallel_hadamards=True)
    expected = tuple(step for targets in layers for step in compile_hadamard_layer(targets, 4).steps)
    assert walk.steps == expected
    assert phase_distance(total_unitary(walk), circuit_unitary(circuit)) < 1e-11


def random_circuit(rng, n_qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["X", "Y", "Z", "S", "T", "H", "PHASE", "CNOT"])
        target = int(rng.integers(n_qubits))
        if kind == "CNOT" and n_qubits > 1:
            control = int(rng.integers(n_qubits))
            while control == target:
                control = int(rng.integers(n_qubits))
            gates.append(Gate("CNOT", control=control, target=target))
        elif kind == "PHASE":
            gates.append(Gate("PHASE", target=target, theta=angle(int(rng.integers(8)), 4)))
        elif kind != "CNOT":
            gates.append(Gate(kind, target=target))
    return Circuit(n_qubits, tuple(gates))


@pytest.mark.parametrize("seed", range(6))
def test_random_circuits_match_reference_up_to_phase(seed):
    rng = np.random.default_rng(1000 + seed)
    circuit = random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(3, 8)))
    reference = circuit_unitary(circuit)
    for flag in (False, True):
        compiled = total_unitary(compile_circuit(circuit, parallel_hadamards=flag))
        assert phase_distance(compiled, reference) < 1e-9


# -- gates applied in place, and the compile check -------------------------------


def every_gate(n_qubits):
    """Each gate kind on each qubit, CNOT in both control orders, and a few layers."""
    qubits = range(n_qubits)
    gates = [Gate(kind, target=q) for kind in ("X", "Y", "Z", "S", "T", "H") for q in qubits]
    gates += [Gate("PHASE", target=q, theta=angle(k, 8)) for q in qubits for k in (0, 3, 13)]
    gates += [Gate("CNOT", control=c, target=t) for c in qubits for t in qubits if c != t]
    gates += [Gate("HLAYER", targets=tuple(qubits)), Gate("HLAYER", targets=tuple(qubits)[::-2])]
    return gates


@pytest.mark.parametrize("n_qubits", range(1, 6))
def test_gate_then_its_adjoint_in_place_gives_the_rows_back(n_qubits):
    rng = np.random.default_rng(n_qubits)
    shape = (2**n_qubits, 3)
    original = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for gate in every_gate(n_qubits):
        matrix = kron_gate_matrix(gate, n_qubits)
        rows = original.copy()
        _apply_gate(gate, n_qubits, rows)
        assert np.abs(rows - matrix @ original).max() < 1e-14
        _apply_gate(gate, n_qubits, rows, adjoint=True)
        assert np.abs(rows - original).max() < 1e-14
        _apply_gate(gate, n_qubits, rows, adjoint=True)
        assert np.abs(rows - matrix.conj().T @ original).max() < 1e-14


def check_distance(circuit, walk):
    """What ``compile`` gates on: the circuit undone in place on the walk's laid-out unitary."""
    return circuit_distance(circuit, laid_out_unitary(walk, mixing_pairs(circuit)))


def drawn_circuit(rng, low, high, gate_counts):
    n_qubits = int(rng.integers(low, high))
    return Circuit(n_qubits, tuple(random_gate(rng, n_qubits) for _ in range(int(rng.integers(*gate_counts)))))


def test_the_check_equals_the_phase_distance_to_the_reference():
    # 1-5 qubits lay the product out as n x n, 7-8 qubits over the union's components
    rng = np.random.default_rng(2020)
    narrow = 0
    for low, high, count in ((1, 6, 200), (7, 9, 40)):
        for _ in range(count):
            circuit = drawn_circuit(rng, low, high, (0, 9))
            for parallel in (False, True) if low > 1 else (bool(rng.integers(2)),):
                walk = compile_circuit(circuit, parallel_hadamards=parallel)
                expected = phase_distance(total_unitary(walk), circuit_unitary(circuit))
                assert abs(check_distance(circuit, walk) - expected) < 1e-13
                width = sum(identity.shape[1] for identity, _ in laid_out_unitary(walk, mixing_pairs(circuit)))
                narrow += width < walk.n_vertices
    assert narrow >= 40


def test_the_check_refuses_a_walk_missing_its_last_gate():
    # at 7-8 qubits the union holds the missing gate's pairs only through mixing_pairs
    rng = np.random.default_rng(2021)
    for low, high, count in ((1, 5, 60), (7, 9, 30)):
        for _ in range(count):
            circuit = drawn_circuit(rng, low, high, (1, 6))
            last = circuit.gates[-1]
            if last.kind == "PHASE" and last.theta == 0:
                continue  # the identity: nothing is missing
            assert check_distance(circuit, compile_circuit(circuit)) < VERIFY_TOLERANCE
            shortened = compile_circuit(Circuit(circuit.n_qubits, circuit.gates[:-1]))
            assert check_distance(circuit, shortened) >= VERIFY_TOLERANCE


def test_the_check_joins_the_pairs_a_missing_gate_mixes():
    circuit = Circuit(8, (Gate("X", target=0),))
    ((identity, product),) = laid_out_unitary(DynamicGraph(256, ()), mixing_pairs(circuit))
    assert product.shape == (256, 2)
    assert np.array_equal(identity, np.eye(2)[np.arange(256) >> 7])
    assert circuit_distance(circuit, [(identity, product)]) == 1.0


def test_mixing_pairs_follow_the_gates():
    circuit = Circuit(
        3,
        (
            Gate("Z", target=0),
            Gate("X", target=2),
            Gate("CNOT", control=0, target=1),
            Gate("HLAYER", targets=(1, 2)),
            Gate("PHASE", target=1, theta=angle(1, 4)),
        ),
    )
    pairs = [array.tolist() for array in mixing_pairs(circuit)]
    assert pairs == [
        [[0, 1], [2, 3], [4, 5], [6, 7]],
        [[4, 6], [5, 7]],
        [[0, 2], [1, 3], [4, 6], [5, 7]],
    ]
    assert mixing_pairs(Circuit(2, (Gate("T", target=0), Gate("S", target=1)))) == []

    def numpy_pairs(n, keys):
        """Each (control, mask)'s pairs from a numpy mask over all vertices and a stack."""
        vertices = np.arange(n)
        heads = [vertices[(vertices & (control | mask)) == control] for control, mask in keys]
        return [np.stack((h, h | mask), axis=1) for h, (_, mask) in zip(heads, keys)]

    wide = Circuit(
        6,
        (
            Gate("CNOT", control=5, target=0),
            Gate("H", target=3),
            Gate("T", target=2),
            Gate("Y", target=5),
            Gate("CNOT", control=0, target=5),
            Gate("HLAYER", targets=(4, 3, 1)),
            Gate("X", target=5),
            Gate("CNOT", control=5, target=0),
        ),
    )
    def listed_pairs(n, keys):
        """Each (control, mask)'s pairs as np.array of a list of (v, v ^ mask) tuples."""
        return [
            np.array([(v, v ^ mask) for v in range(n) if v & control == control and v < v ^ mask])
            for control, mask in keys
        ]

    cases = [
        (circuit, [(0, 1), (4, 2), (0, 2)], numpy_pairs),
        (wide, [(1, 32), (0, 4), (0, 1), (32, 1), (0, 2), (0, 16)], numpy_pairs),
    ]
    # every X, Y, H and HLAYER mask and every CNOT control and target at 1-8 qubits
    for q in range(1, 9):
        masks = [bit_value(t, q) for t in range(q)]
        flips = [(0, mask) for mask in masks]
        for kind in ("X", "Y", "H"):
            cases.append((Circuit(q, tuple(Gate(kind, target=t) for t in range(q))), flips, listed_pairs))
        cases.append((Circuit(q, (Gate("HLAYER", targets=tuple(range(q))),)), flips, listed_pairs))
        controlled = [(c, t) for c in range(q) for t in range(q) if c != t]
        cnots = tuple(Gate("CNOT", control=c, target=t) for c, t in controlled)
        cases.append((Circuit(q, cnots), [(masks[c], masks[t]) for c, t in controlled], listed_pairs))
    for case, keys, reference_pairs in cases:
        expected = reference_pairs(case.n_vertices, keys)
        got = mixing_pairs(case)
        assert len(got) == len(expected)
        for array, reference in zip(got, expected):
            assert array.dtype == reference.dtype
            assert array.shape == reference.shape
            assert np.array_equal(array, reference)


def test_gates_refuse_rows_that_are_not_c_contiguous():
    gate = Gate("H", target=0)
    for rows in (np.eye(4, dtype=complex)[:, ::2], np.asfortranarray(np.arange(16.0).reshape(4, 4) + 0j)):
        before = rows.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            _apply_gate(gate, 2, rows)
        assert np.array_equal(rows, before)
    with pytest.raises(ValueError, match="C-contiguous"):
        circuit_distance(Circuit(2, (gate,)), [(np.eye(4), np.eye(4, dtype=complex)[:, ::-1])])


def test_circuit_distance_reads_the_trace():
    flip = Circuit(1, (Gate("X", target=0),))
    x = circuit_unitary(flip)
    assert circuit_distance(flip, [(np.eye(2), 1j * x)]) == 0.0
    assert circuit_distance(Circuit(1, ()), [(np.eye(2), x)]) == 1.0
    assert circuit_distance(Circuit(2, ()), [(np.eye(4), -1j * np.eye(4))]) == 0.0


def test_undo_circuit_refuses_a_product_of_the_wrong_size():
    flip = Circuit(2, (Gate("X", target=0),))
    for product in (np.eye(8, dtype=complex), np.eye(4, dtype=complex)[:2], np.ones(4, dtype=complex)):
        before = product.copy()
        with pytest.raises(ValueError, match="expected"):
            circuit_distance(flip, [(np.eye(4), product)])
        assert np.array_equal(product, before)


def test_the_width_ladder_script_runs_its_smallest_rungs(capsys):
    """tests/width_ladder.py still runs against mixing_pairs and the package's caches."""
    import width_ladder

    width_ladder.main(["3"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert "6 graphs at 3π" in lines[1]
    width_ladder.main(["--check-only", "4"])
    check_lines = capsys.readouterr().out.splitlines()
    assert len(check_lines) == 4
    distances = re.findall(r"phase distance ([^,;\s]+)", "\n".join(lines + check_lines))
    assert len(distances) == 7
    assert all(float(distance) < 1e-9 for distance in distances)


def test_the_compile_check_allocates_less_than_one_unitary():
    # a dense check holds W, n x n, plus a half-size temporary; the H+CNOT layout is n x 8, and
    # a connected union, one H per qubit, is n x n in blocks of at most BLOCK_ENTRIES entries
    gates = (Gate("H", target=0), Gate("CNOT", control=0, target=1), Gate("X", target=2), Gate("T", target=1))
    circuits = [Circuit(n_qubits, gates) for n_qubits in (10, 12)]
    circuits.append(Circuit(11, tuple(Gate("H", target=q) for q in range(11))))
    for circuit in circuits:
        n_qubits = circuit.n_qubits
        walk = compile_circuit(circuit)
        tracemalloc.start()
        try:
            distance = check_distance(circuit, walk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert distance < VERIFY_TOLERANCE
        assert peak < 16 * 4**n_qubits


# -- circuit JSON ---------------------------------------------------------------


GOOD_CIRCUIT = {
    "n_qubits": 3,
    "gates": [
        {"kind": "H", "target": 0},
        {"kind": "CNOT", "control": 0, "target": 1},
        {"kind": "PHASE", "target": 2, "theta": {"pi_num": 1, "pi_den": 4}},
        {"kind": "HLAYER", "targets": [1, 2]},
    ],
}


def test_parse_circuit_good():
    circuit = parse_circuit(json.dumps(GOOD_CIRCUIT))
    assert circuit.n_qubits == 3
    assert [g.kind for g in circuit.gates] == ["H", "CNOT", "PHASE", "HLAYER"]
    assert circuit.gates[2].theta == angle(1, 4)
    assert circuit.gates[3].targets == (1, 2)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(n_qubits=0), "n_qubits"),
        (lambda d: d.update(n_qubits=True), "n_qubits"),
        (lambda d: d.pop("gates"), "missing field"),
        (lambda d: d.update(junk=1), "unknown field"),
        (lambda d: d.update(gates={}), "expected a list"),
        (lambda d: d["gates"][0].update(kind="ROTATE"), "gates[0].kind"),
        (lambda d: d["gates"][0].pop("target"), "missing field"),
        (lambda d: d["gates"][0].update(target=5), "out of range"),
        (lambda d: d["gates"][0].update(target=True), "gates[0].target"),
        (lambda d: d["gates"][0].update(control=1), "unknown field"),
        (lambda d: d["gates"][1].update(control=1), "gates[1]"),
        (lambda d: d["gates"][2].update(theta={"pi_num": 9, "pi_den": 4}), "gates[2]"),
        (lambda d: d["gates"][2].update(theta={"pi_num": 1}), "missing field"),
        (lambda d: d["gates"][3].update(targets=[]), "nonempty"),
        (lambda d: d["gates"][3].update(targets=[1, 1]), "duplicate"),
        (lambda d: d["gates"][3].update(targets=[1, 9]), "targets[1]"),
        (lambda d: d["gates"].__setitem__(1, "CNOT"), "gates[1]: expected a gate object"),
    ],
)
def test_parse_circuit_errors(mutate, fragment):
    doc = json.loads(json.dumps(GOOD_CIRCUIT))
    mutate(doc)
    with pytest.raises(ParseError) as err:
        parse_circuit(json.dumps(doc))
    assert fragment in str(err.value)


def test_parse_circuit_refuses_qubit_counts_above_the_ceiling():
    # 2^40 basis states would never fit; the declared count alone is refused
    with pytest.raises(ParseError, match=r"n_qubits: must be at most 12"):
        parse_circuit(json.dumps({"n_qubits": 40, "gates": []}))
    with pytest.raises(ParseError, match="n_qubits"):
        parse_circuit(json.dumps({"n_qubits": MAX_QUBITS + 1, "gates": [{"kind": "X", "target": 0}]}))
    assert parse_circuit(json.dumps({"n_qubits": MAX_QUBITS, "gates": []})).n_qubits == MAX_QUBITS


def test_parse_circuit_rejects_bad_json_and_shape():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_circuit("nope{")
    with pytest.raises(ParseError, match="top-level"):
        parse_circuit("[]")
