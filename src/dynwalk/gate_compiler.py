"""Compiling qubit circuits into walk programs.

Every gate in the catalog becomes a short sequence of timed graphs on the
2^n basis-state vertices, exact up to (at most) a global phase:

* bit flips ride matchings built by one pair builder, which pairs each v
  holding every control bit with v XOR mask: a quarter period on the pairs
  gives -i X_mask on them, and loops on the same control-set vertices for
  3pi/2 pay the -i back. X is CNOT without a control bit, so its matching
  is perfect and its loops cover every vertex. Y keeps X's matching and
  pays with loops on the target-set half for pi instead, which leaves Y
  with no phase;
* diagonal gates ride loop sets, built by one loop-set builder for every
  vertex holding some bits: loops on the bit-set vertices for duration d
  multiply them by exp(-i d), so a phase of exp(i theta) costs 2pi - theta;
* Hadamards ride a sub-hypercube walk, the pair builder's matchings for
  each target bit, between two identical loop staircases. The staircase
  phases depend only on the Hamming weight on the target bits, and the
  bracket equals H on each target qubit exactly, times the global phase
  exp(-2i beta). ``compile_circuit(parallel_hadamards=True)`` compiles a
  run of adjacent H gates on distinct qubits as the layer on its targets,
  as it compiles an HLAYER gate.

Each gate kind takes the fields ``_GATE_FIELDS`` lists, and only those:
``Gate`` refuses a missing one and any other, and the parser reads them in
the table's order.

Qubit 0 is the leftmost wire, i.e. the most significant bit of a vertex
index. Composition order matches program order: later gates multiply on
the left. The reference side updates one array in place, a gate at a time
on views of its qubit axis, so a gate costs O(4^n) and at most a half-size
temporary, never a dense 2^n x 2^n product or a fresh array:
``circuit_unitary`` applies the gates to the identity, and
``circuit_distance`` applies their adjoints, last gate first, to a given
product and reads the phase distance off the trace of C^dag times it.
That is the package's one check of a product against gates. ``compile``
forms C^dag W block by block in ``walk_engine``'s layout of the walk's
unitary W over the union of the walk's graphs and the gates'
``mixing_pairs``: every gate then maps a row to rows of the same
component, so the undo runs on each block's rows as on the dense
product. The optimizer's Hadamard-layer verdict undoes a one-gate HLAYER
circuit on a copy of the later of a fragment's two prefix products and
reads the trace against the earlier one, one block. ``parse_circuit``
reads its document's prologue with the walk parser's
(``graph_model._document``), so both formats refuse the same defects
with the same messages; it refuses more than ``MAX_QUBITS`` qubits, the
walk vertex ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from .graph_model import (
    MAX_VERTICES,
    DynamicGraph,
    Graph,
    ParseError,
    TimedGraph,
    _document,
    _expect_int,
    _expect_keys,
    _fail,
    _parse_time,
    radians,
)
from .numerics import overlap_distance

__all__ = [
    "GATE_KINDS",
    "MAX_QUBITS",
    "Gate",
    "Circuit",
    "bit_value",
    "compile_hadamard_layer",
    "compile_circuit",
    "circuit_unitary",
    "mixing_pairs",
    "circuit_distance",
    "parse_circuit",
]

# The fields each gate kind takes, in the order the parser reads them; a
# gate leaves every other field None.
_GATE_FIELDS = {
    "X": ("target",),
    "Y": ("target",),
    "Z": ("target",),
    "S": ("target",),
    "T": ("target",),
    "PHASE": ("target", "theta"),
    "H": ("target",),
    "CNOT": ("control", "target"),
    "HLAYER": ("targets",),
}
GATE_KINDS = tuple(_GATE_FIELDS)
# what a gate of a kind that takes the field must be given
_FIELD_NEEDS = {"target": "a target qubit", "control": "a control qubit", "theta": "a theta angle",
                "targets": "a nonempty targets tuple"}

# a circuit on n qubits compiles to a walk on 2^n vertices
MAX_QUBITS = MAX_VERTICES.bit_length() - 1

# loop durations of the diagonal gates, as (numerator, denominator) of pi:
# loops for d multiply by exp(-i d)
_LOOP_PHASES = {"Z": (1, 1), "S": (3, 2), "T": (7, 4)}


@dataclass(frozen=True)
class Gate:
    """One circuit element: a kind and the fields that kind takes.

    ``_GATE_FIELDS`` lists them: ``target`` for X, Y, Z, S, T and H,
    ``target`` and ``theta`` for PHASE, ``control`` and ``target`` for
    CNOT, and ``targets`` for HLAYER. Each must be given, and every other
    field must be None. ``targets`` is kept as a tuple, whatever sequence
    it is given as.
    """

    kind: str
    target: Optional[int] = None
    control: Optional[int] = None
    # a multiple of pi in [0, 2), for PHASE
    theta: Optional[Fraction] = None
    targets: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.targets is not None:
            object.__setattr__(self, "targets", tuple(self.targets))
        for field, needs in _FIELD_NEEDS.items():
            value = getattr(self, field)
            if field not in _GATE_FIELDS[self.kind]:
                if value is not None:
                    raise ValueError(f"{self.kind} takes no {field}")
            elif value is None or field == "targets" and not value:
                raise ValueError(f"{self.kind} needs {needs}")
        qubits = _gate_qubits(self)
        for qubit in qubits:
            if type(qubit) is not int:
                raise TypeError(f"qubit index must be an int, got {qubit!r}")
        if len(set(qubits)) != len(qubits):
            raise ValueError("CNOT control and target must differ" if self.kind == "CNOT" else "HLAYER targets must be distinct")
        if self.theta is not None:
            if not isinstance(self.theta, Fraction):
                raise TypeError(f"theta must be a Fraction multiple of pi, got {self.theta!r}")
            if not 0 <= self.theta < 2:
                raise ValueError("PHASE theta must lie in [0, 2pi)")


@dataclass(frozen=True)
class Circuit:
    """A gate list on a fixed number of qubits."""

    n_qubits: int
    gates: Tuple[Gate, ...]

    def __post_init__(self) -> None:
        if type(self.n_qubits) is not int:
            raise TypeError(f"qubit count must be an int, got {self.n_qubits!r}")
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for index, gate in enumerate(self.gates):
            for q in _gate_qubits(gate):
                if not (0 <= q < self.n_qubits):
                    raise ValueError(f"gate {index} touches qubit {q}, out of range")

    @property
    def n_vertices(self) -> int:
        return 2 ** self.n_qubits


def _gate_qubits(gate: Gate) -> Tuple[int, ...]:
    """The qubits the gate touches: its targets, else its control and target, else its target."""
    if gate.targets is not None:
        return gate.targets
    if gate.control is not None:
        return (gate.control, gate.target)  # type: ignore[return-value]
    return (gate.target,)  # type: ignore[return-value]


def bit_value(qubit: int, n_qubits: int) -> int:
    """Bitmask of one qubit in a vertex index; qubit 0 is the leftmost."""
    if not (0 <= qubit < n_qubits):
        raise ValueError(f"qubit {qubit} out of range for {n_qubits} qubits")
    return 1 << (n_qubits - 1 - qubit)


def _pairs(n_vertices: int, mask: int, control: int = 0) -> np.ndarray:
    """The pairs (v, v XOR mask) of the v holding every control bit and lacking the mask's top bit, as a (b, 2) array.

    Lacking that bit is what makes v the smaller vertex of its pair. One
    mask test over ``np.arange`` picks the smaller vertices, in ascending
    order, and each row is (v, v XOR mask).
    """
    heads = control | (1 << (mask.bit_length() - 1))
    vertices = np.arange(n_vertices)
    smaller = vertices[(vertices & heads) == control]
    return np.stack((smaller, smaller ^ mask), axis=1)


def _matching(n_vertices: int, pairs: np.ndarray) -> Graph:
    """The graph whose edges are the rows of a (b, 2) array from ``_pairs``."""
    return Graph._of(n_vertices, frozenset(zip(*pairs.T.tolist())))


def _loops(n_vertices: int, bits: int) -> Graph:
    """Loops on every vertex holding all of ``bits``; every vertex for 0."""
    vertices = np.arange(n_vertices)
    return Graph._of(n_vertices, loops=frozenset(vertices[(vertices & bits) == bits].tolist()))


def _staircase(turns: Mapping[int, int], den: int, n_vertices: int) -> Tuple[TimedGraph, ...]:
    """Loop staircase applying exp(-i turns[v]/den pi) to each vertex v, each turns[v] an integer in [0, 2 den).

    Emits one loop graph per distinct nonzero phase, nested by threshold in
    descending order, so the total time equals the largest phase. That is
    optimal: every vertex holding the maximum phase must sit in loop graphs
    for at least that long. The Hadamard layers, the phased-permutation
    folds, the loops-only runs and the optimizer's landings of a phase on a
    loops-only step all build theirs here, and each reduces its turns
    modulo 2 den over vertices of its walk just before the call, so the
    builder checks neither.
    """
    at_level: Dict[int, List[int]] = {}
    for vertex, turn in turns.items():
        at_level.setdefault(turn, []).append(vertex)
    thresholds = sorted(filter(None, at_level), reverse=True)
    steps = []
    loops: Set[int] = set()
    for level, lower in zip(thresholds, thresholds[1:] + [0]):
        # the loops at this level are the vertices whose phase reaches it
        loops.update(at_level[level])
        steps.append(TimedGraph.of(Graph._of(n_vertices, loops=frozenset(loops)), level - lower, den))
    return tuple(steps)


def compile_hadamard_layer(targets: Iterable[int], n_qubits: int) -> DynamicGraph:
    """Walk program equal to H on each target qubit, up to a global phase.

    Structure: staircase, sub-hypercube walk, identical staircase. The walk
    runs on the edges flipping any single target bit for time k*pi/4 (k
    targets, spectral norm k), giving ((I - iX)/sqrt(2)) per target. The
    staircases supply the diagonal conjugation diag(1, i) per target qubit
    plus the bracket phase: per-vertex phase (beta - h(v) pi/2) mod 2pi,
    where h counts set target bits. The result is exp(-2i beta) H on the
    targets, exactly. Beta is the quarter-turn multiple with the lowest
    staircase, the smaller one on a tie, computed directly; the k + 1
    staircase phases are computed once per Hamming weight, in halves of
    pi, and ``_staircase`` builds the staircase from them.
    """
    masks = [bit_value(q, n_qubits) for q in sorted(set(targets))]
    if not masks:
        raise ValueError("need at least one target qubit")
    n = 2 ** n_qubits
    union = sum(masks)
    k = len(masks)
    # The phases (beta - h/2) mod 2 for h = 0..k are k + 1 consecutive
    # multiples of 1/2 (of pi), so the highest is at least k/2, which
    # beta = k/2 reaches for k < 3. From k = 3 on they take all four values
    # 0, 1/2, 1 and 3/2 whatever beta is, so every beta reaches 3/2 and the
    # smallest, 0, wins the tie. Beta and the phases are counted in halves.
    beta = k if k < 3 else 0
    level = [(beta - h) % 4 for h in range(k + 1)]
    stair = _staircase({v: level[(v & union).bit_count()] for v in range(n)}, 2, n)

    walk = TimedGraph.of(_matching(n, np.concatenate([_pairs(n, mask) for mask in masks])), k, 4)
    return DynamicGraph(n, stair + (walk,) + stair)


def _gate_steps(gate: Gate, n_qubits: int) -> Tuple[TimedGraph, ...]:
    if gate.kind in ("H", "HLAYER"):
        return compile_hadamard_layer(_gate_qubits(gate), n_qubits).steps
    n = 2 ** n_qubits
    mask = bit_value(gate.target, n_qubits)  # type: ignore[arg-type]
    if gate.kind in ("X", "Y", "CNOT"):
        control = 0 if gate.control is None else bit_value(gate.control, n_qubits)
        matching = TimedGraph.of(_matching(n, _pairs(n, mask, control)), 1, 2)
        if gate.kind == "Y":
            # loops pi after the matching: diag(1,-1) . (-i X) = Y with no phase
            return (matching, TimedGraph.of(_loops(n, mask), 1))
        # X is CNOT with no control bit: -i X on the control-set pairs, then
        # loops on the same vertices for 3pi/2 retire the -i
        return (matching, TimedGraph.of(_loops(n, control), 3, 2))
    if gate.kind == "PHASE":
        theta = gate.theta
        if theta == 0:
            return ()
        # theta lies in (0, 2), so 2 - theta needs no reduction
        num, den = theta.numerator, theta.denominator  # type: ignore[union-attr]
        return (TimedGraph.of(_loops(n, mask), 2 * den - num, den),)
    return (TimedGraph.of(_loops(n, mask), *_LOOP_PHASES[gate.kind]),)


def compile_circuit(circuit: Circuit, parallel_hadamards: bool = False) -> DynamicGraph:
    """Concatenate gate programs in circuit order, each exact up to a documented global phase.

    X, Y, Z, S, T, PHASE and CNOT compile with global phase 1. H and HLAYER
    compile to exp(-2i beta) times the gate (a single H comes out as -H).
    Each maximal run of adjacent H gates on distinct qubits compiles as the
    Hadamard layer on its targets (``compile_hadamard_layer``), one
    sub-hypercube walk instead of one walk per qubit, at that layer's
    phase; without ``parallel_hadamards`` every run is one H. An explicit
    HLAYER never joins a run. Every other gate compiles on its own.
    """
    steps: List[TimedGraph] = []
    run: List[int] = []
    for gate, following in zip(circuit.gates, circuit.gates[1:] + (None,)):
        if gate.kind != "H":
            steps.extend(_gate_steps(gate, circuit.n_qubits))
            continue
        run.append(gate.target)  # type: ignore[arg-type]
        # the run ends before a gate that is no H or repeats one of its qubits
        if not (parallel_hadamards and following is not None and following.kind == "H" and following.target not in run):
            steps.extend(compile_hadamard_layer(run, circuit.n_qubits).steps)
            run = []
    return DynamicGraph(circuit.n_vertices, tuple(steps))


_SQRT_HALF = 1.0 / math.sqrt(2.0)
# the phase each diagonal gate puts on its qubit's bit-set half
_DIAGONAL_PHASES = {"Z": -1.0 + 0j, "S": 1j, "T": complex(np.exp(1j * math.pi / 4))}


def _apply_gate(gate: Gate, n_qubits: int, rows: np.ndarray, adjoint: bool = False) -> None:
    """Multiply ``rows`` (2^n x m, C-contiguous) in place by the gate's unitary or its adjoint.

    The gate acts on the views ``rows.reshape(2^q, 2, -1)[:, 0]`` and
    ``[:, 1]`` of its qubit q: a diagonal gate scales the bit-set half, X
    swaps the halves, Y swaps them with -i and i, and H is a butterfly
    with one half-size temporary. CNOT swaps the two quarters with the
    control bit set. Only the diagonal gates differ from their adjoints.
    """
    if not rows.flags.c_contiguous:
        raise ValueError("rows must be C-contiguous to be updated in place")
    if gate.kind == "CNOT":
        low, high = sorted(_gate_qubits(gate))
        view = rows.reshape(2**low, 2, 2 ** (high - low - 1), 2, -1)
        if gate.control == low:
            _swap(view[:, 1, :, 0], view[:, 1, :, 1])
        else:
            _swap(view[:, 0, :, 1], view[:, 1, :, 1])
        return
    for qubit in _gate_qubits(gate):
        view = rows.reshape(2**qubit, 2, -1)  # type: ignore[operator]
        zero, one = view[:, 0], view[:, 1]
        if gate.kind == "X":
            _swap(zero, one)
        elif gate.kind == "Y":
            kept = zero.copy()
            np.multiply(one, -1j, out=zero)
            np.multiply(kept, 1j, out=one)
        elif gate.kind in ("H", "HLAYER"):
            kept = zero.copy()
            zero += one
            zero *= _SQRT_HALF
            np.subtract(kept, one, out=one)
            one *= _SQRT_HALF
        else:
            if gate.kind == "PHASE":
                phase = complex(np.exp(1j * radians(gate.theta)))  # type: ignore[arg-type]
            else:
                phase = _DIAGONAL_PHASES[gate.kind]
            one *= phase.conjugate() if adjoint else phase


def _swap(first: np.ndarray, second: np.ndarray) -> None:
    """Exchange two disjoint views of one array through one temporary.

    ``first[...] = second`` would copy ``second`` first, since the views
    share a buffer; a ufunc with ``out`` writes across them directly.
    """
    kept = first.copy()
    np.positive(second, out=first)
    np.positive(kept, out=second)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Reference dense unitary of the whole circuit, built gate by gate in one array.

    Public reference API: no package code calls it, since ``compile``
    checks through ``circuit_distance``; it is the oracle side that tests
    and users compare a walk's unitary with.
    """
    u = np.eye(circuit.n_vertices, dtype=np.complex128)
    for gate in circuit.gates:
        _apply_gate(gate, circuit.n_qubits, u)
    return u


def mixing_pairs(circuit: Circuit) -> List[np.ndarray]:
    """The vertex pairs (v, v XOR mask) that the circuit's gates mix, as (b, 2) arrays.

    X, Y and H mix every v with v XOR their qubit's mask, HLAYER does so
    for each target, CNOT only for the v with the control bit set, and the
    diagonal gates mix nothing. There is one integer array per distinct
    (control, mask), in order of first use: the compiler's pair builder's
    own array, each pair once, smaller vertex first, in ascending order of
    the smaller vertex. A product laid out over components that
    join these pairs stays in that layout under every gate of the circuit;
    see ``walk_engine.laid_out_unitary``.
    """
    n_qubits = circuit.n_qubits
    keys: Dict[Tuple[int, int], None] = {}
    for gate in circuit.gates:
        if gate.kind == "CNOT":
            keys[bit_value(gate.control, n_qubits), bit_value(gate.target, n_qubits)] = None  # type: ignore[arg-type]
        elif gate.kind in ("X", "Y", "H", "HLAYER"):
            for qubit in _gate_qubits(gate):
                keys[0, bit_value(qubit, n_qubits)] = None
    return [_pairs(circuit.n_vertices, mask, control) for control, mask in keys]


def circuit_distance(circuit: Circuit, blocks: Iterable[Tuple[np.ndarray, np.ndarray]]) -> float:
    """Phase distance of a product from the circuit's unitary C, undoing C in place.

    ``blocks`` yields (B, P) pairs of n x m blocks. Each gate acts on a
    block's rows as on a dense product's, so the gates' adjoints, last gate
    first, leave C^dag P in P's own array, which is overwritten, and
    tr(B^dag C^dag P) = tr(C^dag P B^dag) is ``np.vdot`` of B and it. The
    result is ``numerics.overlap_distance`` of the sum of those traces:
    for one pair, the phase distance of P B^dag from
    ``circuit_unitary(circuit)`` up to rounding, so a dense n x n product U
    is the one pair (I, U), and W_s W_i^dag, for unitaries W_i and W_s, the
    one pair (W_i, W_s), with no product formed. ``compile`` passes
    (identity, product) pairs: columns of the identity laid out over
    components that join the circuit's ``mixing_pairs``, and the same
    columns of the product laid out alike, as
    ``walk_engine.laid_out_unitary`` yields them, whose traces sum to
    tr(C^dag product).
    """
    n = circuit.n_vertices
    trace = 0
    for basis, product in blocks:
        if product.shape != basis.shape or len(product) != n:
            raise ValueError(f"product has shape {product.shape}, expected ({n}, {basis.shape[-1]})")
        for gate in reversed(circuit.gates):
            _apply_gate(gate, circuit.n_qubits, product, adjoint=True)
        trace += np.vdot(basis, product)
    return overlap_distance(trace, n)


def _parse_gate(obj: object, n_qubits: int, path: str) -> Gate:
    if not isinstance(obj, dict):
        _fail(path, "expected a gate object")
    kind = obj.get("kind")
    if kind not in GATE_KINDS:
        _fail(f"{path}.kind", f"expected one of {', '.join(GATE_KINDS)}, got {kind!r}")
    fields = _GATE_FIELDS[kind]
    _expect_keys(obj, ("kind",) + fields, path, "expected a gate object")

    def qubit(value: object, where: str) -> int:
        index = _expect_int(value, where)
        if not (0 <= index < n_qubits):
            _fail(where, f"qubit {index} out of range 0..{n_qubits - 1}")
        return index

    values: Dict[str, object] = {}
    for field in fields:
        raw, where = obj[field], f"{path}.{field}"
        if field == "theta":
            values[field] = Fraction(*_parse_time(raw, where))
        elif field == "targets":
            if not isinstance(raw, list) or not raw:
                _fail(where, "expected a nonempty list of qubits")
            seen: List[int] = []
            for k, value in enumerate(raw):
                target = qubit(value, f"{where}[{k}]")
                if target in seen:
                    _fail(f"{where}[{k}]", f"duplicate qubit {target}")
                seen.append(target)
            values[field] = tuple(seen)
        else:
            values[field] = qubit(raw, where)
    try:
        return Gate(kind, **values)  # type: ignore[arg-type]
    except ValueError as err:
        raise ParseError(f"{path}: {err}") from err


def parse_circuit(text: str) -> Circuit:
    """Parse circuit JSON, raising ParseError with a JSON path on defects."""
    n_qubits, raw_gates = _document(text, "n_qubits", MAX_QUBITS, "gates", "expected a list")
    gates = tuple(
        _parse_gate(obj, n_qubits, f"gates[{index}]") for index, obj in enumerate(raw_gates)
    )
    return Circuit(n_qubits, gates)
