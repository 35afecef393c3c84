"""Graphs, exact durations, and the dynamic-graph container.

A walk program is a finite sequence of undirected graphs (self-loops
allowed) on a fixed vertex set, each paired with a duration. Durations,
periods and gate angles are exact nonnegative multiples of pi. Inside the
package they are integers: a step holds its duration as ``pi_num`` over
``pi_den`` in lowest terms, and every period, price, residue and merge is
computed on such integer pairs, so the rewrite passes cancel full periods
and compare costs exactly without building a ``fractions.Fraction``. At the
package's edge they are ``Fraction``s: ``TimedGraph`` takes one,
``TimedGraph.duration``, ``DynamicGraph.total_time`` and ``period``
return one, and ``format_angle`` and ``radians`` read one.
``float(d)`` of such a ``d`` is the multiple of pi, not an angle;
``radians(d)`` converts when a unitary is actually evaluated and
``format_angle(d)`` prints ``3π/2``.

The JSON interchange format mirrors the in-memory model:

    {"n_vertices": 4,
     "sequence": [{"edges": [[0, 1]], "loops": [2], "time": {"pi_num": 1, "pi_den": 2}}]}

``parse_dynamic_graph`` accepts any JSON layout. It validates aggressively
and reports the JSON path of the offending element, since hand-edited walk
files are the normal input. It refuses more than ``MAX_VERTICES`` vertices
before building anything, since ``unitary`` and ``optimize`` hold n x n
unitaries, and durations that need more than ``MAX_TIME_DIGITS`` digits
over a common denominator, which no command could print.

A step's edge and loop lists are read in one pass of plain inline tests
per entry, which calls no function. The tests run in the order that names
a defect: for an edge, a pair, then two integers (the first bad one is
named), then distinct ends, then both in range, then new; for a loop, an
integer, in range, new. The first entry that fails raises, with its index
in the list as its path; a path is built for that entry only.

``serialize_dynamic_graph`` writes ``json.dumps(indent=2)``'s layout byte
for byte, from one ``%`` template per step rather than json's pure-Python
indenting encoder.

``spectrum`` is the one place a graph's eigenvalues come from. It splits
the graph into connected components from its edge list and hands each
stack of equal-size component blocks to numpy's batched ``eigh``, so no
n x n adjacency matrix is formed; the walk engine's step exponentials,
``period`` and the spectral norms all read it. A stack whose blocks are
all equal, such as a compiled X, CNOT or H step's matching or a Hadamard
layer's 2^(q-k) k-cubes, is decomposed once: its eigenvalue and
eigenvector arrays have leading dimension 1 and broadcast over the
stack's components. A graph without edges is not searched at all.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Graph",
    "TimedGraph",
    "DynamicGraph",
    "ParseError",
    "Spectrum",
    "MAX_VERTICES",
    "MAX_TIME_DIGITS",
    "radians",
    "format_angle",
    "spectrum",
    "components",
    "supports_disjoint",
    "period",
    "parse_dynamic_graph",
    "serialize_dynamic_graph",
]

# 2^12 basis states. Measured on a 2-vCPU x86 machine, 1 BLAS thread, on 12
# qubits. One H and one CNOT, whose union of graphs splits: compile 0.06 s and
# 37 MB, equiv 0.06 s and 40 MB, unitary --csv 7.2 s and 0.29 GB, unitary to
# stdout 7.0 s and 0.29 GB (both stream the rows), simulate 0.05 s and 35 MB.
# One H per qubit, whose union is connected: compile 5.7 s and 92 MB, equiv
# 6.6 s and 89 MB, unitary --csv 14.1 s and 0.33 GB, simulate 0.18 s and
# 45 MB. One HLAYER on every qubit: compile 35.6 s and 0.96 GB, equiv 46.7 s
# and 0.97 GB, simulate 22.0 s and 0.95 GB, mostly one eigh of the
# 4096-vertex cube and its dense exponential. The commands that hold dense
# n x n unitaries need four times the memory per extra qubit.
MAX_VERTICES = 4096

# The most digits the common denominator of a walk's durations, or its summed
# time over that denominator, may have. Every duration and total that
# ``stats`` and ``optimize`` print comes from the input durations through
# sums, differences, residues modulo a period and division by a spectral
# norm, with constants of denominator at most 64, so it has at most a few
# digits more than these: far under Python's 4,300-digit int-to-str limit,
# which a longer one would hit when printed.
MAX_TIME_DIGITS = 1000

# What ``_small_ratio`` (spectral norms, eigenvalue ratios) accepts as a small rational.
RATIONAL_DENOMINATOR_LIMIT = 16
RATIONAL_TOLERANCE = 1e-9


def radians(angle: Fraction) -> float:
    """The angle in radians, for a multiple of pi held as a Fraction."""
    return _radians(angle.numerator, angle.denominator)


def _radians(num: int, den: int) -> float:
    """The angle num/den pi in radians.

    A numerator or denominator beyond the float range (about 2^1024)
    overflows on conversion; the integers' true quotient then stands in,
    and raises OverflowError only when the angle itself is beyond that
    range.
    """
    try:
        return math.pi * num / den
    except OverflowError:
        return math.pi * (num / den)


def format_angle(angle: Fraction) -> str:
    """The multiple of pi as text: 0, π, π/4, 3π/2."""
    num, den = angle.numerator, angle.denominator
    if num == 0:
        return "0"
    head = "π" if num == 1 else f"{num}π"
    return head if den == 1 else f"{head}/{den}"


def _vertex(value: object) -> int:
    """The vertex as a Python int, by ``operator.index``; a bool raises TypeError, as ``Graph(True)`` does."""
    if isinstance(value, bool):
        raise TypeError(f"vertex must be an int, got {value!r}")
    return operator.index(value)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Graph:
    """An undirected graph with optional self-loops on range(n_vertices).

    Edges are stored as sorted pairs (i, j) with i < j. The empty graph
    (no edges, no loops) is legal and acts as a hold step of whatever
    duration it is given: its adjacency matrix is zero, so nothing moves.
    The optimizer's caches are keyed on graphs and steps, so the hash is
    computed once, on first use, and kept beside the fields, as is the set
    of edge endpoints that ``degree_free`` and ``supports_disjoint`` read:
    equality and repr read the fields alone.
    """

    n_vertices: int
    edges: frozenset = field(default_factory=frozenset)
    loops: frozenset = field(default_factory=frozenset)

    @cached_property
    def _hash(self) -> int:
        return hash((self.n_vertices, self.edges, self.loops))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _endpoints(self) -> frozenset:
        return frozenset(chain.from_iterable(self.edges))

    def __post_init__(self) -> None:
        if type(self.n_vertices) is not int:
            raise TypeError(f"vertex count must be an int, got {self.n_vertices!r}")
        if self.n_vertices < 0:
            raise ValueError("negative vertex count")
        for pair in self.edges:
            i, j = pair
            if not (0 <= i < j < self.n_vertices):
                raise ValueError(f"edge {pair} out of range for {self.n_vertices} vertices")
        for v in self.loops:
            if not (0 <= v < self.n_vertices):
                raise ValueError(f"loop {v} out of range for {self.n_vertices} vertices")

    @classmethod
    def make(
        cls,
        n_vertices: int,
        edges: Iterable[Sequence[int]] = (),
        loops: Iterable[int] = (),
    ) -> "Graph":
        """The graph with the given edges, each a pair in either order, and loops, from any iterables.

        Every vertex is read through ``operator.index``: a float or a bool
        raises TypeError, and a numpy integer becomes a Python int.
        """
        pairs = [sorted(map(_vertex, pair)) for pair in edges]
        for a, b in pairs:
            if a == b:
                raise ValueError(f"edge ({a}, {b}) joins a vertex to itself; use a loop")
        return cls(n_vertices, frozenset(map(tuple, pairs)), frozenset(map(_vertex, loops)))

    @property
    def is_empty(self) -> bool:
        return not self.edges and not self.loops

    @property
    def is_loops_only(self) -> bool:
        return not self.edges and bool(self.loops)

    def union(self, other: "Graph") -> "Graph":
        if self.n_vertices != other.n_vertices:
            raise ValueError("vertex sets differ")
        return Graph(self.n_vertices, self.edges | other.edges, self.loops | other.loops)

    def degree_free(self, vertex: int) -> bool:
        """True when no edge of this graph touches the vertex (loops ignored)."""
        return vertex not in self._endpoints


class TimedGraph:
    """One walk step: evolve under graph for an exact duration.

    The duration is a nonnegative multiple of pi, held as the integers
    ``pi_num`` over ``pi_den`` in lowest terms (``pi_den`` >= 1), so that
    equal durations compare and hash equal and the package computes on
    them without ``Fraction`` arithmetic. The constructor takes the
    duration as a Fraction, and ``duration`` returns it as one, built on
    each read; ``TimedGraph.of`` builds a step from the two integers. The
    step is immutable. The optimizer's caches are keyed on steps, so the
    hash reads the graph and the two integers and is kept after its first
    use, as Graph's is.
    """

    __slots__ = ("graph", "pi_num", "pi_den", "_hash")

    def __init__(self, graph: Graph, duration: Fraction) -> None:
        if not isinstance(duration, Fraction):
            raise TypeError(f"duration must be a Fraction multiple of pi, got {duration!r}")
        if duration.numerator < 0:
            raise ValueError(f"negative duration {format_angle(duration)}")
        _fill(self, graph, duration.numerator, duration.denominator)

    @classmethod
    def of(cls, graph: Graph, pi_num: int, pi_den: int = 1) -> "TimedGraph":
        """The step of duration pi_num/pi_den pi, which need not be in lowest terms."""
        if pi_num < 0 or pi_den < 1:
            raise ValueError(f"duration {pi_num}/{pi_den} is not a nonnegative multiple of pi")
        common = math.gcd(pi_num, pi_den)
        step = object.__new__(cls)
        _fill(step, graph, pi_num // common, pi_den // common)
        return step

    @property
    def duration(self) -> Fraction:
        return Fraction(self.pi_num, self.pi_den)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pi_num == other.pi_num and self.pi_den == other.pi_den and self.graph == other.graph

    def __hash__(self) -> int:
        if self._hash is None:
            _set_hash(self, hash((self.graph, self.pi_num, self.pi_den)))
        return self._hash

    def __repr__(self) -> str:
        return f"TimedGraph(graph={self.graph!r}, duration={self.duration!r})"

    def __reduce__(self):
        return TimedGraph.of, (self.graph, self.pi_num, self.pi_den)


# the slots' own setters, which pass by TimedGraph.__setattr__
_set_graph, _set_num, _set_den, _set_hash = (TimedGraph.__dict__[slot].__set__ for slot in TimedGraph.__slots__)


def _fill(step: TimedGraph, graph: Graph, pi_num: int, pi_den: int) -> None:
    _set_graph(step, graph)
    _set_num(step, pi_num)
    _set_den(step, pi_den)
    _set_hash(step, None)


def _span_time(steps: Sequence[TimedGraph], minus: Sequence[TimedGraph] = ()) -> Tuple[int, int]:
    """Total duration of the steps less that of ``minus``: an integer over their common denominator, and that."""
    den = math.lcm(*(step.pi_den for step in steps), *(step.pi_den for step in minus))
    total = sum(step.pi_num * (den // step.pi_den) for step in steps)
    return total - sum(step.pi_num * (den // step.pi_den) for step in minus), den


@dataclass(frozen=True)
class DynamicGraph:
    """An ordered sequence of timed graphs on a shared vertex set."""

    n_vertices: int
    steps: Tuple[TimedGraph, ...]

    def __post_init__(self) -> None:
        if type(self.n_vertices) is not int:
            raise TypeError(f"vertex count must be an int, got {self.n_vertices!r}")
        object.__setattr__(self, "steps", tuple(self.steps))
        for index, step in enumerate(self.steps):
            if step.graph.n_vertices != self.n_vertices:
                raise ValueError(
                    f"step {index} has {step.graph.n_vertices} vertices, expected {self.n_vertices}"
                )

    def total_time(self) -> Fraction:
        return Fraction(*_span_time(self.steps))

    @property
    def graph_count(self) -> int:
        return len(self.steps)

    def replaced(self, start: int, stop: int, new_steps: Sequence[TimedGraph]) -> "DynamicGraph":
        """Copy with steps[start:stop] replaced by new_steps."""
        merged = self.steps[:start] + tuple(new_steps) + self.steps[stop:]
        return DynamicGraph(self.n_vertices, merged)


class Spectrum(NamedTuple):
    """The adjacency spectrum of a graph, one connected component at a time.

    ``looped`` lists the edge-free vertices that carry a loop: each is a
    1x1 block with eigenvalue 1. Edge-free vertices without a loop have
    eigenvalue 0 and are listed nowhere. ``blocks`` holds one entry per
    component size k > 1: the (b, k) array of the components' vertices,
    each row ascending, and numpy's batched ``eigh`` of their k x k
    adjacency blocks, whose rows and columns follow that vertex order:
    eigenvalues (b, k), ascending per block, and eigenvectors (b, k, k),
    one per column, so each block is V diag(w) V^T. When all b blocks are
    equal, as in a compiled X, CNOT or H step's matching and a Hadamard
    layer's cubes, they share one decomposition: eigenvalues (1, k) and
    eigenvectors (1, k, k), which broadcast over the b rows of the vertex
    array.
    ``norm`` is the spectral norm ||A||: the largest absolute eigenvalue
    over all components.
    """

    n_vertices: int
    looped: np.ndarray
    blocks: Tuple[Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]], ...]
    norm: float

    def eigenvalues(self) -> np.ndarray:
        """Every eigenvalue of the adjacency matrix with its multiplicity, unordered."""
        parts = [np.ones(self.looped.size)]
        parts += [
            eigenvalues.repeat(len(members) // len(eigenvalues), axis=0).ravel()
            for members, (eigenvalues, _) in self.blocks
        ]
        idle = self.n_vertices - sum(part.size for part in parts)
        return np.concatenate(parts + [np.zeros(idle)])


def _component_labels(n_vertices: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Smallest vertex of each vertex's connected component.

    Every round lowers each endpoint's label to its neighbour's and then
    follows labels one hop further; a label always names a vertex of the
    same component no larger than the vertex itself, so the fixed point is
    the component minimum.
    """
    ends = np.concatenate((heads, tails))
    across = np.concatenate((tails, heads))
    labels = np.arange(n_vertices)
    while True:
        lowered = labels.copy()
        np.minimum.at(lowered, ends, labels[across])
        lowered = lowered[lowered]
        if (lowered == labels).all():
            return labels
        labels = lowered


def components(n_vertices: int, heads: np.ndarray, tails: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The connected components of the edges heads[i] - tails[i] on range(n_vertices).

    Returns each vertex's component size and, for each size k > 1 in
    ascending order, the (b, k) array of the components of that size: one
    per row, each row ascending, rows in order of their smallest vertex.
    """
    labels = _component_labels(n_vertices, heads, tails)
    if n_vertices > 1 and not labels.any():
        # connected: every vertex's label is vertex 0
        return np.full(n_vertices, n_vertices), [np.arange(n_vertices).reshape(1, -1)]
    size_of = np.bincount(labels, minlength=n_vertices)[labels]
    groups = []
    for k in sorted(set(size_of.tolist()) - {1}):
        vertices = np.flatnonzero(size_of == k)
        groups.append(vertices[np.argsort(labels[vertices], kind="stable")].reshape(-1, k))
    return size_of, groups


@lru_cache(maxsize=4096)
def spectrum(graph: Graph) -> Spectrum:
    """Component-wise eigendecomposition of a graph's adjacency matrix.

    Components come from the edge list; a graph without edges has none
    and is not searched. Edge-free vertices need no decomposition; the
    other components are grouped by size and each group is decomposed in
    one batched call, or as its first block alone when every block of the
    group equals it. The arrays are shared by every caller and therefore
    read-only.
    """
    n = graph.n_vertices
    loops = np.sort(np.fromiter(graph.loops, dtype=np.intp, count=len(graph.loops)))
    if not graph.edges:
        loops.flags.writeable = False
        return Spectrum(n, loops, (), 1.0 if loops.size else 0.0)
    ends = np.fromiter(chain.from_iterable(graph.edges), dtype=np.intp, count=2 * len(graph.edges))
    heads, tails = ends[0::2], ends[1::2]
    size_of, groups = components(n, heads, tails)

    looped = loops[size_of[loops] == 1]
    looped.flags.writeable = False
    norm = 1.0 if looped.size else 0.0
    blocks = []
    slot = np.empty(n, dtype=np.intp)
    for members in groups:
        k = members.shape[1]
        # slot = row of the vertex in the stacked blocks; entry (u, v) of its
        # block sits at slot[u] * k + slot[v] % k of the flattened stack
        slot[members.ravel()] = np.arange(members.size)
        inside = size_of[heads] == k
        u, v = slot[heads[inside]], slot[tails[inside]]
        w = slot[loops[size_of[loops] == k]]
        adjacency = np.zeros(members.size * k)
        adjacency[np.concatenate((u * k + v % k, v * k + u % k, w * k + w % k))] = 1.0
        stack = adjacency.reshape(-1, k, k)
        if len(stack) > 1 and (stack == stack[0]).all():
            stack = stack[:1]  # identical blocks share one decomposition
        eigenvalues, eigenvectors = np.linalg.eigh(stack)
        norm = max(norm, float(np.abs(eigenvalues).max()))
        for array in (members, eigenvalues, eigenvectors):
            array.flags.writeable = False
        blocks.append((members, (eigenvalues, eigenvectors)))
    return Spectrum(n, looped, tuple(blocks), norm)


def supports_disjoint(a: Graph, b: Graph) -> bool:
    """True when no vertex carries an edge or loop of both graphs."""
    return (a.loops | a._endpoints).isdisjoint(b.loops | b._endpoints)


def _nearest_ratio(value: float, limit: int) -> Optional[Tuple[int, int]]:
    """The ratio p/q with q <= limit nearest the value, in lowest terms, if it lies within 1/(2 limit^2).

    Two such ratios lie at least 1/limit^2 apart, so at most one is that
    close, and it is the nearest of all; a value farther from every ratio
    gets None. A NaN or infinite value raises, as ``round`` does.
    """
    for q in range(1, limit + 1):
        p = round(value * q)
        if abs(value - p / q) < 0.5 / (limit * limit):
            common = math.gcd(p, q)
            return p // common, q // common
    return None


def _small_ratio(value: float) -> Optional[Tuple[int, int]]:
    """Best ratio p/q with q <= RATIONAL_DENOMINATOR_LIMIT, as (p, q) in lowest terms, or None beyond RATIONAL_TOLERANCE."""
    ratio = _nearest_ratio(value, RATIONAL_DENOMINATOR_LIMIT)
    if ratio is None or not abs(ratio[0] / ratio[1] - value) < RATIONAL_TOLERANCE:
        return None
    return ratio


def period(graph: Graph) -> Optional[Fraction]:
    """Recurrence time of exp(-i A t / ||A||) as a multiple of pi, if any.

    Each eigenvalue pair contributes a candidate period 2*pi*||A|| / |lam|;
    the walk period is their least common multiple. With the normalized
    ratios |lam| / ||A|| written as reduced fractions p/q, that lcm is
    2*pi * lcm(q) / gcd(p). Ratios that do not rationalize (denominator
    above 16 or residual over 1e-9) make the spectrum incommensurate and
    the period infinite. Ratios repeat (matchings, sub-cubes and loops
    repeat the same blocks), so each distinct one is rationalized once.

    None means aperiodic (incommensurate spectrum). The empty graph gets
    the degenerate period 0: nothing evolves, so every duration reduces
    to 0.
    """
    cycle = _period(graph)
    return None if cycle is None else Fraction(*cycle)


def _period(graph: Graph) -> Optional[Tuple[int, int]]:
    """period's value as (p, q) in lowest terms, or None."""
    if graph.is_empty:
        return 0, 1
    spec = spectrum(graph)
    # zero eigenvalues sit still and impose no constraint
    ratios = np.sort(np.abs(spec.eigenvalues()) / spec.norm)
    ratios = ratios[ratios >= 1e-12]
    # ratios equal to within 1e-12 are rationalized once
    distinct = ratios[np.diff(ratios, prepend=-1.0) > 1e-12]
    numerators: set = set()
    denominators: set = set()
    for value in distinct.tolist():
        ratio = _small_ratio(value)
        if ratio is None:
            return None
        if ratio[0] == 0:
            continue
        numerators.add(ratio[0])
        denominators.add(ratio[1])
    lcm_q = math.lcm(*denominators)
    gcd_p = math.gcd(*numerators)
    common = math.gcd(2 * lcm_q, gcd_p)
    return 2 * lcm_q // common, gcd_p // common


class ParseError(ValueError):
    """Raised for malformed walk JSON; the message carries the JSON path."""


def _fail(path: str, problem: str) -> None:
    raise ParseError(f"{path}: {problem}")


def _decode_json(text: str) -> object:
    """The decoded JSON document, with every way decoding fails raised as ParseError.

    ``ValueError`` covers malformed text (``JSONDecodeError``) and an
    integer literal past Python's int-to-str digit limit; ``RecursionError``
    is nesting deeper than the decoder's stack.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        raise ParseError(f"invalid JSON: {err}") from err


def _expect_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _expect_keys(obj: dict, keys: Sequence[str], path: str) -> None:
    """Fail unless the object holds exactly these keys: an unknown one first, then a missing one."""
    for key in obj:
        if key not in keys:
            _fail(path, f"unknown field {key!r}")
    for key in keys:
        if key not in obj:
            _fail(path, f"missing field {key!r}")


def _parse_time(obj: object, path: str) -> Tuple[int, int]:
    """The time object's multiple of pi as (numerator, denominator) in lowest terms."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object with pi_num and pi_den")
    _expect_keys(obj, ("pi_num", "pi_den"), path)
    num = _expect_int(obj["pi_num"], f"{path}.pi_num")
    den = _expect_int(obj["pi_den"], f"{path}.pi_den")
    if num < 0:
        _fail(f"{path}.pi_num", "must be nonnegative")
    if den < 1:
        _fail(f"{path}.pi_den", "denominator must be at least 1")
    common = math.gcd(num, den)
    num, den = num // common, den // common
    try:
        finite = math.isfinite(_radians(num, den))
    except OverflowError:
        finite = False
    if not finite:
        _fail(path, "time in radians is not a finite float")
    return num, den


def _parse_step(obj: object, n_vertices: int, path: str) -> TimedGraph:
    if not isinstance(obj, dict):
        _fail(path, "expected a step object")
    _expect_keys(obj, ("edges", "loops", "time"), path)

    # One pass of plain inline tests per entry, in the order they name a
    # defect: exactly ``int``, as JSON decodes integers, so bools and floats
    # fail. Every entry before the first that fails added one member, so its
    # index is the count of members so far; a path is built only for it.
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        _fail(f"{path}.edges", "expected a list of [i, j] pairs")
    edges = set()
    for pair in raw_edges:
        if type(pair) is not list or len(pair) != 2:
            _fail(f"{path}.edges[{len(edges)}]", "expected a pair [i, j]")
        i, j = pair
        if type(i) is not int or type(j) is not int:
            _fail(f"{path}.edges[{len(edges)}]", f"expected an integer, got {j if type(i) is int else i!r}")
        if i == j:
            _fail(f"{path}.edges[{len(edges)}]", "self-pair; use loops instead")
        if not (0 <= i < n_vertices and 0 <= j < n_vertices):
            _fail(f"{path}.edges[{len(edges)}]", f"vertex out of range 0..{n_vertices - 1}")
        edge = (i, j) if i < j else (j, i)
        if edge in edges:
            _fail(f"{path}.edges[{len(edges)}]", f"duplicate edge {list(edge)}")
        edges.add(edge)

    raw_loops = obj["loops"]
    if not isinstance(raw_loops, list):
        _fail(f"{path}.loops", "expected a list of vertices")
    loops = set()
    for v in raw_loops:
        if type(v) is not int:
            _fail(f"{path}.loops[{len(loops)}]", f"expected an integer, got {v!r}")
        if not (0 <= v < n_vertices):
            _fail(f"{path}.loops[{len(loops)}]", f"vertex out of range 0..{n_vertices - 1}")
        if v in loops:
            _fail(f"{path}.loops[{len(loops)}]", f"duplicate loop {v}")
        loops.add(v)

    num, den = _parse_time(obj["time"], f"{path}.time")
    return TimedGraph.of(Graph(n_vertices, frozenset(edges), frozenset(loops)), num, den)


def parse_dynamic_graph(text: str) -> DynamicGraph:
    """Parse walk JSON, raising ParseError with a JSON path on any defect."""
    data = _decode_json(text)
    if not isinstance(data, dict):
        _fail("$", "expected a top-level object")
    _expect_keys(data, ("n_vertices", "sequence"), "$")
    n_vertices = _expect_int(data["n_vertices"], "n_vertices")
    if n_vertices < 1:
        _fail("n_vertices", "must be at least 1")
    if n_vertices > MAX_VERTICES:
        _fail("n_vertices", f"must be at most {MAX_VERTICES}")
    raw_sequence = data["sequence"]
    if not isinstance(raw_sequence, list):
        _fail("sequence", "expected a list of steps")
    steps = tuple(
        _parse_step(step, n_vertices, f"sequence[{index}]")
        for index, step in enumerate(raw_sequence)
    )
    total, den = _span_time(steps)
    if max(den, total) >= 10**MAX_TIME_DIGITS:
        _fail("sequence", f"the durations need more than {MAX_TIME_DIGITS} digits over a common denominator")
    return DynamicGraph(n_vertices, steps)


# json.dumps(indent=2)'s layout of a walk: one step of the sequence, with its
# edge and loop lists at depth 3; an empty list prints as []. The step's
# template takes the two list templates first, then the numbers.
_STEP = (
    '\n    {\n      "edges": %s,\n      "loops": %s,'
    '\n      "time": {\n        "pi_num": %%d,\n        "pi_den": %%d\n      }\n    }'
)
_EDGE = ',\n        [\n          %d,\n          %d\n        ]'
_LOOP = ',\n        %d'
_CLOSE = '\n      ]'


def _list_layout(item: str, count: int) -> str:
    """The template of a depth-3 list of count items, each item led by its comma."""
    return "[" + (item * count)[1:] + _CLOSE if count else "[]"


def serialize_dynamic_graph(walk: DynamicGraph) -> str:
    """Serialize to the JSON interchange form, deterministically ordered.

    The text is byte for byte ``json.dumps(payload, indent=2) + "\\n"`` of
    the walk's payload, written with one ``%`` template per step instead of
    json's pure-Python indenting encoder.
    """
    steps = []
    for step in walk.steps:
        edges = sorted(step.graph.edges)
        loops = sorted(step.graph.loops)
        template = _STEP % (_list_layout(_EDGE, len(edges)), _list_layout(_LOOP, len(loops)))
        times = (step.pi_num, step.pi_den)
        steps.append(template % (*chain.from_iterable(edges), *loops, *times))
    sequence = "[" + ",".join(steps) + "\n  ]" if steps else "[]"
    return '{\n  "n_vertices": %d,\n  "sequence": %s\n}\n' % (walk.n_vertices, sequence)
