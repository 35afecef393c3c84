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
files are the normal input. A walk and a circuit document
(``gate_compiler.parse_circuit``) share one prologue, ``_document``: the
JSON is decoded, the top level must be an object with exactly its two
keys, the size an integer from 1 to the format's ceiling and the items a
list. Every object of either format is checked to be one, and to hold
exactly its keys, by one function, ``_expect_keys``. The walk parser
refuses more than ``MAX_VERTICES`` vertices before building anything,
since ``unitary`` and ``optimize`` hold n x n unitaries, durations that
need more than ``MAX_TIME_DIGITS`` digits over a common denominator,
which no command could print, and a total time whose radians are not a
finite float; ``compile`` refuses such a compiled walk by the same check
(``_check_time_digits``).

A step's edge and loop lists are read in one pass of plain inline tests
per entry, which calls no function. The tests run in the order that names
a defect: for an edge, a pair, then two integers (the first bad one is
named), then distinct ends, then both in range, then new; for a loop, an
integer, in range, new. The first entry that fails raises, with its index
in the list as its path; a path is built for that entry only. A step that
passes has had every check ``Graph(...)`` makes, so its graph is built by
``Graph._of`` without a second pass over its entries.

``serialize_dynamic_graph`` writes ``json.dumps(indent=2)``'s layout byte
for byte, from one ``%`` template per step rather than json's pure-Python
indenting encoder.

``spectrum`` is the one place a graph's eigenvalues come from. It splits
the graph into connected components from its edge list, groups them by
size, and hands each stack of equal-size component blocks to numpy's
batched ``eigh``, so no n x n adjacency matrix is formed; the walk
engine's step exponentials, ``period`` and the spectral norms all read
it. A stack whose blocks are all equal, such as a compiled X, CNOT or H
step's matching or a Hadamard layer's 2^(q-k) k-cubes, is decomposed
once: its eigenvalue and eigenvector arrays have leading dimension 1 and
broadcast over the stack's components. A graph without edges, and a
matching whose loops all sit on unmatched vertices, are not searched at
all: each of the matching's edges is a component, and all share the one
edge's decomposition, bit for bit the one the search would make. The
components and blocks are found by one of two routes, chosen by vertex
count alone. A graph on fewer than ``LISTED_VERTICES`` vertices is read
in one pass of Python over its edge and loop sets, with a depth-first
search over adjacency lists, since on such graphs numpy's fixed cost per
call outweighs its arithmetic. A larger one is read by numpy index work:
one degree count over the edge ends recognizes a matching, and
``components`` sorts the vertices by size and component. Both routes give
the same arrays, byte for byte.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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

# Graphs on fewer vertices have their components and blocks read in Python
# from the edge and loop sets (``_listed_stacks``); from here on by numpy index
# work (``_searched_stacks``). Per ``spectrum`` miss, Python against numpy
# (timeit, best of 9 x 1000, 2 vCPUs): an 8-vertex graph of a 3-path, an edge
# and two loops 29 vs 72 us; the cube step of a 3-target Hadamard layer 30 vs
# 54 us on 3 qubits, 50 vs 65 us on 5 and 77 vs 72 us on 6 (64 vertices);
# sparse random graphs 40 vs 69 us on 16 vertices, 117 vs 176 us on 64;
# matchings 13 vs 20 us on 8 vertices, 22 vs 23 us on 64.
LISTED_VERTICES = 32

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


class _kept:
    """A value computed from the instance on its first read and kept in the instance's dict.

    A non-data descriptor, so every later read finds the kept value in the
    dict and never reaches it. Unlike ``functools.cached_property`` it
    takes no lock on the first read, and it writes the dict directly, past
    a frozen dataclass's ``__setattr__``.
    """

    def __init__(self, compute) -> None:
        self.compute = compute

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = vars(instance)[self.name] = self.compute(instance)
        return value


@dataclass(frozen=True)
class Graph:
    """An undirected graph with optional self-loops on range(n_vertices).

    Edges are stored as sorted pairs (i, j) with i < j. The empty graph
    (no edges, no loops) is legal and acts as a hold step of whatever
    duration it is given: its adjacency matrix is zero, so nothing moves.
    The optimizer's caches are keyed on graphs and steps, so the hash is
    computed once, on first use, and kept beside the fields, as is the set
    of edge endpoints that ``degree_free`` and ``supports_disjoint`` read:
    equality and repr read the fields alone. ``Graph(...)`` checks every
    vertex: an endpoint or loop that is not exactly an ``int`` (a bool, a
    float, a numpy integer) raises TypeError, and one out of range raises
    ValueError; ``Graph.make`` takes any integers and sorts each pair. The
    parser, the compiler and the optimizer build from parts they have
    already checked, through ``Graph._of``, which checks nothing.
    """

    n_vertices: int
    edges: frozenset = field(default_factory=frozenset)
    loops: frozenset = field(default_factory=frozenset)

    @_kept
    def _hash(self) -> int:
        return hash((self.n_vertices, self.edges, self.loops))

    def __hash__(self) -> int:
        return self._hash

    @_kept
    def _endpoints(self) -> frozenset:
        return frozenset(chain.from_iterable(self.edges))

    def __post_init__(self) -> None:
        if type(self.n_vertices) is not int:
            raise TypeError(f"vertex count must be an int, got {self.n_vertices!r}")
        if self.n_vertices < 0:
            raise ValueError("negative vertex count")
        for pair in self.edges:
            i, j = pair
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"edge {pair} has a vertex that is not an int")
            if not (0 <= i < j < self.n_vertices):
                raise ValueError(f"edge {pair} out of range for {self.n_vertices} vertices")
        for v in self.loops:
            if type(v) is not int:
                raise TypeError(f"loop {v!r} is not an int")
            if not (0 <= v < self.n_vertices):
                raise ValueError(f"loop {v} out of range for {self.n_vertices} vertices")

    @classmethod
    def _of(cls, n_vertices: int, edges: frozenset = frozenset(), loops: frozenset = frozenset()) -> "Graph":
        """The graph of parts already checked, as ``Graph(...)`` checks them, built without a check.

        The parser and the builders in ``gate_compiler`` and
        ``rewrite_optimizer`` make every vertex an int in range, and every
        edge a pair (i, j) with i < j, before they build.
        """
        graph = object.__new__(cls)
        vars(graph).update(n_vertices=n_vertices, edges=edges, loops=loops)
        return graph

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
        return Graph._of(self.n_vertices, self.edges | other.edges, self.loops | other.loops)

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
    eigenvalue 0 and are listed nowhere, nor counted: their number is the
    graph's vertex count less the listed vertices. ``blocks`` holds one
    entry per component size k > 1: the (b, k) array of the components'
    vertices, each row ascending, and numpy's batched ``eigh`` of their
    k x k adjacency blocks, whose rows and columns follow that vertex order:
    eigenvalues (b, k), ascending per block, and eigenvectors (b, k, k),
    one per column, so each block is V diag(w) V^T. When all b blocks are
    equal, as in a compiled X, CNOT or H step's matching and a Hadamard
    layer's cubes, they share one decomposition: eigenvalues (1, k) and
    eigenvectors (1, k, k), which broadcast over the b rows of the vertex
    array. A matching with no loop on a matched vertex has one entry,
    k = 2, its edges as rows in order of their smaller end, found without
    a component search. The arrays are the same, byte for byte, whichever
    route (Python below ``LISTED_VERTICES`` vertices, numpy index work from
    there on) read the graph.
    ``norm`` is the spectral norm ||A||: the largest absolute eigenvalue
    over all components.
    """

    looped: np.ndarray
    blocks: Tuple[Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]], ...]
    norm: float


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
    A connected graph takes the same path, and its one group is the (1, n)
    row of every vertex in order.
    """
    labels = _component_labels(n_vertices, heads, tails)
    size_of = np.bincount(labels, minlength=n_vertices)[labels]
    # one stable sort by size, then component, keeps each component's
    # vertices ascending; the order is cut where the size changes (with no
    # vertex, the one cut pair is empty)
    order = np.lexsort((labels, size_of))
    sizes = size_of[order]
    bounds = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), n_vertices]
    groups = [order[a:b].reshape(-1, int(sizes[a])) for a, b in zip(bounds, bounds[1:]) if a < b and sizes[a] > 1]
    return size_of, groups


# The adjacency block of one edge, as a stack of one: the block every matching's
# components share.
_EDGE_BLOCK = np.array([[[0.0, 1.0], [1.0, 0.0]]])
_EDGE_BLOCK.flags.writeable = False


def _loop_free_matching(n_vertices: int, ends: np.ndarray, loops: np.ndarray) -> bool:
    """True when no vertex is on two edges and no loop sits on a vertex with an edge."""
    degree = np.bincount(ends, minlength=n_vertices)
    return np.count_nonzero(degree) == ends.size and not np.count_nonzero(degree[loops])


def _component_stacks(
    n_vertices: int, heads: np.ndarray, tails: np.ndarray, loops: np.ndarray, size_of: np.ndarray, groups: List[np.ndarray]
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Each size group's vertices and its (b, k, k) stack of adjacency blocks, or the first block alone when all are equal."""
    slot = np.empty(n_vertices, dtype=np.intp)
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
        yield members, stack


def _listed_stacks(graph: Graph) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """spectrum's looped vertices and stacks of a small graph, read in Python from its edge and loop sets.

    A graph in which no vertex lies on two edges and no loop on an edge's
    end is a loop-free matching, or has no edge: its edges, in order of
    their smaller end, share the one edge's block. Any other graph's
    components come from a depth-first search over adjacency lists,
    started at each edge end in ascending order, so the components of a
    size come in order of their smallest vertex; each block is built as a
    list and a size's stack is its first block when every block equals it.
    """
    loops, edges, ends = graph.loops, graph.edges, graph._endpoints
    if len(ends) == 2 * len(edges) and loops.isdisjoint(ends):
        stacks = [(np.array(sorted(edges), dtype=np.intp), _EDGE_BLOCK)] if edges else []
        return np.array(sorted(loops), dtype=np.intp), stacks
    neighbours: dict = {v: [] for v in ends}
    for i, j in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    rows: dict = {}
    blocks: dict = {}
    seen: set = set()
    for start in sorted(ends):
        if start in seen:
            continue
        seen.add(start)
        component, todo = [start], [start]
        while todo:
            for v in neighbours[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    component.append(v)
                    todo.append(v)
        component.sort()
        k = len(component)
        place = {v: at for at, v in enumerate(component)}
        block = [0.0] * (k * k)
        for v in component:
            row = place[v] * k
            for w in neighbours[v]:
                block[row + place[w]] = 1.0
            if v in loops:
                block[row + place[v]] = 1.0
        rows.setdefault(k, []).append(component)
        blocks.setdefault(k, []).append(block)
    stacks = []
    for k in sorted(rows):
        group = blocks[k]
        if group.count(group[0]) == len(group):
            group = group[:1]  # identical blocks share one decomposition
        stacks.append((np.array(rows[k], dtype=np.intp), np.array(group).reshape(-1, k, k)))
    return np.array(sorted(loops - ends), dtype=np.intp), stacks


def _searched_stacks(graph: Graph) -> Tuple[np.ndarray, Iterable[Tuple[np.ndarray, np.ndarray]]]:
    """spectrum's looped vertices and stacks, from numpy index work on the edge list: the route for large graphs."""
    n = graph.n_vertices
    loops = np.sort(np.fromiter(graph.loops, dtype=np.intp, count=len(graph.loops)))
    if not graph.edges:
        return loops, ()
    ends = np.fromiter(chain.from_iterable(graph.edges), dtype=np.intp, count=2 * len(graph.edges))
    heads, tails = ends[0::2], ends[1::2]
    if _loop_free_matching(n, ends, loops):
        # each edge is a component, and every block is the one edge's
        return loops, [(ends.reshape(-1, 2)[np.argsort(heads)], _EDGE_BLOCK)]
    size_of, groups = components(n, heads, tails)
    return loops[size_of[loops] == 1], _component_stacks(n, heads, tails, loops, size_of, groups)


@lru_cache(maxsize=4096)
def spectrum(graph: Graph) -> Spectrum:
    """Component-wise eigendecomposition of a graph's adjacency matrix.

    A graph without edges has no component to decompose and is not
    searched. Nor is a matching whose loops all sit on unmatched vertices:
    each edge is a component, ordered by its smaller end, and every block
    is the one edge's, decomposed once. Any other graph's components come
    from the edge list; edge-free vertices need no decomposition, and the
    other components are grouped by size and each group is decomposed in
    one batched call, or as its first block alone when every block of the
    group equals it. A graph on fewer than ``LISTED_VERTICES`` vertices is
    read by one pass of Python over its edge and loop sets
    (``_listed_stacks``), a larger one by numpy index work
    (``_searched_stacks``); both give the same arrays, byte for byte. The
    arrays are shared by every caller and therefore read-only.
    """
    looped, stacks = (_listed_stacks if graph.n_vertices < LISTED_VERTICES else _searched_stacks)(graph)
    looped.flags.writeable = False
    norm = 1.0 if looped.size else 0.0
    blocks = []
    for members, stack in stacks:
        eigenvalues, eigenvectors = np.linalg.eigh(stack)
        norm = max(norm, float(np.abs(eigenvalues).max()))
        for array in (members, eigenvalues, eigenvectors):
            array.flags.writeable = False
        blocks.append((members, (eigenvalues, eigenvectors)))
    return Spectrum(looped, tuple(blocks), norm)


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
    """period's value as (p, q) in lowest terms, or None.

    The ratios are read off the spectrum as it is stored: 1 for the looped
    vertices, if any, then each block's own eigenvalue array, so a shared
    decomposition counts once and the idle vertices, eigenvalue 0, not at
    all. Repeats change no distinct ratio. A ratio in [1e-12, 1e-9)
    rationalizes to 0/1, and p = 0, q = 1 change neither gcd(p) nor
    lcm(q); the norm's own ratio, exactly 1, is always among the ratios,
    so the sets are never {0} and {1} alone.
    """
    if graph.is_empty:
        return 0, 1
    spec = spectrum(graph)
    parts = ([np.ones(1)] if spec.looped.size else []) + [eigenvalues.ravel() for _, (eigenvalues, _) in spec.blocks]
    # zero eigenvalues sit still and impose no constraint
    ratios = np.sort(np.abs(np.concatenate(parts)) / spec.norm)
    ratios = ratios[ratios >= 1e-12]
    # ratios equal to within 1e-12 are rationalized once
    distinct = ratios[np.diff(ratios, prepend=-1.0) > 1e-12]
    numerators: set = set()
    denominators: set = set()
    for value in distinct.tolist():
        ratio = _small_ratio(value)
        if ratio is None:
            return None
        numerators.add(ratio[0])
        denominators.add(ratio[1])
    lcm_q = math.lcm(*denominators)
    gcd_p = math.gcd(*numerators)
    common = math.gcd(2 * lcm_q, gcd_p)
    return 2 * lcm_q // common, gcd_p // common


def _reduced(graph: Graph, num: int, den: int) -> Tuple[int, int]:
    """num/den modulo the graph's period, in lowest terms if num/den is; aperiodic (None) keeps it, period 0 zeroes it.

    A nonempty graph's largest eigenvalue ratio is exactly 1, so its period
    is None or an even multiple of pi, and a duration under 2pi needs no
    lookup.
    """
    if num < 2 * den and not graph.is_empty:
        return num, den
    cycle = _period(graph)
    if cycle is None:
        return num, den
    p, q = cycle
    num, den = (num * q % (p * den), den * q) if p else (0, 1)
    common = math.gcd(num, den)
    return num // common, den // common


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


def _expect_keys(obj: object, keys: Sequence[str], path: str, expected: str) -> None:
    """Fail unless obj is an object (else with ``expected``) holding exactly these keys: an unknown one first, then a missing one."""
    if not isinstance(obj, dict):
        _fail(path, expected)
    for key in obj:
        if key not in keys:
            _fail(path, f"unknown field {key!r}")
    for key in keys:
        if key not in obj:
            _fail(path, f"missing field {key!r}")


def _parse_time(obj: object, path: str) -> Tuple[int, int]:
    """The time object's multiple of pi as (numerator, denominator) in lowest terms."""
    _expect_keys(obj, ("pi_num", "pi_den"), path, "expected an object with pi_num and pi_den")
    num = _expect_int(obj["pi_num"], f"{path}.pi_num")
    den = _expect_int(obj["pi_den"], f"{path}.pi_den")
    if num < 0:
        _fail(f"{path}.pi_num", "must be nonnegative")
    if den < 1:
        _fail(f"{path}.pi_den", "denominator must be at least 1")
    common = math.gcd(num, den)
    num, den = num // common, den // common
    if not _finite_radians(num, den):
        _fail(path, "time in radians is not a finite float")
    return num, den


def _finite_radians(num: int, den: int) -> bool:
    """Whether the angle num/den pi is a finite float in radians."""
    try:
        return math.isfinite(_radians(num, den))
    except OverflowError:
        return False


def _parse_step(obj: object, n_vertices: int, path: str) -> TimedGraph:
    _expect_keys(obj, ("edges", "loops", "time"), path, "expected a step object")

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
    return TimedGraph.of(Graph._of(n_vertices, frozenset(edges), frozenset(loops)), num, den)


def _document(text: str, size: str, most: int, items: str, expected: str) -> Tuple[int, list]:
    """The size and the item list of a walk or circuit document: the prologue both formats share.

    The text must decode to an object with exactly the keys ``size`` and
    ``items``; the size must be an integer from 1 to ``most``, and the
    items a list (else ``expected`` names the defect). Each check raises
    ParseError with its JSON path, in that order.
    """
    data = _decode_json(text)
    _expect_keys(data, (size, items), "$", "expected a top-level object")
    count = _expect_int(data[size], size)
    if count < 1:
        _fail(size, "must be at least 1")
    if count > most:
        _fail(size, f"must be at most {most}")
    if not isinstance(data[items], list):
        _fail(items, expected)
    return count, data[items]


def parse_dynamic_graph(text: str) -> DynamicGraph:
    """Parse walk JSON, raising ParseError with a JSON path on any defect."""
    n_vertices, raw_sequence = _document(text, "n_vertices", MAX_VERTICES, "sequence", "expected a list of steps")
    steps = tuple(
        _parse_step(step, n_vertices, f"sequence[{index}]")
        for index, step in enumerate(raw_sequence)
    )
    _check_time_digits(steps)
    return DynamicGraph(n_vertices, steps)


def _check_time_digits(steps: Sequence[TimedGraph]) -> None:
    """Raise ParseError when the steps' durations, or their sum, need more than MAX_TIME_DIGITS digits over a common denominator.

    It also raises when their sum in radians is not a finite float, which
    ``stats`` and ``optimize`` print and ``--report`` writes: each step is
    checked on its own by ``_parse_time``, and two steps of 5 10^307 pi
    each pass that check.
    """
    total, den = _span_time(steps)
    if max(den, total) >= 10**MAX_TIME_DIGITS:
        _fail("sequence", f"the durations need more than {MAX_TIME_DIGITS} digits over a common denominator")
    if not _finite_radians(total, den):
        _fail("sequence", "the total time in radians is not a finite float")


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
