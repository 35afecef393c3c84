"""Running walk programs one connected component at a time.

A program step (graph G, duration t) acts on amplitudes as the unitary
exp(-i A t / ||A||), with A the adjacency matrix of G. Steps compose left
to right in program order, so the total unitary of [s1, s2, s3] is
U3 U2 U1.

A step never forms its n x n unitary. ``graph_model.spectrum`` splits the
graph into connected components: an edge-free looped vertex only picks up
the phase exp(-i t / ||A||), an edge-free vertex without a loop stays put,
and every other component is a k x k block whose exponential acts on the
k rows it owns. The spectrum holds each block as V diag(w) V^T, and this
module rebuilds its exponential as V diag(exp(-i w t / ||A||)) V^T: the
eigenvectors of a real symmetric block are real, so V^T is V^dag. Those
are the step's kernel factors, O(n k) numbers for the largest block size
k, and a connected graph is simply one block. A stack of equal blocks,
such as a matching's pairs or a Hadamard layer's cubes, has one
decomposition in the spectrum and so one (1, k, k) exponential, which
``exponential @ rows[members]`` broadcasts over the stack's b components:
its factors are O(k^2) numbers, and each component's product is computed
as it would be from its own copy. ``evolve_state`` costs O(n k) per step.

Every product of a whole run is formed on the identity laid out over the
components of the union of the run's graphs, and this module is the only
one that turns steps into matrices. No step mixes two components, so the
product is zero between them: row v of the layout holds row v of the
product on v's component, column j its j-th vertex in vertex order, and
entry (v, v) sits in the column of v's rank in its component. The layout
is n x c, c the largest component size, and ``_blocks`` yields it in
blocks of columns, each at most ``BLOCK_ENTRIES`` entries, so a product
holds n x b numbers at a time whatever the union's shape, b the block
width, plus the steps' factors. Below ``SPLIT_VERTICES`` the union is
not searched: all vertices form one component, and the one block is the
n x n identity. ``_run`` applies a run of steps to a block, or to any
n x m array, at O(n k m) per step. The blocks have three readers:

* ``total_unitary`` writes each block into a zeroed n x n result: the
  entries between components are exact +0.0, and so are the zeros of a
  component that holds every vertex;
* ``run_distance`` compares two runs up to a global phase: it lays both
  products out over the union of both runs' graphs, so tr(U^dag V) is the
  sum of ``np.vdot`` over the blocks. ``equiv`` and the optimizer's span
  and final checks read it;
* ``laid_out_unitary`` yields (identity block, product block) pairs over
  the union of the steps' graphs and some extra vertex pairs. ``compile``
  passes the pairs its circuit's gates mix
  (``gate_compiler.mixing_pairs``), so that ``circuit_distance`` can undo
  the gates on each block's rows and read the trace as the sum of
  ``np.vdot(identity block, block)``.

Three readers keep each step's factors in one ``lru_cache``,
``_cached_factors``, since the steps of one optimization recur across
its calls: ``run_distance``, and so ``equiv`` and the optimizer's span
and final checks; ``prefix_unitaries``, which gives the products of
every prefix of a run on the n x n identity or a given starting product,
for the Hadamard-layer fragments; and the optimizer's phased-permutation
classifier, which reads a step's block exponentials from it without
forming the n x n step, for graphs with a vertex on two edges only: it
reads every other graph's form from its edge list. Every other product
computes the factors per call and drops them when it returns: the
whole-program functions (``total_unitary``, ``laid_out_unitary``,
``evolve_state``, and so the ``compile``, ``unitary`` and ``simulate``
commands), which factor each step once however many blocks they apply it
to. The optimizer's Hadamard-layer row reads, below ``SPLIT_VERTICES``,
a fragment's trace off its two prefix products first, refusing one too
large for any traceless Hadamard layer, then the fragment's own column 0,
which it checks against the layer's closed form, 2^(-k/2) times one
phase on each of the 2^k vertices inside the layer's mask, and compares
the fragment with the layer's gate through
``gate_compiler.circuit_distance`` on the fragment's two prefix
products, so it asks this module for no layer product or column.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .graph_model import DynamicGraph, Graph, TimedGraph, _radians, _reduced, components, spectrum
from .numerics import overlap_distance

__all__ = [
    "total_unitary",
    "prefix_unitaries",
    "run_distance",
    "laid_out_unitary",
    "evolve_state",
    "graphs_commute",
]

# The looped singletons, their phase, and each block stack's (b, k) vertices
# with the stack's (b, k, k) exponentials, or the one (1, k, k) exponential
# its equal blocks share, all read-only.
Factors = Tuple[np.ndarray, complex, Tuple[Tuple[np.ndarray, np.ndarray], ...]]

# Products on fewer vertices start from the n x n identity; from here on the
# union of the steps' graphs is searched and the product formed in n x c rows.
# On compiled random 3-gate circuits (2 vCPUs, 1 BLAS thread) the n x n loop
# was ahead up to 64 vertices (134 vs 157 us per product at 64, 69 vs 114 us
# at 16) and the split from 128 on (178 vs 295 us at 128, 0.76 vs 3.8 ms at
# 256).
SPLIT_VERTICES = 128

# The most entries of a laid-out block, 8 MiB of complex128: 512, 256 and 128
# columns at 1024, 2048 and 4096 vertices. The column count is rounded down to
# a power of two, so that a block starts where the BLAS kernels' column groups
# start and every entry comes out as it does in one block (OpenBLAS groups 4
# columns; 2-, 3- and 5-column blocks changed the last bits). With one H per
# qubit on 10 qubits (2 vCPUs, 1 BLAS thread), 512-column blocks matched the
# one n x n layout in time, and 128-256-column blocks took 20-40% longer.
BLOCK_ENTRIES = 2**19


def _factors(step: TimedGraph) -> Factors:
    """The step's kernel factors, from the spectrum of its graph: one exponential per decomposition.

    The rate comes from the duration reduced modulo the graph's period, so
    a long periodic step loses no bits to its float angle; a step shorter
    than its period keeps its own. The optimizer's span and final checks
    run through here too, so on a step of at least its period they reduce
    by the same period the rewrites do and cannot catch a wrong one; the
    tests check the period against expm at the unreduced angle.

    A step of a graph without a period has nothing to reduce by and runs
    at its float angle, so a long one loses bits: the path on 4 vertices
    run for (10^12 + 1/2) pi is off by 5.0e-4 from vertex 0, against angles
    reduced mod 2 pi in 60-digit arithmetic. The optimizer's final check
    cannot see this, as both sides exponentiate the same angle, and no
    float kernel could mend it: the float eigenvalues alone put an error
    of about t 2^-52 into the angles at t radians.
    """
    spec = spectrum(step.graph)
    rate = _radians(*_reduced(step.graph, step.pi_num, step.pi_den)) / spec.norm if spec.norm else 0.0
    blocks = []
    for members, (eigenvalues, vectors) in spec.blocks:
        exponential = (vectors * np.exp(-1j * rate * eigenvalues)[..., None, :]) @ np.swapaxes(vectors, -1, -2)
        exponential.flags.writeable = False
        blocks.append((members, exponential))
    return spec.looped, np.exp(-1j * rate), tuple(blocks)


_cached_factors = lru_cache(maxsize=4096)(_factors)


def _run(rows: np.ndarray, steps: Iterable[TimedGraph], factors: Callable[[TimedGraph], Factors]) -> None:
    """Multiply an n x m complex array in place by the steps' product, later steps on the left.

    A shared (1, k, k) exponential broadcasts over the (b, k, m) rows of its
    stack's components.
    """
    for step in steps:
        looped, phase, blocks = factors(step)
        if looped.size:
            rows[looped] *= phase
        for members, exponential in blocks:
            rows[members] = exponential @ rows[members]


def _blocks(
    n_vertices: int, steps: Sequence[TimedGraph], links: Sequence[np.ndarray] = ()
) -> Iterator[Tuple[List[np.ndarray], int, np.ndarray]]:
    """The identity laid out over the union's components, in blocks of columns.

    Yields, per block, the components as (b, k) stacks, the block's first
    column and the block itself: n rows by the largest power of two of
    columns that keeps it within ``BLOCK_ENTRIES`` entries, fewer in the
    last block. Column j of the layout has its ones in the rows of the
    vertices of rank j in their component. Below ``SPLIT_VERTICES`` all
    vertices form one component and the one block is ``np.eye(n)``; an
    empty vertex set has no block. Otherwise the components are those of
    the union of the steps' blocks and of the links, each a (b, k) array
    whose rows are vertex sets to join. A single step with no links takes
    the same path: ``components`` gives back its blocks' vertex arrays,
    byte for byte. A vertex that no component holds is its own, of rank 0.
    """
    if 0 < n_vertices < SPLIT_VERTICES:
        yield [np.arange(n_vertices).reshape(1, -1)], 0, np.eye(n_vertices, dtype=np.complex128)
        return
    groups = [members for step in steps for members, _ in spectrum(step.graph).blocks] + list(links)
    if groups:
        heads = np.concatenate([members[:, :-1] for members in groups], axis=None)
        tails = np.concatenate([members[:, 1:] for members in groups], axis=None)
        _, groups = components(n_vertices, heads, tails)
    rank = np.zeros(n_vertices, dtype=np.intp)
    for members in groups:
        rank[members] = np.arange(members.shape[1])
    width = int(rank.max(initial=-1)) + 1
    block = 1 << max(1, BLOCK_ENTRIES // max(n_vertices, 1)).bit_length() - 1
    for start in range(0, width, block):
        yield groups, start, np.equal.outer(rank, np.arange(start, min(start + block, width))).astype(np.complex128)


def total_unitary(walk: DynamicGraph) -> np.ndarray:
    """Product of all step unitaries, later steps applied on the left, as a dense n x n array.

    Each block of the layout goes into a zeroed result, so the entries
    between components are exact +0.0. When one component holds every
    vertex, its -0.0 become +0.0 as well, so that the bytes are those of
    the product formed on the n x n identity whatever the block count.
    """
    n_vertices, steps = walk.n_vertices, walk.steps
    u = np.zeros((n_vertices, n_vertices), dtype=np.complex128)
    factors = lru_cache(maxsize=None)(_factors)  # each step factored once, whatever the block count
    for groups, start, rows in _blocks(n_vertices, steps):
        _run(rows, steps, factors)
        if not start:
            u.flat[:: n_vertices + 1] = rows[:, 0]  # the diagonal, for the vertices no component holds
        for members in groups:
            columns = members[:, start : start + rows.shape[1]]
            if members.shape[1] == n_vertices:
                np.add(rows, 0.0, out=rows)  # x + 0.0 is x, but -0.0 + 0.0 is +0.0
            u[members[:, :, None], columns[:, None, :]] = rows[members, : columns.shape[1]]
    return u


def prefix_unitaries(
    n_vertices: int, steps: Sequence[TimedGraph], initial: Optional[np.ndarray] = None
) -> List[np.ndarray]:
    """Products of the first k steps for k = 0 .. len(steps), times ``initial`` on the right.

    Later steps apply on the left, as in ``total_unitary``. The first
    product is ``initial`` itself, the identity when it is None, and every
    later one is its own array; the last is that of the whole run. The
    steps' factors come from a cache shared with later calls.
    """
    products = [np.eye(n_vertices, dtype=np.complex128) if initial is None else initial]
    for step in steps:
        products.append(products[-1].copy())
        _run(products[-1], (step,), _cached_factors)
    return products


def run_distance(n_vertices: int, first: Sequence[TimedGraph], second: Sequence[TimedGraph]) -> float:
    """Phase distance of two runs' products, with the factors from the cache.

    Both products are laid out over the components of the union of both
    runs' graphs, so tr(U^dag V) is the sum over the blocks of ``np.vdot``
    of the two runs' blocks.
    """
    overlap = 0
    for _, _, u in _blocks(n_vertices, (*first, *second)):
        v = u.copy()
        _run(u, first, _cached_factors)
        _run(v, second, _cached_factors)
        overlap += np.vdot(u, v)
    return overlap_distance(overlap, n_vertices)


def laid_out_unitary(walk: DynamicGraph, links: Sequence[np.ndarray]) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The walk's product laid out over the union of its graphs and the links, as (identity, product) blocks.

    A product with any other unitary that mixes only vertices the links
    join stays in that layout, and the diagonal of the product sits where
    the identity block holds its ones. The factors are computed once per
    call and kept until the last block, not cached across calls.
    """
    factors = lru_cache(maxsize=None)(_factors)
    for _, _, identity in _blocks(walk.n_vertices, walk.steps, links):
        rows = identity.copy()
        _run(rows, walk.steps, factors)
        yield identity, rows


def evolve_state(walk: DynamicGraph, state: np.ndarray) -> np.ndarray:
    """Run the program on a state, one step at a time."""
    psi = np.array(state, dtype=np.complex128)
    if psi.shape != (walk.n_vertices,):
        raise ValueError(f"state has shape {psi.shape}, expected ({walk.n_vertices},)")
    _run(psi.reshape(-1, 1), walk.steps, _factors)
    return psi


def _arcs(graph: Graph) -> List[Tuple[int, int]]:
    """The nonzero entries (i, j) of the adjacency matrix: each edge both ways, each loop once."""
    return [*graph.edges, *((j, i) for i, j in graph.edges), *((v, v) for v in graph.loops)]


def graphs_commute(a: Graph, b: Graph) -> bool:
    """Exact test of whether two adjacency matrices commute, from the edge lists.

    Write A = D + E, D the diagonal of A (its loops) and E its edges. When
    no edge of A touches a vertex that carries an edge or loop of B, E is
    zero outside the rows and columns of A's edge ends and B is zero in
    them, so EB = 0 = BE and AB - BA = DB - BD, whose entry (u, v) is
    (D_uu - D_vv) B_uv. So A and B commute exactly when each edge of B
    has both ends looped in A or neither. The rule is tried with each
    graph as A; it decides, among others, support-disjoint pairs and
    every pair with a side without edges. For any other pair, equal
    graphs included, (AB)_ij counts the walks i -A- k -B- j, with a loop
    as a vertex's own neighbour. (AB)^T = BA, so AB = BA exactly when
    those counts are symmetric.
    """
    if a.n_vertices != b.n_vertices:
        raise ValueError("vertex sets differ")
    for first, other in ((a, b), (b, a)):
        if first._endpoints.isdisjoint(other._endpoints) and first._endpoints.isdisjoint(other.loops):
            return all((i in first.loops) == (j in first.loops) for i, j in other.edges)
    onward = defaultdict(list)
    for k, j in _arcs(b):
        onward[k].append(j)
    walks = Counter((i, j) for i, k in _arcs(a) for j in onward[k])
    return all(walks[j, i] == count for (i, j), count in walks.items())
