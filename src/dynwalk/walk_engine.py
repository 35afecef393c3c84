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
k. Applying a step to an n x m matrix therefore costs O(n k m), and a
connected graph is simply one block. ``evolve_state`` costs O(n k) per
step.

Every product of steps starts from ``_layout``, which decides its form
from the vertex count alone. Below ``SPLIT_VERTICES`` the steps apply to
the n x n identity. From there on, since no step mixes two components of
the union of the steps' graphs and the product is zero between them, the
steps apply to an n x c array, c the largest union component size: row
v holds row v of the product on v's component. That costs O(n c k) per
step, plus a search of the union; for a connected union the array is
n x n. This is the only module that turns steps into matrices, and
``_layout`` has three readers:

* ``_product`` writes each block into a zeroed n x n result, so the
  entries between components are exact +0.0, for ``step_unitary`` and
  ``total_unitary``;
* ``run_distance`` compares two runs up to a global phase without the
  n x n result: it lays both products out over the union of both runs'
  graphs, so tr(U^dag V) is ``np.vdot`` of the two layouts. ``equiv``
  and the optimizer's span and final checks read it;
* ``laid_out_unitary`` returns the layout itself, over the union of the
  steps' graphs and some extra vertex pairs, with the column of each
  diagonal entry. ``compile`` passes the pairs its circuit's gates mix
  (``gate_compiler.mixing_pairs``), so that ``circuit_distance`` can
  undo the gates on the rows and read the trace off them.

The last two form no n x n array from ``SPLIT_VERTICES`` on, unless the
union is connected.

Two readers keep each step's factors in one ``lru_cache``, since the
steps of one optimization recur across its calls: ``run_distance``, and
so ``equiv`` and the optimizer's span and final checks, and
``prefix_unitaries``, which gives the products of every prefix of a run
on the n x n identity or a given starting product, for the
Hadamard-layer fragments. Every other product computes the factors per
call: the whole-program functions (``total_unitary``,
``laid_out_unitary``, ``evolve_state``, and so the ``compile``,
``unitary`` and ``simulate`` commands), so a compile of a wide circuit
holds no factors beyond the step it applies, and ``step_unitary``, the
dense unitary of one step, which the optimizer reads to classify a step
as a phased permutation. The optimizer reads column 0 of a compiled
Hadamard layer through ``evolve_state`` of vertex 0, once per layer, and
compares a fragment with the layer's gate through
``gate_compiler.circuit_distance``, so it asks this module for no layer
product.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph_model import DynamicGraph, Graph, TimedGraph, components, radians, spectrum
from .numerics import overlap_distance

__all__ = [
    "step_unitary",
    "total_unitary",
    "prefix_unitaries",
    "run_distance",
    "laid_out_unitary",
    "evolve_state",
    "graphs_commute",
]

# The looped singletons, their phase, and each block stack's vertices with
# the stack's exponentials, all read-only.
Factors = Tuple[np.ndarray, complex, Tuple[Tuple[np.ndarray, np.ndarray], ...]]

# Products on fewer vertices start from the n x n identity; from here on the
# union of the steps' graphs is searched and the product formed in n x c rows.
# On compiled random 3-gate circuits (2 vCPUs, 1 BLAS thread) the n x n loop
# was ahead up to 64 vertices (134 vs 157 us per product at 64, 69 vs 114 us
# at 16) and the split from 128 on (178 vs 295 us at 128, 0.76 vs 3.8 ms at
# 256).
SPLIT_VERTICES = 128


def _factors(step: TimedGraph) -> Factors:
    """The step's kernel factors, from the spectrum of its graph."""
    spec = spectrum(step.graph)
    rate = radians(step.duration) / spec.norm if spec.norm else 0.0
    blocks = []
    for members, (eigenvalues, vectors) in spec.blocks:
        exponential = (vectors * np.exp(-1j * rate * eigenvalues)[..., None, :]) @ np.swapaxes(vectors, -1, -2)
        exponential.flags.writeable = False
        blocks.append((members, exponential))
    return spec.looped, np.exp(-1j * rate), tuple(blocks)


_cached_factors = lru_cache(maxsize=4096)(_factors)


def _apply_step(factors: Factors, rows: np.ndarray) -> None:
    """Multiply an n x m complex array in place by the unitary of a step's factors."""
    looped, phase, blocks = factors
    if looped.size:
        rows[looped] *= phase
    for members, exponential in blocks:
        rows[members] = exponential @ rows[members]


def _layout(
    n_vertices: int, steps: Sequence[TimedGraph], links: Sequence[np.ndarray] = ()
) -> Tuple[Optional[List[np.ndarray]], np.ndarray]:
    """The components of the union of the steps' graphs and the links, and the identity laid out over them.

    Below ``SPLIT_VERTICES`` there are no components, and the identity is
    n x n. Otherwise it is an n x c array, c the largest component size:
    row v holds row v of a product on v's component, column j its j-th
    vertex in vertex order. The union's components come from the members
    of the steps' blocks and the rows of the links, each a (b, k) array
    whose rows are vertex sets to join; a single step's blocks, with no
    links, are its components.
    """
    if n_vertices < SPLIT_VERTICES:
        return None, np.eye(n_vertices, dtype=np.complex128)
    groups = [members for step in steps for members, _ in spectrum(step.graph).blocks]
    groups += links
    if (len(steps) > 1 or len(links)) and groups:
        heads = np.concatenate([members[:, :-1] for members in groups], axis=None)
        tails = np.concatenate([members[:, 1:] for members in groups], axis=None)
        _, groups = components(n_vertices, heads, tails)
    width = max((members.shape[1] for members in groups), default=min(n_vertices, 1))
    identity = np.zeros((n_vertices, width), dtype=np.complex128)
    identity[:, 0] = 1.0
    for members in groups:
        identity[members] = np.eye(members.shape[1], width)
    return groups, identity


def _product(n_vertices: int, steps: Sequence[TimedGraph]) -> np.ndarray:
    """Product of the steps, later steps on the left, as a dense n x n array.

    No step mixes two components of the union of the steps' graphs, so the
    product is exact +0.0 between them: the split writes each block into a
    zeroed result, and the n x n loop's -0.0 there become +0.0.
    """
    groups, rows = _layout(n_vertices, steps)
    for step in steps:
        _apply_step(_factors(step), rows)
    if rows.shape[1] == n_vertices:
        return np.add(rows, 0.0, out=rows)  # x + 0.0 is x, but -0.0 + 0.0 is +0.0
    u = np.zeros((n_vertices, n_vertices), dtype=np.complex128)
    u.flat[:: n_vertices + 1] = rows[:, 0]  # the diagonal, for the vertices no component holds
    for members in groups:
        u[members[:, :, None], members[:, None, :]] = rows[members, : members.shape[1]]
    return u


def step_unitary(step: TimedGraph) -> np.ndarray:
    """Unitary of one timed graph step, as a dense matrix, with the factors computed per call.

    The optimizer classifies a step as a phased permutation from it.
    """
    return _product(step.graph.n_vertices, (step,))


def total_unitary(walk: DynamicGraph) -> np.ndarray:
    """Product of all step unitaries, later steps applied on the left."""
    return _product(walk.n_vertices, walk.steps)


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
        u = products[-1].copy()
        _apply_step(_cached_factors(step), u)
        products.append(u)
    return products


def run_distance(n_vertices: int, first: Sequence[TimedGraph], second: Sequence[TimedGraph]) -> float:
    """Phase distance of two runs' products, with the factors from the cache.

    Both products are laid out over the components of the union of both
    runs' graphs, so tr(U^dag V) is ``np.vdot`` of the two layouts, and no
    n x n array is formed from ``SPLIT_VERTICES`` on.
    """
    _, u = _layout(n_vertices, (*first, *second))
    v = u.copy()
    for rows, run in ((u, first), (v, second)):
        for step in run:
            _apply_step(_cached_factors(step), rows)
    return overlap_distance(np.vdot(u, v), n_vertices)


def laid_out_unitary(walk: DynamicGraph, links: Sequence[np.ndarray]) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The walk's product laid out over the union of its graphs and the links, and its diagonal's columns.

    Below ``SPLIT_VERTICES`` the product is the n x n ``total_unitary``, up
    to the sign of its zeros, and there are no columns. From there on it is
    the n x c layout of ``_layout``, so that a product with any other
    unitary that mixes only vertices the links join stays in that layout,
    and entry (v, v) sits in column ``columns[v]``, the rank of v in its
    component. The factors are computed per call, as in ``total_unitary``.
    """
    groups, rows = _layout(walk.n_vertices, walk.steps, links)
    for step in walk.steps:
        _apply_step(_factors(step), rows)
    if groups is None:
        return rows, None
    columns = np.zeros(walk.n_vertices, dtype=np.intp)
    for members in groups:
        columns[members] = np.arange(members.shape[1])
    return rows, columns


def evolve_state(walk: DynamicGraph, state: np.ndarray) -> np.ndarray:
    """Run the program on a state, one step at a time."""
    psi = np.array(state, dtype=np.complex128)
    if psi.shape != (walk.n_vertices,):
        raise ValueError(f"state has shape {psi.shape}, expected ({walk.n_vertices},)")
    column = psi.reshape(-1, 1)
    for step in walk.steps:
        _apply_step(_factors(step), column)
    return psi


def _arcs(graph: Graph) -> List[Tuple[int, int]]:
    """The nonzero entries (i, j) of the adjacency matrix: each edge both ways, each loop once."""
    return [*graph.edges, *((j, i) for i, j in graph.edges), *((v, v) for v in graph.loops)]


def graphs_commute(a: Graph, b: Graph) -> bool:
    """Exact test of whether two adjacency matrices commute, from the edge lists.

    (AB)_ij counts the walks i -A- k -B- j, with a loop as a vertex's own
    neighbour. (AB)^T = BA, so AB = BA exactly when those counts are
    symmetric.
    """
    if a.n_vertices != b.n_vertices:
        raise ValueError("vertex sets differ")
    onward = defaultdict(list)
    for k, j in _arcs(b):
        onward[k].append(j)
    walks = Counter((i, j) for i, k in _arcs(a) for j in onward[k])
    return all(walks[j, i] == count for (i, j), count in walks.items())
