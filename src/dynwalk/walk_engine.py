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

``total_unitary`` and ``step_unitary`` split the same way across steps.
No step mixes two components of the union of the program's graphs, so
the product is zero between them, and it is built as an n x c array, c
the largest union component size: row v holds row v of the product on
v's component. That costs O(n c k) per step, plus writing each block
into the zeroed n x n result; for a connected union the array starts as
the n x n identity and is the result. This is the only module that turns
steps into matrices.

The optimizer reads its products through two functions that keep each
step's factors in one ``lru_cache``, since the steps of one optimization
recur across its calls. ``prefix_unitaries`` gives the products of every
prefix of a run of steps: the optimizer calls it once for each walk whose
Hadamard-layer fragments it reads, and once for the window of each
enabling candidate, whose other prefixes it shares with the walk the
candidate moves. ``run_unitary`` gives the product of one run: a step it
classifies, both sides of a span it verifies, a Hadamard layer it
compiles, and its input and output for the final check. Both apply the
steps to the n x n identity (or, for ``prefix_unitaries``, to a given
starting product), so they are ``total_unitary``'s arithmetic bit for
bit when the union of the steps' graphs is connected, and equal to it up
to rounding otherwise. The whole-program functions
(``step_unitary``, ``total_unitary``, ``evolve_state``, and so the
``compile``, ``equiv``, ``unitary`` and ``simulate`` commands) compute
the factors per call, so a compile or equiv of a wide circuit holds no
factors beyond the step it applies.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph_model import DynamicGraph, Graph, TimedGraph, components, radians, spectrum

__all__ = [
    "step_unitary",
    "total_unitary",
    "prefix_unitaries",
    "run_unitary",
    "evolve_state",
    "graphs_commute",
]

# The looped singletons, their phase, and each block stack's vertices with
# the stack's exponentials, all read-only.
Factors = Tuple[np.ndarray, complex, Tuple[Tuple[np.ndarray, np.ndarray], ...]]


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


def _product(n_vertices: int, steps: Sequence[TimedGraph]) -> np.ndarray:
    """Product of the steps, later steps on the left, one union component at a time.

    No step mixes vertices of two components of the union of the steps'
    graphs, so the product is zero between them. The steps apply to an
    n x c array, c the largest union component size: row v holds row v of
    the product on v's component, column j its j-th vertex in vertex
    order. Each block is then written into a zeroed n x n result. The
    union's components come from the members of the steps' blocks; a
    single step's blocks are its components. A connected union starts
    from the n x n identity, which then holds the whole product.
    """
    groups = [members for step in steps for members, _ in spectrum(step.graph).blocks]
    if len(steps) > 1 and groups:
        heads = np.concatenate([members[:, :-1] for members in groups], axis=None)
        tails = np.concatenate([members[:, 1:] for members in groups], axis=None)
        _, groups = components(n_vertices, heads, tails)
    width = max((members.shape[1] for members in groups), default=min(n_vertices, 1))
    rank = np.zeros(n_vertices, dtype=np.intp)
    for members in groups:
        rank[members] = np.arange(members.shape[1])
    everyone = np.arange(n_vertices)
    rows = np.zeros((n_vertices, width), dtype=np.complex128)
    rows[everyone, rank] = 1.0
    for step in steps:
        _apply_step(_factors(step), rows)
    if width == n_vertices:
        return rows
    u = np.zeros((n_vertices, n_vertices), dtype=np.complex128)
    u[everyone, everyone] = rows[:, 0]
    for members in groups:
        u[members[:, :, None], members[:, None, :]] = rows[members, : members.shape[1]]
    return u


def step_unitary(step: TimedGraph) -> np.ndarray:
    """Unitary of one timed graph step, as a dense matrix."""
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


def run_unitary(n_vertices: int, steps: Sequence[TimedGraph]) -> np.ndarray:
    """Product of a run of steps on the n x n identity, with the factors from the cache."""
    u = np.eye(n_vertices, dtype=np.complex128)
    for step in steps:
        _apply_step(_cached_factors(step), u)
    return u


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
