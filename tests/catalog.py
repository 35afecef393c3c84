"""Step recovery from state tables, used by the trace tests.

Given a list of intermediate states, recover a walk program realizing them
by matching each consecutive state change against a catalog of candidate
steps on eight vertices: loop subsets, partial matchings, and walks on
sub-hypercubes, at quarter-pi durations below each family's period.

When an arrow matches nothing, the matcher tries a two step bridge. A left
bridge replaces the previously matched step and spans from two states back,
which recovers from a false positive match: a diagonal arrow can look like
a plain phase step even when the printed state it leads to is wrong. A
right bridge spans the next state instead. Anything still unmatched is
recorded as a barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from dynwalk.graph_model import DynamicGraph, Graph, TimedGraph
from dynwalk.walk_engine import total_unitary

N_VERTICES = 8
_QUARTERS_FULL_TURN = 8


def _unitary_key(u: np.ndarray) -> bytes:
    return (np.round(u, 6) + 0.0).tobytes()


@dataclass(frozen=True, eq=False)
class Entry:
    """One candidate step and its precomputed unitary."""

    family: str
    graph: Graph
    duration: Fraction
    unitary: np.ndarray

    @property
    def step(self) -> TimedGraph:
        return TimedGraph(self.graph, self.duration)


def _loop_sets() -> List[Tuple[int, ...]]:
    out = []
    for mask in range(1, 2**N_VERTICES):
        out.append(tuple(v for v in range(N_VERTICES) if mask & (1 << v)))
    out.sort()
    return out


def _pair_sets() -> List[Tuple[Tuple[int, int], ...]]:
    def extend(vertices: Tuple[int, ...]) -> List[Tuple[Tuple[int, int], ...]]:
        if len(vertices) < 2:
            return [()]
        first, rest = vertices[0], vertices[1:]
        results = list(extend(rest))
        for index, partner in enumerate(rest):
            remaining = rest[:index] + rest[index + 1 :]
            for tail in extend(remaining):
                results.append(((first, partner),) + tail)
        return results

    all_sets = {tuple(sorted(pairs)) for pairs in extend(tuple(range(N_VERTICES)))}
    all_sets.discard(())
    return sorted(all_sets)


def _cube_masks() -> List[Tuple[int, ...]]:
    singles = (1, 2, 4)
    out = []
    for size in (2, 3):
        from itertools import combinations

        out.extend(sorted(combinations(singles, size)))
    return out


def _cube_graph(masks: Sequence[int]) -> Graph:
    edges = {
        (v, v ^ m) for m in masks for v in range(N_VERTICES) if v < v ^ m
    }
    return Graph.make(N_VERTICES, edges=edges)


def _cube_period_quarters(dimension: int) -> int:
    # Normalized spectra: {0, +-1} for a pair of squares, {+-1, +-1/3}
    # for the full cube, so the walks repeat after 2 pi and 6 pi.
    if dimension == 2:
        return _QUARTERS_FULL_TURN
    assert dimension == 3
    return 3 * _QUARTERS_FULL_TURN


def build_catalog() -> List[Entry]:
    entries: List[Entry] = []

    def add(family: str, graph: Graph, quarters: int) -> None:
        duration = Fraction(quarters, 4)
        entries.append(
            Entry(family, graph, duration, total_unitary(DynamicGraph(graph.n_vertices, (TimedGraph(graph, duration),))))
        )

    for quarters in range(1, _QUARTERS_FULL_TURN):
        for loops in _loop_sets():
            add("loops", Graph.make(N_VERTICES, loops=loops), quarters)
    for quarters in range(1, _QUARTERS_FULL_TURN):
        for pairs in _pair_sets():
            add("matching", Graph.make(N_VERTICES, edges=pairs), quarters)
    cube_sets = _cube_masks()
    for quarters in range(1, 3 * _QUARTERS_FULL_TURN):
        for masks in cube_sets:
            if quarters < _cube_period_quarters(len(masks)):
                add("cube", _cube_graph(masks), quarters)
    return entries


class Catalog:
    def __init__(self) -> None:
        self.entries = build_catalog()
        self.by_unitary: Dict[bytes, int] = {}
        for index, entry in enumerate(self.entries):
            self.by_unitary.setdefault(_unitary_key(entry.unitary), index)

    def match_single(self, arrow: np.ndarray) -> Optional[Entry]:
        index = self.by_unitary.get(_unitary_key(arrow))
        return None if index is None else self.entries[index]

    def match_pair(self, arrow: np.ndarray) -> Optional[Tuple[Entry, Entry]]:
        """Cheapest (first, second) with second @ first == arrow, or None."""
        best = None
        for index1, first in enumerate(self.entries):
            remainder = arrow @ first.unitary.conj().T
            index2 = self.by_unitary.get(_unitary_key(remainder))
            if index2 is None:
                continue
            second = self.entries[index2]
            total = first.duration + second.duration
            rank = (total, index1, index2)
            if best is None or rank < best[0]:
                best = (rank, first, second)
        if best is None:
            return None
        return best[1], best[2]


MATCHED = "matched"
BRIDGED = "bridged"
BARRIER = "barrier"


@dataclass
class Reconstruction:
    n_vertices: int
    steps: List[Optional[TimedGraph]] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)

    @property
    def barrier_count(self) -> int:
        return self.kinds.count(BARRIER)

    @property
    def bridged_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, kind in enumerate(self.kinds) if kind == BRIDGED)

    def total_time(self) -> Fraction:
        return self.program().total_time()

    def program(self) -> DynamicGraph:
        if self.barrier_count:
            raise ValueError("reconstruction has unmatched arrows")
        return DynamicGraph(self.n_vertices, tuple(self.steps))


def reconstruct(trace: Sequence[np.ndarray], catalog: Optional[Catalog] = None) -> Reconstruction:
    """Recover a step program whose partial products are the given states."""
    catalog = catalog or Catalog()
    result = Reconstruction(n_vertices=trace[0].shape[0])
    position = 1
    while position < len(trace):
        arrow = trace[position] @ trace[position - 1].conj().T
        entry = catalog.match_single(arrow)
        if entry is not None:
            result.steps.append(entry.step)
            result.kinds.append(MATCHED)
            position += 1
            continue
        if result.kinds and result.kinds[-1] == MATCHED:
            span = trace[position] @ trace[position - 2].conj().T
            pair = catalog.match_pair(span)
            if pair is not None:
                result.steps[-1] = pair[0].step
                result.kinds[-1] = BRIDGED
                result.steps.append(pair[1].step)
                result.kinds.append(BRIDGED)
                position += 1
                continue
        if position + 1 < len(trace):
            span = trace[position + 1] @ trace[position - 1].conj().T
            pair = catalog.match_pair(span)
            if pair is not None:
                result.steps.extend([pair[0].step, pair[1].step])
                result.kinds.extend([BRIDGED, BRIDGED])
                position += 2
                continue
        result.steps.append(None)
        result.kinds.append(BARRIER)
        position += 1
    return result
