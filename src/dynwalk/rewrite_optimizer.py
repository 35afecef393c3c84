"""Verified rewrite rules and the walk simplification driver.

Six rewrite rules shrink a walk program without changing its total unitary
(up to global phase):

* SWAP_COMMUTING: adjacent steps whose adjacency matrices commute exchange
  places. Cost-neutral; the driver uses it only to unlock other rules.
* MERGE_IDENTICAL: adjacent steps on the same graph fuse; the summed
  duration reduces modulo the graph's period and the step vanishes when
  the reduction hits zero.
* COMBINE_PST: a run of steps that each act as a permutation with clean
  phases (loops-only steps, matchings at multiples of pi/2, phase * X_mask
  walks) and whose product permutes by an involution collapses to one
  quarter-period matching on its 2-cycles plus the loop staircase paying
  the exact remaining phases. Runs of phase * X_mask steps go in the
  regular scan and become the matching on the XOR of the masks plus at
  most one loop graph; a run of loops-only steps is the identity case and
  becomes the descending staircase of its phase totals, recorded as
  MOVE_SINGLETON; other runs are folded only as a last resort.
* MERGE_COMPLEMENTARY: adjacent steps on support-disjoint graphs of equal
  spectral norm overlap: the union graph runs for the shorter duration,
  and the longer graph alone finishes the difference.
* MOVE_SINGLETON: a looped, edge-free vertex carries a pure phase, which
  can migrate along steps that leave the vertex edge-free and deposit into
  another step's loop structure.
* HYPERCUBE_HADAMARD: a fragment equal (up to phase) to Hadamards on a
  bit subset is replaced by the staircase/walk/staircase realization when
  that is strictly cheaper.

Each rule is a verdict on the steps it reads: a function of those steps
(and the vertex count where it needs one) that returns the steps that
replace them, or a string that says why the rule does not apply there.
The driver works from one table of rule sites, which the site generators
build from the verdicts. A site is a span [start, stop) of the program,
the steps that would replace it and a note for the report. Only the
driver prices a site, from the span alone, records it and splices it in.
Cost is lexicographic (total time, then graph count) and every accepted
step strictly decreases it, so the driver terminates.
When no rule fires, the driver scans the last-resort rows (the wider
COMBINE_PST fold), and when those find nothing either it spends a bounded
search on cost-neutral enabling moves (commuting swaps of adjacent
blocks, singleton moves, or neutral phased bit-flip folds) that let a
strictly improving rewrite land immediately after. The fold waits so that
it never preempts the regular rules, the loop staircase among them: its
spans start early and reach far, and the scan takes the leftmost position.

A rewrite that fails verification is skipped from then on, on every walk,
by what the verification reads: the steps of its span and their
replacement. The enabling search runs only when every improving site of
the walk is skipped, and a neutral move keeps its span's time, graph
count and unitary (up to phase). So after a move on the window
[start, stop) only sites whose verdict reads the window can have become
improving or lost their skip, and the follow-up scan offers only those:
every site inside the window, the merges at start - 1, the
phased-permutation and loops-only runs that reach start (a run's verdict
reads the step that ends it), the singleton moves whose stretch from
source to target crosses the window (the steps between keep the target
inside the corridor), and the Hadamard-layer fragments that hold part of
the window but not all of it. The leftmost best of those is the site the
full scan would take, whatever the skip set. A move that leaves its span
as it was is never tried. A site is priced in one integer sum over the
durations of the span and of its replacement.

The rescanned walks differ from the current one only where a neutral
move changed them, so the rules keep their step-local verdicts in
module-level ``lru_cache``s keyed on the steps they read: the merges of
two steps (``_merge_identical``, ``_merge_complementary``), what a
looped singleton carries out of a step (``_singleton_source``, on the
source step and the vertex), what a target step becomes when it absorbs
that phase (``_singleton_landing``, on the target step, the vertex and
the phase), the fold of a run of phased permutations (``_fold``, on the
vertex count and the run's steps), and the unitary and
phased-permutation form of each step. ``_cached_commute`` keeps the
verdict of ``walk_engine.graphs_commute`` per graph pair for the block
swaps. Only the Hadamard-layer verdict (``_hypercube_hadamard``) is not
cached, as it reads the fragment's product; ``_hadamard_layer`` keeps
the compiled layer, its cost and its read-only dense product per target
set and qubit count. Apart from the step and layer unitaries the caches
hold steps and small tuples, never span products. A singleton site is
built straight from the two singleton verdicts, for the targets of the
corridor only: outward from the source on each side, up to and including
the first step that attaches an edge to the vertex, since that step
blocks every target beyond it. The Hadamard-layer sites build the
products of all fragments from one start in a single sweep and try them
longest first, skipping fragments made only of phased permutations:
their product is a phased permutation, never a Hadamard layer. The
layer's cost is checked before the dense comparison.

Every accepted rewrite is verified on its span alone. With Q the product
of the steps before the span, P that of the steps after it, and S, S' the
old and new span products, tr((P S Q)^dag P S' Q) = tr(S^dag S'), so the
phase distance of the two spans is exactly that of the two programs. A
failure rolls back and is reported rather than silently kept. At the end
``optimize`` compares the total unitaries of its input and its output,
which also covers the period reductions of the normalization, and reports
that distance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .gate_compiler import bit_value, compile_hadamard_layer, schedule_phases
from .graph_model import (
    DynamicGraph,
    Graph,
    TimedGraph,
    format_angle,
    period,
    radians,
    rationalize,
    spectrum,
    supports_disjoint,
)
from .numerics import VERIFY_TOLERANCE, phase_distance
from .walk_engine import graphs_commute, step_unitary, total_unitary

__all__ = [
    "RULE_SWAP_COMMUTING",
    "RULE_MERGE_IDENTICAL",
    "RULE_COMBINE_PST",
    "RULE_MERGE_COMPLEMENTARY",
    "RULE_MOVE_SINGLETON",
    "RULE_HYPERCUBE_HADAMARD",
    "ALL_RULES",
    "RewriteStep",
    "OptimizationReport",
    "optimize",
]

RULE_SWAP_COMMUTING = "SWAP_COMMUTING"
RULE_MERGE_IDENTICAL = "MERGE_IDENTICAL"
RULE_COMBINE_PST = "COMBINE_PST"
RULE_MERGE_COMPLEMENTARY = "MERGE_COMPLEMENTARY"
RULE_MOVE_SINGLETON = "MOVE_SINGLETON"
RULE_HYPERCUBE_HADAMARD = "HYPERCUBE_HADAMARD"
RULE_NORMALIZE_TIME = "NORMALIZE_TIME"
RULE_DROP_ZERO = "DROP_ZERO"

STOP_FIXPOINT = "fixpoint"
STOP_ITERATION_CAP = "iteration cap"
STOP_REJECTION_CAP = "rejection cap"

ALL_RULES = (
    RULE_SWAP_COMMUTING,
    RULE_MERGE_IDENTICAL,
    RULE_COMBINE_PST,
    RULE_MERGE_COMPLEMENTARY,
    RULE_MOVE_SINGLETON,
    RULE_HYPERCUBE_HADAMARD,
)

NORM_TOLERANCE = 1e-9
PHASE_DENOMINATOR_LIMIT = 64


@dataclass(frozen=True)
class RewriteStep:
    """One accepted rewrite: which rule, where, and what it bought."""

    rule: str
    span: Tuple[int, int]
    time_saved: Fraction
    graphs_removed: int
    detail: str = ""


@dataclass(frozen=True)
class OptimizationReport:
    initial_time: Fraction
    final_time: Fraction
    initial_count: int
    final_count: int
    rewrites: Tuple[RewriteStep, ...]
    rejected: Tuple[str, ...] = ()
    # phase distance between the total unitaries of the input and the output
    phase_distance: float = 0.0
    # STOP_FIXPOINT when no rule found another rewrite; when the cap on
    # tried changes ended the loop first, STOP_ITERATION_CAP if the last
    # change was accepted and STOP_REJECTION_CAP if it was rolled back
    stop_reason: str = STOP_FIXPOINT

    @property
    def verified(self) -> bool:
        return not self.rejected

    def to_dict(self) -> dict:
        def angle(a: Fraction) -> dict:
            return {
                "pi_num": a.numerator,
                "pi_den": a.denominator,
                "text": format_angle(a),
                "radians": radians(a),
            }

        return {
            "initial": {"time": angle(self.initial_time), "graphs": self.initial_count},
            "final": {"time": angle(self.final_time), "graphs": self.final_count},
            "rewrites": [
                {
                    "rule": step.rule,
                    "span": list(step.span),
                    "time_saved": angle(step.time_saved),
                    "graphs_removed": step.graphs_removed,
                    "detail": step.detail,
                }
                for step in self.rewrites
            ],
            "rejected": list(self.rejected),
            "verified": self.verified,
            "stop_reason": self.stop_reason,
        }


@lru_cache(maxsize=8192)
def _cached_step_unitary(step: TimedGraph) -> np.ndarray:
    return step_unitary(step)


class PhasedPermutation(NamedTuple):
    """A step unitary with a single unit entry in each column.

    Column j holds exp(-i pi angles[j]) in row perm[j] and zeros elsewhere.
    ``bitflip`` tells whether the step is phase * X_mask: one angle, and
    row = column XOR mask for one mask.
    """

    perm: Tuple[int, ...]
    angles: Tuple[Fraction, ...]
    bitflip: bool


@lru_cache(maxsize=8192)
def _cached_permutation(step: TimedGraph) -> Optional[PhasedPermutation]:
    """The step as a phased permutation with clean angles, else None.

    A loops-only step is exactly the identity with angle duration mod 2pi
    on each looped vertex and 0 elsewhere, whatever the denominator. Any
    other step has each column's largest entry fix its row and, through
    _phase_angle, its angle; the rebuilt matrix is then checked against the
    step unitary to VERIFY_TOLERANCE. Matchings at multiples of pi/2 pass,
    among others, at denominators up to PHASE_DENOMINATOR_LIMIT.
    """
    n = step.graph.n_vertices
    if step.graph.is_loops_only:
        phase = step.duration % 2
        diagonal = tuple(phase if v in step.graph.loops else Fraction(0) for v in range(n))
        return PhasedPermutation(tuple(range(n)), diagonal, len(set(diagonal)) == 1)
    u = _cached_step_unitary(step)
    rows = np.abs(u).argmax(axis=0)
    if len(set(rows.tolist())) != n:
        return None
    angles: List[Fraction] = []
    for column, row in enumerate(rows):
        angle = _phase_angle(complex(u[row, column]))
        if angle is None:
            return None
        angles.append(angle)
    expected = np.zeros_like(u)
    expected[rows, np.arange(n)] = np.exp(-1j * math.pi * np.array([float(a) for a in angles]))
    if np.abs(u - expected).max() > VERIFY_TOLERANCE:
        return None
    bitflip = len(set(angles)) == 1 and np.array_equal(rows, np.arange(n) ^ rows[0])
    return PhasedPermutation(tuple(rows.tolist()), tuple(angles), bitflip)


@lru_cache(maxsize=4096)
def _cached_period(graph: Graph) -> Optional[Fraction]:
    return period(graph)


@lru_cache(maxsize=8192)
def _cached_commute(a: Graph, b: Graph) -> bool:
    return graphs_commute(a, b)


def _product(n_vertices: int, steps: Iterable[TimedGraph]) -> np.ndarray:
    """Unitary of a run of steps, later steps applied on the left."""
    u = np.eye(n_vertices, dtype=np.complex128)
    for step in steps:
        u = _cached_step_unitary(step) @ u
    return u


def _span_time(steps: Sequence[TimedGraph], minus: Sequence[TimedGraph] = ()) -> Fraction:
    """Total duration of the steps less that of ``minus``, as integers over one denominator."""
    durations = [(step.duration.numerator, step.duration.denominator) for step in steps]
    durations += [(-step.duration.numerator, step.duration.denominator) for step in minus]
    den = math.lcm(*(d for _, d in durations))
    return Fraction(sum(n * (den // d) for n, d in durations), den)


def _reduced(duration: Fraction, cycle: Optional[Fraction]) -> Fraction:
    """The duration modulo a period; aperiodic (None) keeps it, period 0 zeroes it."""
    if cycle is None:
        return duration
    return duration % cycle if cycle else Fraction(0)


def _phase_angle(target: complex) -> Optional[Fraction]:
    """Exact angle theta in [0, 2pi) with exp(-i theta) = target, or None."""
    if abs(abs(target) - 1.0) > VERIFY_TOLERANCE:
        return None
    theta = (-cmath.phase(target)) % (2.0 * math.pi)
    guess = Fraction(theta / math.pi).limit_denominator(PHASE_DENOMINATOR_LIMIT) % 2
    if abs(cmath.exp(-1j * math.pi * float(guess)) - target) > VERIFY_TOLERANCE:
        return None
    return guess


# A verdict is what a rule computed from the steps it reads, or the reason
# (a string) it does not apply there. The cached verdicts below are keyed on
# those steps alone, so every walk that shares them shares the answer.
SourceVerdict = Union[str, Tuple[Fraction, Tuple[TimedGraph, ...]]]
StepsVerdict = Union[str, Tuple[TimedGraph, ...]]


@lru_cache(maxsize=4096)
def _merge_identical(first: TimedGraph, second: TimedGraph) -> StepsVerdict:
    """Fuse adjacent steps on the same graph, reducing modulo the period."""
    if first.graph != second.graph:
        return "graphs differ"
    total = _reduced(first.duration + second.duration, _cached_period(first.graph))
    return (TimedGraph(first.graph, total),) if total else ()


@lru_cache(maxsize=4096)
def _fold(n: int, run: Tuple[TimedGraph, ...]) -> StepsVerdict:
    """Collapse a run of phased-permutation steps into matching + staircase.

    Every step of the run must act as a permutation with a clean fraction
    of pi as the phase of each entry (see _cached_permutation). The run
    composes exactly to D P, with D diagonal; P must be an involution. The
    replacement is a quarter-period matching on the 2-cycles of P (-i X on
    each pair) followed by the loop staircase that pays each vertex's
    remaining phase, or just the staircase when P is the identity. A run
    of phase * X_mask steps thus becomes the matching on the XOR of the
    masks plus at most one all-loops graph.
    """
    # column j of the run's product holds exp(-i pi angles[j]) in row perm[j]
    perm = list(range(n))
    angles = [Fraction(0)] * n
    for step in run:
        flip = _cached_permutation(step)
        if flip is None:
            return "step is not a phased permutation"
        angles = [angle + flip.angles[row] for angle, row in zip(angles, perm)]
        perm = [flip.perm[row] for row in perm]
    if any(perm[row] != column for column, row in enumerate(perm)):
        return "the run's permutation is not an involution"
    pairs = [(column, row) for column, row in enumerate(perm) if column < row]
    replacement: Tuple[TimedGraph, ...] = ()
    if pairs:
        replacement = (TimedGraph(Graph.make(n, pairs), Fraction(1, 2)),)
    residue = {
        row: (angle - (Fraction(1, 2) if row != column else 0)) % 2
        for column, (row, angle) in enumerate(zip(perm, angles))
    }
    return replacement + schedule_phases(residue, n)


@lru_cache(maxsize=4096)
def _merge_complementary(first: TimedGraph, second: TimedGraph) -> StepsVerdict:
    """Overlap adjacent support-disjoint steps of equal spectral norm.

    [A at s, B at t] with s <= t becomes [A union B at s, B at t - s];
    the second step disappears when the durations tie. Sound because
    disjoint supports make the adjacency matrices commute and the shared
    norm keeps the evolution rates aligned.
    """
    if first.graph.is_empty or second.graph.is_empty:
        return "empty step"
    if not supports_disjoint(first.graph, second.graph):
        return "supports overlap"
    if abs(spectrum(first.graph).norm - spectrum(second.graph).norm) > NORM_TOLERANCE:
        return "spectral norms differ"
    shorter, longer = (first, second) if first.duration <= second.duration else (second, first)
    union = TimedGraph(first.graph.union(second.graph), shorter.duration)
    remainder = longer.duration - shorter.duration
    return (union, TimedGraph(longer.graph, remainder)) if remainder else (union,)


@lru_cache(maxsize=8192)
def _singleton_source(step: TimedGraph, vertex: int) -> SourceVerdict:
    """The phase tau a looped singleton carries out of a step, and what stays.

    MOVE_SINGLETON migrates the phase of a vertex that carries a loop and
    no edges in the source step into another step of its corridor (see
    _corridor). tau = t / ||A||; the step stays behind without the loop,
    or vanishes when the loop was all it had. The loop adds only the
    eigenvalue 1, and a nonempty rest has norm >= 1, so the rest keeps the
    step's norm.
    """
    graph = step.graph
    if vertex not in graph.loops or not graph.degree_free(vertex):
        return "vertex is not a looped singleton in the source"
    norm = rationalize(spectrum(graph).norm)
    if norm is None:
        return "source norm is not a small rational"
    tau = step.duration / norm % 2
    remainder = Graph(graph.n_vertices, graph.edges, graph.loops - {vertex})
    if remainder.is_empty:
        return tau, ()
    return tau, (TimedGraph(remainder, step.duration),)


@lru_cache(maxsize=8192)
def _singleton_landing(step: TimedGraph, vertex: int, tau: Fraction) -> StepsVerdict:
    """The steps that replace a target step once it absorbs the phase tau.

    Two landing modes:

    * the target is loops-only and already loops the vertex: its phase
      becomes (t_target + tau) mod 2pi and the target re-emits as a
      staircase;
    * the target leaves the vertex entirely untouched and tau covers at
      least the target's normalized duration: the vertex joins the target
      with a loop, and any remaining phase trails as a one-vertex step.
    """
    graph = step.graph
    n = graph.n_vertices
    if vertex in graph.loops:
        if not graph.is_loops_only:
            return "target loops the vertex but is not loops-only"
        phases = {w: step.duration for w in graph.loops}
        phases[vertex] = (step.duration + tau) % 2
        return schedule_phases(phases, n)
    if not graph.degree_free(vertex):
        return "target attaches edges to the vertex"
    if graph.is_empty:
        return "target step is empty"
    norm = rationalize(spectrum(graph).norm)
    if norm is None:
        return "target norm is not a small rational"
    consumed = step.duration / norm
    if tau < consumed:
        return "singleton phase is shorter than the target"
    joined = Graph(n, graph.edges, graph.loops | {vertex})
    residual = (tau - consumed) % 2
    if not residual:
        return (TimedGraph(joined, step.duration),)
    return TimedGraph(joined, step.duration), TimedGraph(Graph(n, loops=frozenset({vertex})), residual)


def _corridor(steps: Tuple[TimedGraph, ...], source: int, vertex: int) -> Tuple[int, int]:
    """First and last step that a singleton move of the vertex can reach.

    Outward from the source on each side, the window ends at, and includes,
    the first step that attaches an edge to the vertex. The vertex stays
    edge-free in every step strictly between source and target (loops
    there are fine: diagonals commute).
    """
    first = source
    while first > 0:
        first -= 1
        if not steps[first].graph.degree_free(vertex):
            break
    last = source
    while last < len(steps) - 1:
        last += 1
        if not steps[last].graph.degree_free(vertex):
            break
    return first, last


def _splice(
    steps: Tuple[TimedGraph, ...], source: int, target: int,
    left: Tuple[TimedGraph, ...], landed: Tuple[TimedGraph, ...]
) -> Tuple[int, int, Tuple[TimedGraph, ...]]:
    """A move's span and its new steps: what is left of the source, the corridor, what landed."""
    if source < target:
        return source, target + 1, left + steps[source + 1 : target] + landed
    return target, source + 1, landed + steps[target + 1 : source] + left


@lru_cache(maxsize=64)
def _hadamard_layer(
    targets: Tuple[int, ...], n_qubits: int
) -> Tuple[Tuple[TimedGraph, ...], Tuple[Fraction, int], np.ndarray]:
    """Hadamards on the target qubits: the compiled steps, their cost and their product.

    The product is shared by every caller, so it is read-only.
    """
    steps = compile_hadamard_layer(targets, n_qubits).steps
    unitary = _product(2**n_qubits, steps)
    unitary.flags.writeable = False
    return steps, (_span_time(steps), len(steps)), unitary


def _hypercube_hadamard(span: Tuple[TimedGraph, ...], fragment: np.ndarray) -> StepsVerdict:
    """Replace a fragment equal (up to phase) to Hadamards on a bit subset.

    ``fragment`` is the product of the span's steps on 2^k vertices; the
    driver builds every fragment from one start in a single sweep, so this
    verdict is not cached. The subset is read off column 0 of the fragment.
    Hadamards on k bits spread vertex 0 evenly over the 2^k vertices that
    differ from it only in those bits, each with weight 2^-k >= 1/n, so the
    bit mask is the OR of the indices weighing more than 1/(2n). One
    phase-distance comparison against the product of that layer's compiled
    steps then decides: layers on two different subsets have trace overlap
    0, so no other subset could match. It is the comparison the driver's
    span verification makes, on the same two products, so a layer this
    verdict offers never fails verification. The staircase/walk/staircase
    layer goes in only when that strictly reduces (total time, graph
    count), which is checked first, as it is cheaper than the dense
    comparison. Unlike the merge rules this verdict enforces the cost drop
    itself: the layer is a fixed-price replacement, not a local fusion, so
    applying it blindly could pessimize a cheap fragment. The layer's
    steps, cost and product are cached on the subset.
    """
    n = len(fragment)
    n_qubits = n.bit_length() - 1
    mask = 0
    for index in np.flatnonzero(np.abs(fragment[:, 0]) ** 2 > 1.0 / (2 * n)):
        mask |= int(index)
    targets = tuple(q for q in range(n_qubits) if mask & bit_value(q, n_qubits))
    if not targets:
        return "fragment is not a Hadamard layer"
    layer, cost, unitary = _hadamard_layer(targets, n_qubits)
    if not cost < (_span_time(span), len(span)):
        return "layer replacement is not strictly cheaper"
    if not phase_distance(fragment, unitary) < VERIFY_TOLERANCE:
        return "fragment is not a Hadamard layer"
    return layer


# ---------------------------------------------------------------------------
# Driver


def _normalize(walk: DynamicGraph) -> Tuple[DynamicGraph, List[RewriteStep]]:
    """Reduce durations modulo periods and drop steps that do nothing."""
    records: List[RewriteStep] = []
    steps: List[TimedGraph] = []
    for index, step in enumerate(walk.steps):
        reduced = step
        cut = _reduced(step.duration, _cached_period(step.graph))
        if cut != step.duration:
            records.append(
                RewriteStep(
                    RULE_NORMALIZE_TIME,
                    (index, index + 1),
                    step.duration - cut,
                    0,
                    f"{format_angle(step.duration)} -> {format_angle(cut)}",
                )
            )
            reduced = TimedGraph(step.graph, cut)
        if not reduced.duration or reduced.graph.is_empty:
            records.append(
                RewriteStep(
                    RULE_DROP_ZERO, (index, index + 1), reduced.duration, 1, "inert step"
                )
            )
            continue
        steps.append(reduced)
    return DynamicGraph(walk.n_vertices, tuple(steps)), records


# A site: the span [start, stop) a rule would rewrite, the steps that would
# replace it, and a note for the report.
Site = Tuple[int, int, Tuple[TimedGraph, ...], str]
# The steps [start, stop) a cost-neutral move rewrote. Given one, a rule
# offers only the sites whose verdict reads those steps (see _scan).
Window = Optional[Tuple[int, int]]
PositionSites = Callable[[DynamicGraph, int, Window], Iterator[Site]]
WalkSites = Callable[[DynamicGraph], Iterator[Site]]
# A priced site: its record and its replacement steps.
Rewrite = Tuple[RewriteStep, Tuple[TimedGraph, ...]]
# What verification reads of a rewrite, its span's steps and their
# replacement: a rewrite that failed is skipped by this key.
Key = Tuple[Tuple[TimedGraph, ...], Tuple[TimedGraph, ...]]
Rows = Tuple[Tuple[str, PositionSites], ...]
Moves = Tuple[Tuple[str, WalkSites], ...]


def _reads(lo: int, hi: int, window: Window) -> bool:
    """Whether a verdict that reads steps[lo:hi] reads the window (always, without one)."""
    return window is None or (lo < window[1] and window[0] < hi)


def _offer(start: int, stop: int, verdict: StepsVerdict, note: str = "") -> Iterator[Site]:
    """The site of a verdict on steps[start:stop], when the rule applies there."""
    if not isinstance(verdict, str):
        yield start, stop, verdict, note


def _merge_identical_sites(walk: DynamicGraph, index: int, window: Window = None) -> Iterator[Site]:
    if index + 2 <= walk.graph_count and _reads(index, index + 2, window):
        yield from _offer(index, index + 2, _merge_identical(*walk.steps[index : index + 2]))


def _run_end(walk: DynamicGraph, start: int, bitflips: bool) -> int:
    """End of the run of phased permutations (or phased bit flips) from start."""
    stop = start
    while stop < walk.graph_count:
        flip = _cached_permutation(walk.steps[stop])
        if flip is None or (bitflips and not flip.bitflip):
            break
        stop += 1
    return stop


def _combine_pst_sites(walk: DynamicGraph, index: int, window: Window = None) -> Iterator[Site]:
    """The whole run of phased bit flips from the index, on 2^k vertices.

    The verdict reads the run and the step that ends it.
    """
    n = walk.n_vertices
    if n < 1 or n & (n - 1):
        return
    stop = _run_end(walk, index, bitflips=True)
    if stop - index >= 2 and _reads(index, stop + 1, window):
        yield from _offer(index, stop, _fold(n, walk.steps[index:stop]))


def _fold_sites(walk: DynamicGraph, index: int, window: Window = None) -> Iterator[Site]:
    """Every run of two or more phased permutations from the index."""
    end = _run_end(walk, index, bitflips=False)
    if not _reads(index, end + 1, window):
        return
    for stop in range(index + 2, end + 1):
        yield from _offer(index, stop, _fold(walk.n_vertices, walk.steps[index:stop]), "fold")


def _merge_complementary_sites(walk: DynamicGraph, index: int, window: Window = None) -> Iterator[Site]:
    if index + 2 <= walk.graph_count and _reads(index, index + 2, window):
        yield from _offer(index, index + 2, _merge_complementary(*walk.steps[index : index + 2]))


def _staircase_sites(walk: DynamicGraph, start: int, window: Window = None) -> Iterator[Site]:
    """Re-emit a run of loops-only steps as one optimal staircase.

    The run is a phased-permutation run whose permutation is the identity,
    so COMBINE_PST folds it into the descending staircase of its per-vertex
    phase totals (mod 2pi), the cheapest equivalent form. Recorded as
    MOVE_SINGLETON over the run's span: it is a composition of singleton
    extractions, moves and merges. The last, widest staircase step holds
    every vertex with a phase; the note counts them. The verdict reads the
    run and the step that ends it.
    """
    stop = start
    while stop < walk.graph_count and walk.steps[stop].graph.is_loops_only:
        stop += 1
    if stop - start < 2 or not _reads(start, stop + 1, window):
        return
    for _, _, stair, _ in _offer(start, stop, _fold(walk.n_vertices, walk.steps[start:stop])):
        width = len(stair[-1].graph.loops) if stair else 0
        yield start, stop, stair, f"staircase over {width} vertices"


def _singleton_moves(walk: DynamicGraph, source: int, note: str, window: Window = None) -> Iterator[Site]:
    """Every elementary singleton move out of the source step.

    Each site comes straight from the two cached verdicts: what a looped
    singleton carries out of the source, and what each target of its
    corridor becomes once it absorbs that phase. A move reads the
    steps from the source to the target: the two it rewrites and the ones
    between, which keep the target inside the corridor. ``note`` is
    formatted with the vertex, source and target of the move.
    """
    steps = walk.steps
    for vertex in steps[source].graph.sorted_loops():
        moved = _singleton_source(steps[source], vertex)
        if isinstance(moved, str):
            continue
        tau, left = moved
        first, last = _corridor(steps, source, vertex)
        for target in range(first, last + 1):
            if target == source or not _reads(min(source, target), max(source, target) + 1, window):
                continue
            landed = _singleton_landing(steps[target], vertex, tau)
            if isinstance(landed, str):
                continue
            text = note.format(vertex=vertex, source=source, target=target)
            yield (*_splice(steps, source, target, left, landed), text)


def _singleton_sites(walk: DynamicGraph, source: int, window: Window = None) -> Iterator[Site]:
    return _singleton_moves(walk, source, "vertex {vertex}: step {source} -> step {target}", window)


def _hypercube_sites(walk: DynamicGraph, index: int, window: Window = None) -> Iterator[Site]:
    """The longest Hadamard-layer fragment starting at the index.

    A product of phased permutations is a phased permutation, never a
    Hadamard layer, so only fragments that reach past the first step that
    is not one are tried. With a window, a fragment that holds the whole
    window is skipped too: a neutral move keeps the window's product (up to
    phase) and its cost, so such a fragment keeps its verdict. The products
    of the fragments from the index come from one sweep, one matrix product
    per step; they are then tried longest first.
    """
    n = walk.n_vertices
    if n < 2 or n & (n - 1) or not _reads(index, walk.graph_count, window):
        return
    first = index
    while first < walk.graph_count and _cached_permutation(walk.steps[first]) is not None:
        first += 1
    lowest, highest = first + 1, walk.graph_count
    if window is not None and index <= window[0]:
        lowest, highest = max(lowest, window[0] + 1), min(highest, window[1] - 1)
    if lowest > highest:
        return
    fragments = [np.eye(n, dtype=np.complex128)]
    for step in walk.steps[index:highest]:
        fragments.append(_cached_step_unitary(step) @ fragments[-1])
    for stop in range(highest, lowest - 1, -1):
        layer = _hypercube_hadamard(walk.steps[index:stop], fragments[stop - index])
        if not isinstance(layer, str):
            yield index, stop, layer, ""
            return


def _block_swap_sites(walk: DynamicGraph) -> Iterator[Site]:
    """Exchanges of adjacent commuting blocks, small blocks before large."""
    count = walk.graph_count
    for total in range(2, count + 1):
        for a in range(1, total):
            for i in range(0, count - total + 1):
                left = walk.steps[i : i + a]
                right = walk.steps[i + a : i + total]
                if all(_cached_commute(s.graph, t.graph) for s in left for t in right):
                    yield i, i + total, right + left, f"swap blocks {a}+{total - a}"


def _everywhere(sites: PositionSites) -> WalkSites:
    """A scan rule's sites at every position, noted as enabling moves."""

    def enabling(walk: DynamicGraph) -> Iterator[Site]:
        for index in range(walk.graph_count):
            for start, stop, replacement, _ in sites(walk, index):
                yield start, stop, replacement, "enabling"

    return enabling


def _enabling_singleton_sites(walk: DynamicGraph) -> Iterator[Site]:
    for source in range(walk.graph_count):
        yield from _singleton_moves(walk, source, "enabling move of vertex {vertex}")


# The rule table, in the order the driver tries the rules: each row holds
# the rule, its sites at one position for the improving scan, its sites
# over the whole walk for the enabling search, and whether the scan offers
# the row only as a last resort, after the other rows found nothing.
# MERGE_COMPLEMENTARY has no enabling sites: a merge saves the shorter of
# two durations, and a normalized walk has no zero duration.
_RULE_TABLE: Tuple[Tuple[str, Optional[PositionSites], Optional[WalkSites], bool], ...] = (
    (RULE_SWAP_COMMUTING, None, _block_swap_sites, False),
    (RULE_MERGE_IDENTICAL, _merge_identical_sites, None, False),
    (RULE_COMBINE_PST, _combine_pst_sites, _everywhere(_combine_pst_sites), False),
    (RULE_MERGE_COMPLEMENTARY, _merge_complementary_sites, None, False),
    (RULE_MOVE_SINGLETON, _staircase_sites, None, False),
    (RULE_MOVE_SINGLETON, _singleton_sites, _enabling_singleton_sites, False),
    (RULE_HYPERCUBE_HADAMARD, _hypercube_sites, None, False),
    (RULE_COMBINE_PST, _fold_sites, None, True),
)


def _gain(walk: DynamicGraph, start: int, stop: int, replacement: Tuple[TimedGraph, ...]):
    """(time saved, graphs removed) by replacing steps[start:stop], in one sum."""
    return _span_time(walk.steps[start:stop], minus=replacement), (stop - start) - len(replacement)


def _pick_rows(enabled: Set[str]) -> Tuple[Rows, Rows, Moves]:
    """The enabled rule rows: the regular scan's, the last resort's and the enabling moves."""
    table = [row for row in _RULE_TABLE if row[0] in enabled]
    regular = tuple((rule, sites) for rule, sites, _, late in table if sites and not late)
    last_resort = tuple((rule, sites) for rule, sites, _, late in table if sites and late)
    return regular, last_resort, tuple((rule, sites) for rule, _, sites, _ in table if sites)


def _scan(walk: DynamicGraph, rows: Rows, skip: Set[Key], window: Window = None) -> Optional[Rewrite]:
    """First strictly improving rewrite, leftmost position first.

    At one position each row offers its best improving site that is not
    skipped: the one that removes the most steps, then saves the most time,
    then lies leftmost.

    A window [start, stop) says that the walk is one cost-neutral,
    unitary-keeping rewrite of those steps away from a walk whose improving
    sites were all skipped. A site whose verdict reads none of the window
    keeps that verdict and its span's steps, so its skip; a Hadamard-layer
    fragment that holds the window keeps its verdict and is never skipped
    (see _hypercube_hadamard). So the rows offer only the sites that
    read the window, and the first of those is the first improving rewrite
    of the whole walk, whatever the skip set.
    """
    for index in range(walk.graph_count):
        for rule, sites in rows:
            best: Optional[Tuple[tuple, Rewrite]] = None
            for start, stop, replacement, note in sites(walk, index, window):
                saved, removed = _gain(walk, start, stop, replacement)
                if (saved, removed) <= (0, 0) or (walk.steps[start:stop], replacement) in skip:
                    continue
                rank = (-removed, -saved, start, stop)
                if best is None or rank < best[0]:
                    record = RewriteStep(rule, (start, stop), saved, removed, note)
                    best = (rank, (record, replacement))
            if best is not None:
                return best[1]
    return None


def _find_enabling_pair(
    walk: DynamicGraph, rows: Rows, moves: Moves, skip: Set[Key]
) -> Optional[List[Rewrite]]:
    """A cost-neutral move that lets the scan land a strict improvement.

    The driver searches only when every improving rewrite of the walk is
    skipped, so the follow-up scan after a move reads just the window the
    move rewrote. A move that rewrites its span into the same steps leaves
    the walk as it was, so it is passed over, as is a skipped move.
    """
    for rule, sites in moves:
        for start, stop, replacement, note in sites(walk):
            if _gain(walk, start, stop, replacement) != (0, 0):
                continue
            span = walk.steps[start:stop]
            if replacement == span or (span, replacement) in skip:
                continue
            staged = (RewriteStep(rule, (start, stop), Fraction(0), 0, note), replacement)
            follow = _scan(_apply(walk, staged), rows, skip, (start, stop))
            if follow is not None:
                return [staged, follow]
    return None


def _apply(walk: DynamicGraph, rewrite: Rewrite) -> DynamicGraph:
    record, replacement = rewrite
    return walk.replaced(*record.span, replacement)


def _span_verified(walk: DynamicGraph, rewrite: Rewrite) -> bool:
    """Whether the rewrite keeps the program unitary, checked on its span."""
    record, replacement = rewrite
    start, stop = record.span
    before = _product(walk.n_vertices, walk.steps[start:stop])
    return phase_distance(before, _product(walk.n_vertices, replacement)) < VERIFY_TOLERANCE


def optimize(
    walk: DynamicGraph,
    passes: Optional[Iterable[str]] = None,
    max_iterations: Optional[int] = None,
) -> Tuple[DynamicGraph, OptimizationReport]:
    """Simplify a walk program under the verified rewrite rules.

    Fixpoint loop: normalize durations, scan left to right for the first
    strictly (time, count)-decreasing rewrite; when none exists, scan again
    for a strictly decreasing fold of a phased-permutation run (COMBINE_PST
    beyond phase * X_mask runs), and when that fails too search for one
    cost-neutral enabling move whose successor rewrite strictly improves,
    committing the two together. Every accepted change is
    checked on its span to VERIFY_TOLERANCE; a failed check rolls back, is
    recorded in the report, and the rewrite that failed (its span's steps
    and their replacement) is never tried again, on any walk.
    ``max_iterations`` caps the changes tried, accepted and rejected alike
    (an enabling move and its successor count as one). Unknown passes and
    a negative cap raise ``ValueError``. The report's ``stop_reason`` says
    whether the loop reached a fixpoint, or hit the cap on an accepted
    change (iteration cap) or on a rejected one (rejection cap).
    Finally the output's total unitary is compared with the input's; the
    report keeps that distance, and a failure there is recorded as a
    rejection too.
    """
    enabled = set(ALL_RULES if passes is None else passes)
    unknown = enabled - set(ALL_RULES)
    if unknown:
        raise ValueError(f"unknown passes: {sorted(unknown)}")
    if max_iterations is not None and max_iterations < 0:
        raise ValueError(f"max_iterations must be 0 or more, got {max_iterations}")
    limit = max_iterations if max_iterations is not None else 10 * max(walk.graph_count, 1) ** 2
    regular, last_resort, moves = _pick_rows(enabled)

    records: List[RewriteStep] = []
    rejected: List[str] = []
    skip: Set[Key] = set()

    current, norm_records = _normalize(walk)
    records.extend(norm_records)

    tried = 0
    stop_reason = STOP_ITERATION_CAP
    while tried < limit:
        found = _scan(current, regular, skip) or _scan(current, last_resort, skip)
        chain = [found] if found is not None else _find_enabling_pair(current, regular, moves, skip)
        if chain is None:
            stop_reason = STOP_FIXPOINT
            break
        programs = [current]
        for rewrite in chain:
            programs.append(_apply(programs[-1], rewrite))
        verified = (_span_verified(program, rewrite) for program, rewrite in zip(programs, chain))
        failed = next((i for i, ok in enumerate(verified) if not ok), None)
        tried += 1
        stop_reason = STOP_ITERATION_CAP if failed is None else STOP_REJECTION_CAP
        if failed is None:
            current, extra = _normalize(programs[-1])
            records.extend(record for record, _ in chain)
            records.extend(extra)
        else:
            rules = "+".join(record.rule for record, _ in chain)
            rejected.append(f"{rules} at {chain[0][0].span}: verification failed")
            record, replacement = chain[failed]
            skip.add((programs[failed].steps[slice(*record.span)], replacement))

    distance = phase_distance(total_unitary(walk), total_unitary(current))
    if not distance < VERIFY_TOLERANCE:
        rejected.append(f"output against input: verification failed, distance {distance:.3e}")
    report = OptimizationReport(
        initial_time=walk.total_time(),
        final_time=current.total_time(),
        initial_count=walk.graph_count,
        final_count=current.graph_count,
        rewrites=tuple(records),
        rejected=tuple(rejected),
        phase_distance=distance,
        stop_reason=stop_reason,
    )
    return current, report
