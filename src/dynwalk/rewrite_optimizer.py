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
build from the verdicts; the Hadamard-layer row judges each fragment of
its sweep itself, from the walk's prefix products, and the COMBINE_PST
rows build each fold from the composition that priced it. A site is a
span [start, stop) of the program, the steps that would replace it and a
note for the report. Only the driver prices a site, from the span alone,
records it and splices it in.
Cost is lexicographic (total time, then graph count) and every accepted
step strictly decreases it, so the driver terminates.
When no rule fires, the driver scans the last-resort rows (the
per-vertex singleton moves, then the wider COMBINE_PST fold), and when
those find nothing either it spends a bounded search on cost-neutral
enabling moves (commuting swaps of adjacent blocks, or singleton moves)
that let a strictly improving rewrite of the regular rows land
immediately after. Both kinds are neutral by construction: a swap
re-orders the same steps, and only the singleton moves priced (0, 0) are
offered. COMBINE_PST alone has no enabling move. The last-resort fold
waits so that it never preempts the regular rules, the loop staircase
among them: its spans start early and reach far, and the scan takes the
leftmost position. The singleton moves wait too: they are the only sites
whose verdict reads steps away from their position, as a move reads
every step up to its target. Every regular site is span-local, a verdict
on a contiguous run of steps from its own position.

A rewrite that fails verification is skipped from then on, on every walk,
by what the verification reads: the steps of its span and their
replacement. The enabling search runs only when every improving site of
the walk is skipped, and a neutral move keeps its span's time, graph
count and unitary (up to phase). So after a move on the window
[start, stop) only sites whose verdict reads the window can have become
improving or lost their skip, and the follow-up scan offers only those:
every site inside the window, the merges at start - 1, the
phased-permutation and loops-only runs that reach start (a run's verdict
reads the step that ends it), and the Hadamard-layer fragments that hold
part of the window but not all of it. The leftmost best of those is the
site the full scan of the regular rows would take, whatever the skip
set. A move that leaves its span as it was is never tried.

The same argument lets the regular scan after an accepted rewrite resume
rather than start over. ``optimize`` finds the window where the new walk
differs from the scanned one, their common prefix and suffix aside, so
that it also covers the normalization; the rewrite kept the window's
product up to phase and lowered its cost. If the scan before had an
empty skip set and took its rewrite at position a, every position below
a offered no site then: there the new scan offers only the sites that
read the window, as a fragment that holds the whole window is the old
fragment up to phase at no higher cost, so no cheaper layer, and it
judges every position from a on in full. After a last-resort rewrite or
an enabling chain the regular rows found nothing anywhere, so the
window alone is scanned. The first scan, and every scan once a rewrite
has failed, is a full scan.

Every duration here is a pair of integers, a step's ``pi_num`` over
``pi_den`` (see ``graph_model``): periods, phases, merges and residues
are computed on such pairs and no ``Fraction`` is built until a value
leaves, as a rewrite record's ``time_saved``, a report time or a note's
text. A site is priced in one integer sum over the durations of the span
and of its replacement (``_gain``, through ``graph_model._span_time``),
the one price the scan ranks by: (saved, den, removed), the time saved
saved/den pi and the graphs removed. (saved, removed) > (0, 0) is a
strict improvement and (0, 0) a cost-neutral change, whatever den is.

Four rows price a site before they build it, each in integers whose
value equals ``_gain`` of the built site, and build only the sites they
can take. The loop staircase row prices a run from its per-vertex phase
totals and builds the staircase (``gate_compiler._staircase``) from the
same totals. Both COMBINE_PST rows compose their run once
(``_fold_prices``), left to right, with integer angle totals over one
denominator, and price each prefix that permutes by an involution from
those totals: pi/2 and one graph for the matching if the prefix moves a
vertex, plus the largest residue and one graph per distinct nonzero
residue for the staircase. The same composition gives the prefix's
permutation and residues, from which ``_fold`` builds the matching and
the staircase, so no run is composed twice. The fold row folds each
prefix of two or more steps that strictly improves; the bit-flip row
takes the last entry, the whole run, every prefix of which folds, and
folds it only when it strictly improves. A singleton move leaves the
steps between its source and target as they were, so it is priced from
those two steps against what stays of the source and what landed, and
its site is built only when it strictly improves, for the last-resort
row, or is exactly neutral, for the enabling search. The last-resort row
prices a move whose source keeps a remainder only onto a target that is
the lone loop on the vertex, as no other such move can improve (see
``_singleton_moves``).

The rescanned walks differ from the current one only where a neutral
move changed them, so the step-local verdicts are pure functions, and
one memo (``_Memo``) per ``optimize`` call keeps them, keyed on what
they read. Every ``ScanFacts`` of the call shares it, and it goes when
the call returns, so no verdict outlives its run. Its keys are steps,
which hash their graph's kept hash and two integers, vertices and phases
as integer pairs, so a lookup hashes no ``Fraction``. It keeps the
phased-permutation form of each step (``_phased_permutation``), whose
angles are integers over one denominator, so that the fold row composes
runs on integers; the form of a step in which no vertex lies on two
edges (loops-only steps, matchings with loops anywhere, the empty graph)
is read from its edge list and duration, and only the form of a graph
with a vertex on two edges from its block exponentials;
``walk_engine.graphs_commute`` per graph pair for the block swaps, which
decides from one graph's loops every pair in which that graph's edges
avoid the other's edges and loops (support-disjoint pairs and a side
without edges among them), and counts walks for the other pairs, equal
graphs with edges included; the merges of two steps
(``_merge_identical``, ``_merge_complementary``); what a looped
singleton carries out of a step (``_singleton_source``, on the source
step and the vertex); what a target step becomes when it absorbs that
phase (``_singleton_landing``, on the target step, the vertex and the
phase); and the compiled Hadamard layer per bit mask and qubit count
(``_hadamard_layer``): its steps, its cost and its one-gate HLAYER
circuit. The memo holds steps and small tuples, never an array: no
step's unitary, no span product and no layer product. Three verdicts are
not kept. Both COMBINE_PST rows build a fold (``_fold``) only for a run
or prefix they have priced as a strict improvement, from the composition
that priced it. Few periods recur: a period is looked up only for a
duration of 2pi or more, or for the empty graph (a nonempty graph's
period is None or an even multiple of pi). The Hadamard-layer row
(``_hypercube_sites``) reads the walk's prefix products, not the
fragment's steps. A
landing on a loops-only target is the staircase (``_staircase``) of its
per-vertex phases. A singleton site is built straight from the two
singleton verdicts, for the targets of the corridor only: outward from
the source on each side, up to and including the first step that
attaches an edge to the vertex, since that step blocks every target
beyond it.

What every position of a scan reads of the walk as a whole is computed
once per walk, in the ``ScanFacts`` the driver passes to every row: the
prefix times as integers over one denominator, the ends of the runs of
phased permutations, of phased bit flips and of loops-only steps, and,
only once the Hadamard-layer row asks, the prefix products
W_0 .. W_count from one ``walk_engine.prefix_unitaries`` call for the
first walk. The facts live as long as their walk's scans; no
module-level state holds them. The facts of each later walk, and those
of each candidate of the enabling search, come from the facts before
(``ScanFacts.replaced``): they sum their own prefix times and take their
prefix products from the walk before, whose products left of the window
are theirs, those right of it theirs up to a global phase, which no
verdict reads, and only the window's are new, from a
``prefix_unitaries`` call that applies the window's steps to the product
before it. The phased-permutation form of a step with a vertex on two
edges is read from its block exponentials in ``walk_engine``'s factor
cache (``_read_form``), with no n x n step formed, and every
comparison of two runs, a verified span and the final check, from
``walk_engine.run_distance``, which takes the factors from that cache,
as ``prefix_unitaries`` does. A fragment is compared with a Hadamard
layer through ``gate_compiler.circuit_distance``, the check ``compile``
makes, which undoes the layer's gate on a copy of the fragment's later
prefix product and reads the trace against the earlier one. This module
multiplies no step matrices: every step is applied by ``walk_engine``,
one connected component at a time, and no matrix-matrix product is
formed here at all. The Hadamard-layer sites
try the fragments from one start longest first, skipping fragments made
only of phased permutations, whose product is a phased permutation and
never a Hadamard layer, and stopping at the first that costs no more
than the cheapest layer (``LAYER_FLOOR``). The row reads a fragment
[i, s) as W_s W_i^dag: below ``walk_engine.SPLIT_VERTICES`` vertices
first its trace tr(W_i^dag W_s), and it refuses the fragment when that
is too large for any Hadamard layer, which is traceless, to pass the
full check; then its bit mask from column 0, its cost from the prefix
times, and, only for a layer that is strictly cheaper and whose
column 0 matches the layer's closed form, 2^(-k/2) times one phase on
each of the 2^k vertices inside the mask, its distance from the layer's
gate C through tr(C^dag W_s W_i^dag) = tr(W_i^dag C^dag W_s), which
costs O(k n^2) and forms no fragment product.

Every accepted rewrite is verified on its span alone. With Q the product
of the steps before the span, P that of the steps after it, and S, S' the
old and new span products, tr((P S Q)^dag P S' Q) = tr(S^dag S'), so the
phase distance of the two spans is exactly that of the two programs. The
driver takes a chain of one rewrite, or of an enabling move and its
follow-up, and verifies each rewrite in turn on the walk before it, so a
follow-up is checked on the walk its move made. The first failure ends
the chain: the walk stays as it was before the chain, the failure is
reported rather than silently kept, and only the failed rewrite is
skipped from then on. At the end
``optimize`` compares the products of its input and its output, which
also covers the period reductions of the normalization, and reports that
distance. Both checks read ``run_distance``, which holds at most
``walk_engine.BLOCK_ENTRIES`` entries of each product at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .gate_compiler import Circuit, Gate, _staircase, bit_value, circuit_distance, compile_hadamard_layer
from .graph_model import (
    DynamicGraph,
    Graph,
    TimedGraph,
    _nearest_ratio,
    _reduced,
    _small_ratio,
    _span_time,
    format_angle,
    radians,
    spectrum,
    supports_disjoint,
)
from .numerics import VERIFY_TOLERANCE
from .walk_engine import SPLIT_VERTICES, _cached_factors, graphs_commute, prefix_unitaries, run_distance

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


class PhasedPermutation(NamedTuple):
    """A step unitary with a single unit entry in each column.

    Column j holds exp(-i pi turns[j] / den) in row perm[j] and zeros
    elsewhere, with each angle turns[j] / den in [0, 2). ``bitflip`` tells
    whether the step is phase * X_mask: one angle, and row = column XOR
    mask for one mask.
    """

    perm: Tuple[int, ...]
    turns: Tuple[int, ...]
    den: int
    bitflip: bool


def _phased_permutation(step: TimedGraph) -> Optional[PhasedPermutation]:
    """The step as a phased permutation with clean angles, else None.

    One rule reads every step in which no vertex lies on two edges, loops
    anywhere and the empty graph included, from its edge list and
    duration t. Its components are single edges, looped vertices and idle
    ones. An edge with one looped end is the block [[1, 1], [1, 0]], whose
    eigenvalues (1 ± √5)/2 have an irrational ratio, so for t > 0 its
    exponential is neither diagonal nor antidiagonal and the step is None.
    Otherwise the norm nu is 2 when some edge has both ends looped (the
    block [[1, 1], [1, 1]], eigenvalues 0 and 2) and 1 when none has (the
    empty graph's step holds whatever nu is), and with s = t/nu each
    unlooped edge runs cos s I - i sin s X, each both-looped edge exp(-i s)
    times that, each looped edge-free vertex picks up exp(-i s) and each
    idle vertex stays. So the step is a phased permutation exactly when it
    has no edge or s is a multiple of pi/2: rows swap across every edge
    when s is an odd multiple, unlooped edge ends and looped edge-free
    vertices get the angle s, both-looped edge ends 2s and idle vertices
    0, and den is the lcm of those angles' lowest-terms denominators. That
    is the form the float reader (``_read_form``) gives, with two
    differences. An edge-free step is read at any denominator, where the
    float reader stops at PHASE_DENOMINATOR_LIMIT. A duration within about
    1e-9 of an exact multiple of nu pi/2, such as (1/2 + 1e-12) pi on a
    loop-free matching or (1 + 1e-12) pi on a both-looped edge, could pass
    the float reader's entrywise check, and this rule refuses it, since
    such a step is not exactly a phased permutation; no corpus or
    benchmark input has one. Every other step, one with a vertex on two
    edges, goes to ``_read_form``, the only way from here to the factor
    cache and so to ``spectrum``.
    """
    graph = step.graph
    ends, loops, n = graph._endpoints, graph.loops, graph.n_vertices
    if len(ends) != 2 * len(graph.edges):
        return _read_form(step)
    looped = loops & ends
    doubled = sum(i in looped and j in looped for i, j in graph.edges) if looped else 0
    big = step.pi_den * (1 + bool(doubled))  # s = pi_num/big pi
    if step.pi_num and 2 * doubled != len(looped) or graph.edges and 2 * step.pi_num % big:
        return None  # an edge with one looped end at t > 0, or an edge at s off the multiples of pi/2
    rows, swap = list(range(n)), bool(graph.edges) and 2 * step.pi_num // big % 2 == 1
    if swap:
        for i, j in graph.edges:
            rows[i], rows[j] = j, i
    single, double = step.pi_num % (2 * big), 2 * step.pi_num % (2 * big)  # the angles s and 2s over big
    spread = len(ends) + len(loops) - 2 * len(looped)  # at angle s: unlooped edge ends, looped edge-free vertices
    scale = math.gcd(big, spread and single, len(looped) and double)  # of big and the angles taken; idle 0 adds nothing
    single, double, turns = single // scale, double // scale, [0] * n
    for v in chain(ends, loops):
        turns[v] = single
    for v in looped:
        turns[v] = double
    bitflip = n > 0 and turns.count(turns[0]) == n and (not swap or rows == [v ^ rows[0] for v in range(n)])
    return PhasedPermutation(tuple(rows), tuple(turns), big // scale, bitflip)


def _read_form(step: TimedGraph) -> Optional[PhasedPermutation]:
    """The step as a phased permutation, read from its block exponentials, else None.

    The exponentials come from the factor cache that ``run_distance`` and
    ``prefix_unitaries`` share, and no n x n step is formed: each column's
    largest entry down its block fixes its row; a looped singleton's entry
    is the step's phase and an idle vertex's is 1. The rows must form a
    permutation, and the residual, the largest of every other entry of
    the blocks, must stay under VERIFY_TOLERANCE. Each distinct entry
    value is read once, by _phase_angle, into its angle and then its
    integer turn; _phase_angle refuses a value farther than
    VERIFY_TOLERANCE from exp(-i pi angle), which bounds each column's
    distance from its rebuilt entry. These are the entries of the dense
    step unitary, whose block columns are the exponentials' own and whose
    other entries are exact zeros, so the verdict is the one the dense
    step gives. ``_phased_permutation`` sends it only graphs with a vertex
    on two edges, such as the 3-vertex path at pi and hypercubes at their
    transfer times.
    """
    n = step.graph.n_vertices
    looped, phase, blocks = _cached_factors(step)
    rows = np.arange(n)
    values = np.ones(n, dtype=np.complex128)
    values[looped] = phase
    residual = 0.0
    for members, exponential in blocks:
        size = np.abs(exponential)
        top = size.argmax(axis=1)  # each column's row in its block, one row of them for a shared block
        stack, column = np.arange(len(top))[:, None], np.arange(top.shape[1])
        rows[members] = members[np.arange(len(members))[:, None], top]
        values[members] = exponential[stack, top, column]
        size[stack, top, column] = 0.0
        residual = max(residual, float(size.max()))
    if residual > VERIFY_TOLERANCE or len(set(rows.tolist())) != n:
        return None
    entries = values.tolist()
    angle_of = {value: _phase_angle(value) for value in set(entries)}
    if None in angle_of.values():
        return None
    bitflip = len(set(angle_of.values())) == 1 and np.array_equal(rows, np.arange(n) ^ rows[0])
    den = math.lcm(*(a_den for _, a_den in angle_of.values()))
    turn_of = {value: a_num * (den // a_den) for value, (a_num, a_den) in angle_of.items()}
    return PhasedPermutation(tuple(rows.tolist()), tuple(map(turn_of.__getitem__, entries)), den, bitflip)


def _phase_angle(target: complex) -> Optional[Tuple[int, int]]:
    """Exact angle theta in [0, 2pi) with exp(-i theta) = target, as theta/pi in lowest terms, or None.

    theta/pi is the ratio of denominator at most PHASE_DENOMINATOR_LIMIT
    nearest the target's angle, which ``_nearest_ratio`` finds when it
    lies within 1/(2 * 64^2) of it; a farther one misses the target by
    far more than VERIFY_TOLERANCE. The last check also refuses a target
    whose modulus is off 1 by more than VERIFY_TOLERANCE, an infinite one
    included, since |exp(-i theta) - target| >= |1 - |target||.
    """
    theta = (-cmath.phase(target)) % (2.0 * math.pi)
    ratio = _nearest_ratio(theta / math.pi, PHASE_DENOMINATOR_LIMIT)
    if ratio is None:
        return None
    num, den = ratio[0] % (2 * ratio[1]), ratio[1]
    if abs(cmath.exp(-1j * math.pi * (num / den)) - target) > VERIFY_TOLERANCE:
        return None
    return num, den


# A verdict is what a rule computed from the steps it reads, or the reason
# (a string) it does not apply there. The verdicts below depend on those
# steps alone, so every walk that shares them shares the answer (see _Memo).
# A phase or duration is (numerator, denominator), a multiple of pi.
Time = Tuple[int, int]
SourceVerdict = Union[str, Tuple[Time, Tuple[TimedGraph, ...]]]
StepsVerdict = Union[str, Tuple[TimedGraph, ...]]


def _merge_identical(first: TimedGraph, second: TimedGraph) -> StepsVerdict:
    """Fuse adjacent steps on the same graph, reducing modulo the period."""
    if first.graph != second.graph:
        return "graphs differ"
    num, den = _reduced(
        first.graph, first.pi_num * second.pi_den + second.pi_num * first.pi_den, first.pi_den * second.pi_den
    )
    return (TimedGraph.of(first.graph, num, den),) if num else ()


def _compositions(n: int, forms: Sequence[PhasedPermutation], den: int) -> Iterator[Tuple[List[int], List[int]]]:
    """The product of each prefix of a run of phased permutations, composed left to right.

    Column j of the product holds exp(-i pi totals[j] / den) in row perm[j];
    den must be a multiple of every form's.
    """
    perm, totals = list(range(n)), [0] * n
    for form in forms:
        scale = den // form.den
        totals = [total + form.turns[row] * scale for total, row in zip(totals, perm)]
        perm = [form.perm[row] for row in perm]
        yield perm, totals


def _residues(perm: List[int], totals: List[int], den: int) -> Optional[List[int]]:
    """Each vertex's phase left after the matching on perm's 2-cycles, in [0, 2 den).

    The matching runs pi/2 (-i X on each pair), and the staircase pays the
    rest. None unless perm is an involution.
    """
    if any(perm[row] != column for column, row in enumerate(perm)):
        return None
    residues = [0] * len(perm)
    for column, (row, total) in enumerate(zip(perm, totals)):
        residues[row] = (total - (den // 2 if row != column else 0)) % (2 * den)
    return residues


def _fold(n: int, perm: List[int], residues: List[int], den: int) -> Tuple[TimedGraph, ...]:
    """The fold of a run of phased-permutation steps, from what ``_fold_prices`` composed of it.

    The run composes exactly to D P, with D diagonal and P = perm an
    involution. The replacement is a quarter-period matching on the
    2-cycles of P (-i X on each pair) followed by the loop staircase that
    pays each vertex's residue over den, or just the staircase when P is
    the identity. A run of phase * X_mask steps thus becomes the matching
    on the XOR of the masks plus at most one all-loops graph.
    """
    pairs = [(column, row) for column, row in enumerate(perm) if column < row]
    matching = (TimedGraph.of(Graph._of(n, frozenset(pairs)), 1, 2),) if pairs else ()
    return matching + _staircase(dict(enumerate(residues)), den, n)


def _merge_complementary(first: TimedGraph, second: TimedGraph) -> StepsVerdict:
    """Overlap adjacent support-disjoint steps of equal spectral norm.

    [A at s, B at t] with s <= t becomes [A union B at s, B at t - s];
    the second step disappears when the durations tie. Sound because
    disjoint supports make the adjacency matrices commute and the shared
    norm keeps the evolution rates aligned. An empty step, which a
    normalized walk does not hold, fails on the norms, and two merge into
    holds whose product is the identity.
    """
    if not supports_disjoint(first.graph, second.graph):
        return "supports overlap"
    if abs(spectrum(first.graph).norm - spectrum(second.graph).norm) > NORM_TOLERANCE:
        return "spectral norms differ"
    first_time, second_time = first.pi_num * second.pi_den, second.pi_num * first.pi_den
    shorter, longer = (first, second) if first_time <= second_time else (second, first)
    union = TimedGraph.of(first.graph.union(second.graph), shorter.pi_num, shorter.pi_den)
    remainder = abs(second_time - first_time)
    if not remainder:
        return (union,)
    return union, TimedGraph.of(longer.graph, remainder, first.pi_den * second.pi_den)


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
    norm = _small_ratio(spectrum(graph).norm)
    if norm is None:
        return "source norm is not a small rational"
    # (num / den) / (p / q) = num q / (den p), then mod 2 and in lowest terms
    den = step.pi_den * norm[0]
    num = step.pi_num * norm[1] % (2 * den)
    common = math.gcd(num, den)
    tau = (num // common, den // common)
    remainder = Graph._of(graph.n_vertices, graph.edges, graph.loops - {vertex})
    if remainder.is_empty:
        return tau, ()
    return tau, (TimedGraph.of(remainder, step.pi_num, step.pi_den),)


def _singleton_landing(step: TimedGraph, vertex: int, tau: Time) -> StepsVerdict:
    """The steps that replace a target step once it absorbs the phase tau, a (numerator, denominator) pair.

    Two landing modes:

    * the target is loops-only and already loops the vertex: the vertex's
      phase becomes (t_target + tau) mod 2pi and the target re-emits as
      the staircase (``_staircase``, at most two steps) that pays t_target
      mod 2pi on its other loops and that phase on the vertex;
    * the target leaves the vertex entirely untouched and tau covers at
      least the target's normalized duration: the vertex joins the target
      with a loop, and any remaining phase trails as a one-vertex step. The
      target of a normalized walk is neither empty nor of zero duration;
      an empty one at a positive duration is refused as longer than tau.
    """
    graph = step.graph
    n = graph.n_vertices
    if vertex in graph.loops:
        if not graph.is_loops_only:
            return "target loops the vertex but is not loops-only"
        den = step.pi_den * tau[1]
        held = step.pi_num * tau[1] % (2 * den)
        turns = dict.fromkeys(graph.loops, held)
        turns[vertex] = (held + tau[0] * step.pi_den) % (2 * den)
        return _staircase(turns, den, n)
    if not graph.degree_free(vertex):
        return "target attaches edges to the vertex"
    norm = _small_ratio(spectrum(graph).norm)
    if norm is None:
        return "target norm is not a small rational"
    # tau and consumed = t / norm = (num q) / (den p), both over den p tau_den
    den = step.pi_den * norm[0] * tau[1]
    moved = tau[0] * step.pi_den * norm[0]
    consumed = step.pi_num * norm[1] * tau[1]
    if moved < consumed:
        return "singleton phase is shorter than the target"
    joined = TimedGraph.of(Graph._of(n, graph.edges, graph.loops | {vertex}), step.pi_num, step.pi_den)
    residual = (moved - consumed) % (2 * den)
    if not residual:
        return (joined,)
    return joined, TimedGraph.of(Graph._of(n, loops=frozenset({vertex})), residual, den)


def _corridor(steps: Tuple[TimedGraph, ...], source: int, vertex: int) -> Tuple[int, int]:
    """First and last step that a singleton move of the vertex can reach.

    Outward from the source on each side, the corridor ends at, and includes,
    the first step that attaches an edge to the vertex. The vertex stays
    edge-free in every step strictly between source and target (loops
    there are fine: diagonals commute).
    """
    # a search that meets no such step stops at the walk's end, the last step it tried
    first = last = source
    for first in range(source - 1, -1, -1):
        if not steps[first].graph.degree_free(vertex):
            break
    for last in range(source + 1, len(steps)):
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


def _run_ends(members: Sequence[bool]) -> List[int]:
    """For each start i, the first index j >= i whose entry is false, or len(members)."""
    ends = list(range(len(members) + 1))
    for index in reversed(range(len(members))):
        if members[index]:
            ends[index] = ends[index + 1]
    return ends


class _Memo:
    """The verdicts of one ``optimize`` call, each cached on what it reads.

    The verdicts are pure functions of their arguments, so every walk of
    the call and every enabling candidate shares one memo, and it goes
    when the call returns.
    """

    def __init__(self) -> None:
        self.permutation = cache(_phased_permutation)
        self.commute = cache(graphs_commute)
        self.merge_identical = cache(_merge_identical)
        self.merge_complementary = cache(_merge_complementary)
        self.singleton_source = cache(_singleton_source)
        self.singleton_landing = cache(_singleton_landing)
        self.hadamard_layer = cache(_hadamard_layer)


class ScanFacts:
    """What every position of a scan reads of one walk, computed once for it.

    * ``times[k]`` is the time of the first k steps, an integer over
      ``den``, the common denominator of the durations;
    * ``run_end(start, kind)`` is the end of the run from start of phased
      permutations (kind "perm"), of phased bit flips ("flip") or of
      loops-only steps ("loops");
    * ``products()[k]`` is W_k, the product of the first k steps, so the
      fragment [i, s) is W_s W_i^dag;
    * ``memo`` holds the verdicts of the ``optimize`` call (a memo of its
      own when none is given).

    The run ends and the products are built on first use, the products
    only by the Hadamard-layer row. Facts made by ``replaced``, those of an
    enabling candidate and those of the walk after an accepted rewrite,
    keep the facts they were made from as their origin, whose products they
    share outside the window, and drop it once they have spliced them in.
    Facts replaced before they have spliced pass on their own origin, over
    both windows, so every origin is fresh or spliced, and no chain of
    earlier facts stays alive.
    """

    def __init__(
        self, walk: DynamicGraph, memo: Optional[_Memo] = None,
        origin: Optional[Tuple["ScanFacts", int, int]] = None,
    ) -> None:
        self.walk = walk
        self.memo = memo or _Memo()
        self.den = math.lcm(*(step.pi_den for step in walk.steps))
        self.times = [0, *accumulate(step.pi_num * (self.den // step.pi_den) for step in walk.steps)]
        self._origin = origin
        self._ends: Dict[str, List[int]] = {}
        self._products: Optional[List[np.ndarray]] = None

    def replaced(self, start: int, stop: int, replacement: Tuple[TimedGraph, ...]) -> "ScanFacts":
        """The facts of the walk after steps[start:stop] became the replacement, of any length.

        The replacement keeps the window's product up to phase, as every
        verified rewrite and every neutral move does, so the products
        outside the window are the origin's: left of it they are the same,
        right of it they differ only by a global phase, which the
        Hadamard-layer row does not read (see _hypercube_sites). Only the
        products inside the new window are new. A move keeps the window's
        length; a rewrite may shorten it.
        """
        origin = (self, start, stop)
        if self._products is None and self._origin is not None:  # not spliced yet: share its origin
            root, lo, hi = self._origin
            origin = (root, min(lo, start), max(hi, stop + root.walk.graph_count - self.walk.graph_count))
        return ScanFacts(self.walk.replaced(start, stop, replacement), self.memo, origin)

    def costs_at_most(self, start: int, stop: int, cost: Cost) -> bool:
        """Whether steps[start:stop] cost no more than (total time num/den, graph count)."""
        num, den, count = cost
        return ((self.times[stop] - self.times[start]) * den, stop - start) <= (num * self.den, count)

    def forms(self, start: int, stop: int) -> List[Optional[PhasedPermutation]]:
        """The phased-permutation form of each of steps[start:stop], None for a step that is not one."""
        return [self.memo.permutation(step) for step in self.walk.steps[start:stop]]

    def run_end(self, start: int, kind: str) -> int:
        if kind not in self._ends:
            steps = self.walk.steps
            if kind == "loops":
                # apart from the others, so that the loops-only row classifies no step
                self._ends["loops"] = _run_ends([step.graph.is_loops_only for step in steps])
            else:
                forms = self.forms(0, len(steps))
                self._ends["perm"] = _run_ends([form is not None for form in forms])
                self._ends["flip"] = _run_ends([form is not None and form.bitflip for form in forms])
        return self._ends[kind][start]

    def products(self) -> List[np.ndarray]:
        if self._products is None:
            n, steps = self.walk.n_vertices, self.walk.steps
            if self._origin is None:
                self._products = prefix_unitaries(n, steps)
            else:
                origin, start, stop = self._origin
                shared = origin.products()
                end = stop + len(steps) - origin.walk.graph_count  # the new window is [start, end)
                inside = prefix_unitaries(n, steps[start : max(start, end - 1)], shared[start])[1:]
                # W_end is the origin's W_stop up to phase; an emptied window keeps only W_start
                self._products = shared[: start + 1] + inside + shared[stop + (end == start) :]
                self._origin = None
        return self._products


# A cost: total time num/den pi and graph count, as (num, den, count).
Cost = Tuple[int, int, int]

# No Hadamard layer costs less than this (time, graph count), so no fragment
# that costs no more can be replaced by one. compile_hadamard_layer emits a
# staircase, a walk for k pi/4 and the same staircase again; with k >= 1
# targets the staircase phases of Hamming weights 0 and 1 lie pi/2 apart, so
# the larger is at least pi/2 and each staircase runs that long in one graph
# or more. A single target attains the floor.
LAYER_FLOOR: Cost = (5, 4, 3)


def _hadamard_layer(mask: int, n_qubits: int) -> Tuple[Tuple[TimedGraph, ...], Cost, Circuit]:
    """Hadamards on the qubits of a vertex bit mask: compiled steps, cost and gate.

    The gate is the one-gate HLAYER circuit the steps compile, which
    ``circuit_distance`` undoes.
    """
    targets = tuple(q for q in range(n_qubits) if mask & bit_value(q, n_qubits))
    layer = compile_hadamard_layer(targets, n_qubits)
    gate = Circuit(n_qubits, (Gate("HLAYER", targets=targets),))
    return layer.steps, (*_span_time(layer.steps), len(layer.steps)), gate


# ---------------------------------------------------------------------------
# Driver


def _normalize(walk: DynamicGraph) -> Tuple[DynamicGraph, List[RewriteStep]]:
    """Reduce durations modulo periods and drop steps that do nothing.

    The walk it returns holds no empty graph and no zero duration, and the
    driver scans no other walk: the rules rely on that and do not check it
    (a merge or landing on an empty step, a move priced on a zero duration).
    """
    records: List[RewriteStep] = []
    steps: List[TimedGraph] = []
    for index, step in enumerate(walk.steps):
        reduced = step
        num, den = _reduced(step.graph, step.pi_num, step.pi_den)
        if num * step.pi_den != step.pi_num * den:
            reduced = TimedGraph.of(step.graph, num, den)
            records.append(
                RewriteStep(
                    RULE_NORMALIZE_TIME,
                    (index, index + 1),
                    step.duration - reduced.duration,
                    0,
                    f"{format_angle(step.duration)} -> {format_angle(reduced.duration)}",
                )
            )
        if not reduced.pi_num or reduced.graph.is_empty:
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
# The steps [start, stop) a cost-neutral move rewrote. Given one, a regular
# row offers only the sites whose verdict reads those steps (see _scan); the
# last-resort rows take no window, as no windowed scan reads them.
Window = Optional[Tuple[int, int]]
# Every row reads the walk through its ScanFacts.
PositionSites = Callable[..., Iterator[Site]]
WalkSites = Callable[[ScanFacts], Iterator[Site]]
# What a site or move buys: the time saved, saved/den pi, and the graphs
# removed, as (saved, den, removed); (saved, removed) > (0, 0) is a strict
# improvement and (0, 0) a cost-neutral change.
Price = Tuple[int, int, int]
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


def _pair_sites(facts: ScanFacts, index: int, window: Window, verdict: Callable[..., StepsVerdict]) -> Iterator[Site]:
    """The site of the verdict on steps[index:index + 2], when the pair reads the window and the rule applies."""
    steps = facts.walk.steps
    if index + 2 <= len(steps) and _reads(index, index + 2, window):
        merged = verdict(*steps[index : index + 2])
        if not isinstance(merged, str):
            yield index, index + 2, merged, ""


def _merge_identical_sites(facts: ScanFacts, index: int, window: Window = None) -> Iterator[Site]:
    return _pair_sites(facts, index, window, facts.memo.merge_identical)


def _combine_pst_sites(facts: ScanFacts, index: int, window: Window = None) -> Iterator[Site]:
    """The fold of the whole run of phased bit flips from the index, on 2^k vertices, when it strictly improves.

    The run's product is the phase * X_mask of the XOR of its masks, so
    every prefix folds, and the last entry of ``_fold_prices`` prices the
    whole run. The verdict reads the run and the step that ends it.
    """
    n = facts.walk.n_vertices
    stop = index if n & (n - 1) else facts.run_end(index, "flip")  # no run, and no step classified, off 2^k vertices
    if stop - index < 2 or not _reads(index, stop + 1, window):
        return
    *_, (_, (saved, _, removed), perm, residues, den) = _fold_prices(facts, index, stop)
    if (saved, removed) > (0, 0):
        yield index, stop, _fold(n, perm, residues, den), ""


def _fold_prices(facts: ScanFacts, index: int, stop: int) -> Iterator[Tuple[int, Price, List[int], List[int], int]]:
    """(end, price, perm, residues, den) for each prefix [index, end) of the run steps[index:stop] that folds.

    The run of phased permutations is composed once, left to right, and a
    prefix that permutes by an involution is priced from its totals: its
    fold runs pi/2 for the matching, if the prefix moves a vertex, plus the
    largest residue, in one graph for the matching plus one per distinct
    nonzero residue. The price is the value of _gain of the fold, and
    perm, residues and den are what ``_fold`` builds it from, so no run is
    composed twice.
    """
    n = facts.walk.n_vertices
    forms = facts.forms(index, stop)
    den = math.lcm(2, *(form.den for form in forms))
    for end, (perm, totals) in enumerate(_compositions(n, forms, den), index + 1):
        residues = _residues(perm, totals, den)
        if residues is not None:
            moved = perm != list(range(n))
            time = (den // 2 if moved else 0) + max(residues)
            saved = (facts.times[end] - facts.times[index]) * den - time * facts.den
            yield end, (saved, den * facts.den, end - index - moved - len(set(residues) - {0})), perm, residues, den


def _fold_sites(facts: ScanFacts, index: int) -> Iterator[Site]:
    """Every run of two or more phased permutations from the index whose fold strictly improves on it."""
    for stop, (saved, _, removed), perm, residues, den in _fold_prices(facts, index, facts.run_end(index, "perm")):
        if stop - index >= 2 and (saved, removed) > (0, 0):
            yield index, stop, _fold(facts.walk.n_vertices, perm, residues, den), "fold"


def _merge_complementary_sites(facts: ScanFacts, index: int, window: Window = None) -> Iterator[Site]:
    return _pair_sites(facts, index, window, facts.memo.merge_complementary)


def _staircase_sites(facts: ScanFacts, start: int, window: Window = None) -> Iterator[Site]:
    """Re-emit a run of loops-only steps as one optimal staircase, when that is cheaper.

    The run is a diagonal, whatever the denominators of its steps'
    durations, so its cheapest equivalent form is the descending
    staircase (``_staircase``) of its per-vertex phase totals mod 2pi,
    the fold COMBINE_PST would make of it. That staircase
    runs for the largest total and has one graph per distinct nonzero
    total, so the row prices it from the totals, as integers over the
    facts' denominator, and builds it from the same totals only when it
    strictly improves on the run; it classifies no step. Recorded as
    MOVE_SINGLETON over the run's span: it is a composition of singleton
    extractions, moves and merges. The last, widest staircase step holds
    every vertex with a phase; the note counts them. The verdict reads the
    run and the step that ends it.
    """
    steps, den = facts.walk.steps, facts.den
    stop = facts.run_end(start, "loops")
    if stop - start < 2 or not _reads(start, stop + 1, window):
        return
    totals = dict.fromkeys(range(facts.walk.n_vertices), 0)
    for step in steps[start:stop]:
        phase = step.pi_num * (den // step.pi_den)
        for vertex in step.graph.loops:
            totals[vertex] += phase
    levels = {total % (2 * den) for total in totals.values()} - {0}
    saved = facts.times[stop] - facts.times[start] - max(levels, default=0)
    if (saved, stop - start - len(levels)) <= (0, 0):
        return
    stair = _staircase({vertex: total % (2 * den) for vertex, total in totals.items()}, den, facts.walk.n_vertices)
    width = len(stair[-1].graph.loops) if stair else 0
    yield start, stop, stair, f"staircase over {width} vertices"


# A singleton move out of a source step: its price, the vertex, the target
# step, what is left of the source and what landed.
Move = Tuple[Price, int, int, Tuple[TimedGraph, ...], Tuple[TimedGraph, ...]]


def _singleton_moves(facts: ScanFacts, source: int, improving: bool = False) -> Iterator[Move]:
    """Every elementary singleton move out of the source step, with its price, or only those that may improve.

    Each move comes straight from the two memoized verdicts: what a looped
    singleton carries out of the source, and what each target of its
    corridor becomes once it absorbs that phase. The steps between source
    and target stay as they are, so a move is priced from the source and
    target steps against what is left and what landed, and the rows build
    the site (see _splice) only for the moves they take. A move reads the
    steps from the source to the target, which may lie on either side, so
    its site is not span-local: the scan offers these moves only as a last
    resort, and no windowed follow-up scan reads them.

    With ``improving``, for the last-resort row, a move whose source keeps
    a remainder is priced only onto a target that is the lone loop on the
    vertex, as on a normalized walk no other such move strictly improves.
    The remainder keeps the source's time and graph, so the move saves
    what the target loses. A joined target keeps its duration, and a
    loops-only target that loops another vertex runs under 2pi, its
    period, so that vertex's phase, its duration, is a level of the
    staircase it lands as. Either way the landing runs at least as long
    as the target, in one graph or more.
    """
    steps, memo = facts.walk.steps, facts.memo
    for vertex in sorted(steps[source].graph.loops):
        moved = memo.singleton_source(steps[source], vertex)
        if isinstance(moved, str):
            continue
        tau, left = moved
        first, last = _corridor(steps, source, vertex)
        for target in (*range(first, source), *range(source + 1, last + 1)):
            graph = steps[target].graph
            if improving and left and (graph.edges or graph.loops != {vertex}):
                continue
            landed = memo.singleton_landing(steps[target], vertex, tau)
            if isinstance(landed, str):
                continue
            saved, den = _span_time((steps[source], steps[target]), minus=left + landed)
            yield (saved, den, 2 - len(left) - len(landed)), vertex, target, left, landed


def _singleton_sites(facts: ScanFacts, source: int) -> Iterator[Site]:
    """The strictly improving singleton moves out of the source."""
    for (saved, _, removed), vertex, target, left, landed in _singleton_moves(facts, source, improving=True):
        if (saved, removed) > (0, 0):
            note = f"vertex {vertex}: step {source} -> step {target}"
            yield (*_splice(facts.walk.steps, source, target, left, landed), note)


def _hypercube_sites(facts: ScanFacts, index: int, window: Window = None) -> Iterator[Site]:
    """The longest fragment from the index that a cheaper Hadamard layer equals up to phase.

    A product of phased permutations is a phased permutation, never a
    Hadamard layer, so only fragments that reach past the first step that
    is not one are tried. With a window, a fragment that holds the whole
    window is skipped too: a neutral move keeps the window's product (up to
    phase) and its cost, so such a fragment keeps its verdict. The
    fragments are tried longest first, and the sweep stops at the first
    that costs no more than LAYER_FLOOR, as every shorter one costs less.

    The walk has 2^k vertices, and a fragment [index, stop) is read from
    the facts' prefix products as W_stop W_index^dag, fetched only once a
    fragment passes the floor, so the memo does not keep this verdict.
    Every Hadamard layer's gate C is traceless, and a fragment F at phase
    distance d < VERIFY_TOLERANCE from it has ||F - e^{i phi} C||_F^2 =
    2 n d at the best phase, so |tr F| = |tr(F - e^{i phi} C)| <= sqrt n
    ||F - e^{i phi} C||_F < n sqrt(2 VERIFY_TOLERANCE). The row first
    refuses a fragment whose trace, tr(W_index^dag W_stop) read as the
    ``vdot`` of the two products, reaches that bound: no layer would pass
    the full check there, so no verdict changes, and on the benchmark's
    and the corpus's walks most judged fragments go there. It does so
    below ``walk_engine.SPLIT_VERTICES`` only. From there on the ``vdot``
    reads two n x n products, twice the traffic of column 0's
    matrix-vector product, and the fragments of wide walks are mostly
    traceless (5 of 286 refused at 10 qubits), so the test cost the width
    ladder more than it saved. Hadamards on the bits of a mask M send
    vertex 0 to 2^(-|M|/2) times one phase on each of the 2^|M| vertices
    inside M, each of weight at least 1/n. So the support S of the
    fragment's column 0, one matrix-vector product, is the set of entries
    weighing more than 1/(2n), and the mask is its OR. The layer on that mask goes in only when it strictly reduces
    (total time, graph count), which the facts' integer times decide, when
    S holds exactly the 2^|M| vertices inside M, and when 1 - |sum_S c| /
    sqrt|S| stays under 2n VERIFY_TOLERANCE: on such an S that is 1 -
    |l^dag c| for the layer's own column 0, l, up to rounding. Then one
    phase distance d of the fragment from the layer's HLAYER gate C decides,
    through ``circuit_distance``, the check ``compile`` makes, read off the
    two prefix products with no fragment product formed: tr(C^dag W_stop
    W_index^dag) = tr(W_index^dag C^dag W_stop), so the gate is undone on a
    copy of W_stop, as ``circuit_distance`` overwrites its array and the
    facts share W_stop with later walks, and the trace is the copy's
    overlap with W_index, O(|M| n^2) in all. Layers on two different
    subsets have trace overlap 0, so no other subset could match. The
    compiled layer is exp(-2i beta) times that gate to rounding, so d is
    the phase distance the driver's span verification reads between the
    fragment and the layer's steps, up to rounding (about 1e-15). For
    unitaries, ||F - e^{i phi} L||_F^2 = 2 n d at the best phase, and
    column 0 takes part of that, so 1 - |l^dag c| <= n d: a column 0 that
    misses this twice over fails the full check too. No check reads a
    global phase of the products. Unlike the
    merge rules this row enforces the cost drop itself: the layer is a
    fixed-price replacement, not a local fusion, so applying it blindly
    could pessimize a cheap fragment. The memo keeps the layer's steps,
    cost and gate per bit mask.
    """
    n, count = facts.walk.n_vertices, facts.walk.graph_count
    if n & (n - 1) or not _reads(index, count, window):
        return
    lowest, highest = facts.run_end(index, "perm") + 1, count
    if window is not None and index <= window[0]:
        lowest, highest = max(lowest, window[0] + 1), min(highest, window[1] - 1)
    for stop in range(highest, lowest - 1, -1):
        if facts.costs_at_most(index, stop, LAYER_FLOOR):
            return
        products = facts.products()
        later, earlier = products[stop], products[index]
        if n < SPLIT_VERTICES and abs(np.vdot(earlier, later)) >= n * math.sqrt(2 * VERIFY_TOLERANCE):
            continue
        column = later @ earlier[0].conj()
        in_support = np.abs(column) ** 2 > 1.0 / (2 * n)
        support = in_support.nonzero()[0]
        mask = int(np.bitwise_or.reduce(support))
        if not mask:
            continue
        layer, cost, gate = facts.memo.hadamard_layer(mask, n.bit_length() - 1)
        if facts.costs_at_most(index, stop, cost) or len(support) != 1 << mask.bit_count():
            continue
        if 1 - abs(in_support.dot(column)) / math.sqrt(len(support)) >= 2 * n * VERIFY_TOLERANCE:
            continue
        if circuit_distance(gate, [(earlier, later.copy())]) < VERIFY_TOLERANCE:
            yield index, stop, layer, ""
            return


def _block_swap_sites(facts: ScanFacts) -> Iterator[Site]:
    """Exchanges of adjacent commuting blocks, small blocks before large."""
    steps = facts.walk.steps
    count = len(steps)
    for total in range(2, count + 1):
        for a in range(1, total):
            for i in range(0, count - total + 1):
                left = steps[i : i + a]
                right = steps[i + a : i + total]
                if all(facts.memo.commute(s.graph, t.graph) for s in left for t in right):
                    yield i, i + total, right + left, f"swap blocks {a}+{total - a}"


def _enabling_singleton_sites(facts: ScanFacts) -> Iterator[Site]:
    """The cost-neutral singleton moves, out of every source."""
    for source in range(facts.walk.graph_count):
        for (saved, _, removed), vertex, target, left, landed in _singleton_moves(facts, source):
            if not saved and not removed:
                note = f"enabling move of vertex {vertex}"
                yield (*_splice(facts.walk.steps, source, target, left, landed), note)


# The rule rows, each (rule, sites), in the order ``optimize`` tries them.
# _REGULAR holds each rule's sites at one position for the improving scan.
# _LAST_RESORT holds the rows that scan offers only after the regular rows
# found nothing: the ones whose sites are not span-local (see the module
# docstring). _MOVES holds each rule's cost-neutral sites over the whole
# walk for the enabling search.
# MERGE_COMPLEMENTARY has no enabling sites: a merge saves the shorter of
# two durations, and a normalized walk has no zero duration. Nor has
# COMBINE_PST: a neutral fold of a run was offered once in a corpus of 603
# programs and never landed.
_REGULAR: Rows = (
    (RULE_MERGE_IDENTICAL, _merge_identical_sites),
    (RULE_COMBINE_PST, _combine_pst_sites),
    (RULE_MERGE_COMPLEMENTARY, _merge_complementary_sites),
    (RULE_MOVE_SINGLETON, _staircase_sites),
    (RULE_HYPERCUBE_HADAMARD, _hypercube_sites),
)
_LAST_RESORT: Rows = ((RULE_MOVE_SINGLETON, _singleton_sites), (RULE_COMBINE_PST, _fold_sites))
_MOVES: Moves = (
    (RULE_SWAP_COMMUTING, _block_swap_sites),
    (RULE_MOVE_SINGLETON, _enabling_singleton_sites),
)


def _gain(facts: ScanFacts, start: int, stop: int, replacement: Tuple[TimedGraph, ...]) -> Price:
    """The price of replacing steps[start:stop] of the facts' walk: the span's time less the replacement's, by _span_time."""
    saved, den = _span_time(facts.walk.steps[start:stop], minus=replacement)
    return saved, den, (stop - start) - len(replacement)


def _scan(
    facts: ScanFacts, rows: Rows, skip: Set[Key], window: Window = None, resume: Optional[int] = None
) -> Optional[Rewrite]:
    """First strictly improving rewrite, leftmost position first.

    At one position each row offers its best site that is not skipped: the
    one that removes the most steps, then saves the most time, then lies
    leftmost. Every row offers only strictly improving sites on a
    normalized walk, so the improving test here selects nothing: it guards
    termination, as a row that offered a neutral site could loop forever.

    A window [start, stop) says that the walk is one cost-neutral,
    unitary-keeping rewrite of those steps away from a walk whose improving
    sites were all skipped; only the regular rows take one. A site whose
    verdict reads none of the window keeps that verdict and its span's
    steps, so its skip; a Hadamard-layer fragment that holds the window
    keeps its verdict and is never skipped (see _hypercube_sites). So
    the rows offer only the sites that read the window, and the first of
    those is the first improving rewrite of the rows over the whole walk,
    whatever the skip set. Every verdict reads forward from its position,
    a merge [i, i + 2) and a run or fragment from i on, so no position at
    or past the window's end offers such a site, and the scan stops there.

    A resumed scan (``resume``) judges the positions below it through the
    window alone and every position from it on in full. ``optimize``
    resumes at the position a of the rewrite the last regular scan took
    with an empty skip set, the window being where that rewrite and the
    normalization changed the walk: every position below a offered no
    site before, and the same argument holds for an improving rewrite,
    which keeps the window's product up to phase and lowers its cost, so a
    fragment that holds the whole window stays no cheaper layer.
    """
    walk = facts.walk
    reach = () if window is None else (window,)
    full = 0 if window is None else walk.graph_count if resume is None else resume
    windowed = range(0 if window is None else min(full, window[1]))
    for index in chain(windowed, range(full, walk.graph_count)):
        for rule, sites in rows:
            best: Optional[Tuple[tuple, str, Tuple[TimedGraph, ...]]] = None
            for start, stop, replacement, note in sites(facts, index, *(reach if index < full else ())):
                saved, den, removed = _gain(facts, start, stop, replacement)
                if (saved, removed) > (0, 0) and (walk.steps[start:stop], replacement) not in skip:
                    rank = (-removed, Fraction(-saved, den), start, stop)
                    if best is None or rank < best[0]:
                        best = (rank, note, replacement)
            if best is not None:
                (less_removed, less_saved, *span), note, replacement = best
                return RewriteStep(rule, tuple(span), -less_saved, -less_removed, note), replacement
    return None


def _find_enabling_pair(
    facts: ScanFacts, rows: Rows, moves: Moves, skip: Set[Key]
) -> Optional[List[Rewrite]]:
    """A cost-neutral move that lets the scan land a strict improvement.

    Every move row offers only cost-neutral sites (block swaps re-order
    the same steps; singleton moves are built only when priced (0, 0)), so
    no move is priced here. The driver searches only when every improving
    rewrite of the walk is skipped, so the follow-up scan after a move
    reads just the window the move rewrote. It reads only the regular
    rows, whose sites are all span-local, so a move that would enable only
    a singleton move or a fold is not taken. A move that rewrites its span
    into the same steps leaves the walk as it was, so it is passed over, as
    is a skipped move.
    Each candidate's ScanFacts come from the walk's through ``replaced``, so
    the prefix products left and right of the window are built once per
    search, and only the window's are built per candidate.
    """
    walk = facts.walk
    for rule, sites in moves:
        for start, stop, replacement, note in sites(facts):
            span = walk.steps[start:stop]
            if replacement == span or (span, replacement) in skip:
                continue
            follow = _scan(facts.replaced(start, stop, replacement), rows, skip, (start, stop))
            if follow is not None:
                return [(RewriteStep(rule, (start, stop), Fraction(0), 0, note), replacement), follow]
    return None


def _changed(old: Sequence[TimedGraph], new: Sequence[TimedGraph]) -> Tuple[int, int, int]:
    """Where two runs differ: steps [lo, old_stop) of the old became [lo, new_stop) of the new.

    Outside that window the runs are their common prefix and suffix.
    """
    shorter = min(len(old), len(new))
    lo = next((i for i in range(shorter) if old[i] != new[i]), shorter)
    tail = next((k for k in range(shorter - lo) if old[-1 - k] != new[-1 - k]), shorter - lo)
    return lo, len(old) - tail, len(new) - tail


def _span_verified(walk: DynamicGraph, rewrite: Rewrite) -> bool:
    """Whether the rewrite keeps the program unitary, checked on its span."""
    record, replacement = rewrite
    return run_distance(walk.n_vertices, walk.steps[slice(*record.span)], replacement) < VERIFY_TOLERANCE


def optimize(
    walk: DynamicGraph,
    passes: Optional[Iterable[str]] = None,
    max_iterations: Optional[int] = None,
) -> Tuple[DynamicGraph, OptimizationReport]:
    """Simplify a walk program under the verified rewrite rules.

    Fixpoint loop: normalize durations, scan left to right for the first
    strictly (time, count)-decreasing rewrite; when none exists, scan again
    for a strictly decreasing singleton move or fold of a phased-permutation
    run (COMBINE_PST beyond phase * X_mask runs), and when that fails too
    search for one cost-neutral enabling move whose successor rewrite
    strictly improves, committing the two together. After an accepted
    change the next scan reads the walk's facts carried over from the
    walk before and resumes where the walk changed (see the module
    docstring). One loop verifies and
    applies the chain: each rewrite is checked on its span to
    VERIFY_TOLERANCE on the walk before it, the move's walk for the
    follow-up. The first failure keeps the walk as it was before the chain,
    is recorded in the report, and skips that rewrite alone (its span's
    steps and their replacement): it is never tried again, on any walk,
    and a rewrite after it is not verified.
    ``max_iterations`` caps the changes tried, accepted and rejected alike
    (an enabling move and its successor count as one). Unknown passes and
    a negative cap raise ``ValueError``. The report's ``stop_reason`` says
    whether the loop reached a fixpoint, or hit the cap on an accepted
    change (iteration cap) or on a rejected one (rejection cap).
    Finally the output's total unitary is compared with the input's; the
    report keeps that distance, and a failure there is recorded as a
    rejection too. Both products reduce a step of at least its graph's
    period by that period (see ``walk_engine._factors``), so the checks
    do not test the period itself. The rules' verdicts are kept in one memo for the call
    (see ``_Memo``), so nothing of a run outlives it.
    """
    enabled = set(ALL_RULES if passes is None else passes)
    unknown = enabled - set(ALL_RULES)
    if unknown:
        raise ValueError(f"unknown passes: {sorted(unknown)}")
    if max_iterations is not None and max_iterations < 0:
        raise ValueError(f"max_iterations must be 0 or more, got {max_iterations}")
    limit = max_iterations if max_iterations is not None else 10 * max(walk.graph_count, 1) ** 2
    regular, last_resort, moves = (
        tuple(row for row in rows if row[0] in enabled) for rows in (_REGULAR, _LAST_RESORT, _MOVES)
    )

    rejected: List[str] = []
    skip: Set[Key] = set()
    memo = _Memo()

    current, records = _normalize(walk)
    # the facts of the walk, each walk's from the last one's; the window where the
    # last accepted chain changed it while no rewrite had failed, and where its
    # regular pick lay, if the regular rows found it
    facts, window, resume = ScanFacts(current, memo), None, None
    stop_reason = STOP_ITERATION_CAP
    for _ in range(limit):
        found = _scan(facts, regular, skip, window, resume)
        resume = found[0].span[0] if found is not None else None
        found = found or _scan(facts, last_resort, skip)
        chain = [found] if found is not None else _find_enabling_pair(facts, regular, moves, skip)
        if chain is None:
            stop_reason = STOP_FIXPOINT
            break
        program, stop_reason, window = current, STOP_ITERATION_CAP, None
        for record, replacement in chain:
            if not _span_verified(program, (record, replacement)):
                rules = "+".join(step.rule for step, _ in chain)
                rejected.append(f"{rules} at {chain[0][0].span}: verification failed")
                skip.add((program.steps[slice(*record.span)], replacement))
                stop_reason = STOP_REJECTION_CAP
                break
            program = program.replaced(*record.span, replacement)
        else:
            current, extra = _normalize(program)
            records.extend(step for step, _ in chain)
            records.extend(extra)
            lo, old_stop, new_stop = _changed(facts.walk.steps, current.steps)
            facts = facts.replaced(lo, old_stop, current.steps[lo:new_stop])
            window = None if skip else (lo, new_stop)

    distance = run_distance(walk.n_vertices, walk.steps, current.steps)
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
