"""Rewrite rules checked one by one, then the fixpoint driver end to end.

Each rule is checked through its verdict on the steps it reads (the
replacement steps, or the reason it does not apply) and through the site
generator that offers it to the driver. Expected outputs for the driver
tests were worked out by hand from the rule definitions (scan order is
leftmost position first, merge rules before singleton moves before layer
replacement) and are asserted exactly. The unitary oracle is total_unitary, compared through the
phase-invariant distance, the same check the driver itself performs.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalog
import dynwalk.rewrite_optimizer as ro
import pinned_outputs
import trace_fixtures as tf
from dynwalk.gate_compiler import (
    Circuit,
    Gate,
    all_loops_graph,
    circuit_unitary,
    compile_circuit,
    compile_gate,
    compile_hadamard_layer,
    matching_graph,
    schedule_phases,
)
from dynwalk.graph_model import DynamicGraph, Graph, TimedGraph
from dynwalk.numerics import phase_distance
from dynwalk.rewrite_optimizer import (
    ALL_RULES,
    RULE_COMBINE_PST,
    RULE_DROP_ZERO,
    RULE_HYPERCUBE_HADAMARD,
    RULE_MERGE_COMPLEMENTARY,
    RULE_MERGE_IDENTICAL,
    RULE_MOVE_SINGLETON,
    RULE_NORMALIZE_TIME,
    RULE_SWAP_COMMUTING,
    RewriteStep,
    optimize,
)
from dynwalk.walk_engine import step_unitary, total_unitary


def angle(num, den=1):
    return Fraction(num, den)


def loops(n, vertices, num, den=1):
    return TimedGraph(Graph.make(n, loops=vertices), angle(num, den))


def match(n, mask, num, den=1):
    return TimedGraph(matching_graph(n, mask), angle(num, den))


def walk_of(*steps):
    return DynamicGraph(steps[0].graph.n_vertices, steps)


def assert_same_program(a, b, tol=1e-9):
    assert phase_distance(total_unitary(a), total_unitary(b)) < tol


# -- SWAP_COMMUTING: the block swaps ----------------------------------------------


def test_swap_commuting_exchanges_steps():
    walk = walk_of(loops(2, [0], 1, 2), loops(2, [1], 1))
    assert ro._cached_commute(walk.steps[0].graph, walk.steps[1].graph)
    sites = list(ro._block_swap_sites(walk))
    assert sites == [(0, 2, (walk.steps[1], walk.steps[0]), "swap blocks 1+1")]
    assert_same_program(walk, walk.replaced(0, 2, sites[0][2]), tol=1e-12)


def test_swap_commuting_rejects_non_commuting():
    walk = walk_of(
        TimedGraph(Graph.make(3, edges=[(0, 1)]), angle(1, 2)),
        TimedGraph(Graph.make(3, edges=[(1, 2)]), angle(1, 2)),
    )
    assert not ro._cached_commute(walk.steps[0].graph, walk.steps[1].graph)
    assert list(ro._block_swap_sites(walk)) == []


def test_swap_commuting_rejects_bad_index():
    # one step has no neighbor to swap with
    walk = walk_of(loops(2, [0], 1, 2))
    assert list(ro._block_swap_sites(walk)) == []


# -- MERGE_IDENTICAL ----------------------------------------------------------------


def test_merge_identical_sums_durations():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 4))
    assert ro._merge_identical(*walk.steps) == (match(4, 1, 3, 4),)


def test_merge_identical_reduces_modulo_period():
    walk = walk_of(loops(2, [0], 3, 2), loops(2, [0], 3, 2))
    merged = ro._merge_identical(*walk.steps)
    assert merged == (loops(2, [0], 1),)
    assert_same_program(walk, walk.replaced(0, 2, merged), tol=1e-12)


def test_merge_identical_drops_full_period():
    walk = walk_of(match(4, 1, 1), match(4, 1, 1))
    assert ro._merge_identical(*walk.steps) == ()


def test_merge_identical_rejects_different_graphs():
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 2))
    assert ro._merge_identical(*walk.steps) == "graphs differ"
    assert list(ro._merge_identical_sites(walk, 0)) == []


def test_merge_sites_need_a_step_after_the_index():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2), loops(4, [1], 1, 2))
    assert list(ro._merge_identical_sites(walk, 0)) == [(0, 2, (match(4, 1, 1),), "")]
    last = walk.graph_count - 1
    assert list(ro._merge_identical_sites(walk, last)) == []
    assert list(ro._merge_complementary_sites(walk, last)) == []


# -- COMBINE_PST: the fold of a phased-permutation run --------------------------------


def test_combine_pst_cancels_inverse_matchings():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 3, 2))
    assert ro._fold(4, walk.steps) == ()


def test_combine_pst_equal_matchings_leave_loop_graph():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    combined = ro._fold(4, walk.steps)
    assert combined == (TimedGraph(all_loops_graph(4), angle(1)),)
    assert_same_program(walk, walk.replaced(0, 2, combined), tol=1e-12)


def test_combine_pst_fuses_masks():
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 2))
    combined = ro._fold(4, walk.steps)
    assert combined == (
        match(4, 3, 1, 2),
        TimedGraph(all_loops_graph(4), angle(1, 2)),
    )
    assert_same_program(walk, walk.replaced(0, 2, combined), tol=1e-12)


def test_combine_pst_collapses_two_gate_run():
    walk = walk_of(
        match(4, 2, 1, 2),
        TimedGraph(all_loops_graph(4), angle(3, 2)),
        match(4, 1, 1, 2),
        TimedGraph(all_loops_graph(4), angle(3, 2)),
    )
    combined = ro._fold(4, walk.steps)
    assert combined == (
        match(4, 3, 1, 2),
        TimedGraph(all_loops_graph(4), angle(3, 2)),
    )
    assert_same_program(walk, walk.replaced(0, 4, combined), tol=1e-12)
    assert list(ro._combine_pst_sites(walk, 0)) == [(0, 4, combined, "")]


def test_combine_pst_rejects_unclassifiable_step():
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 4))
    assert ro._fold(4, walk.steps) == "step is not a phased permutation"


def test_combine_pst_rejects_short_span():
    # the site generators offer runs of two or more steps only
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 2))
    assert list(ro._combine_pst_sites(walk, 1)) == []
    assert list(ro._fold_sites(walk, 1)) == []
    assert [site[:2] for site in ro._combine_pst_sites(walk, 0)] == [(0, 2)]
    assert [site[:2] for site in ro._fold_sites(walk, 0)] == [(0, 2)]


def test_combine_pst_folds_matching_into_partial_matching():
    # X on mask 2 swaps 4<->6 and 5<->7, and the partial matching swaps
    # them back, so only (0 2)(1 3) moves; rows 4-7 keep (-i)^2 = -1
    walk = walk_of(
        match(8, 2, 1, 2),
        TimedGraph(Graph.make(8, edges=[(4, 6), (5, 7)]), angle(1, 2)),
    )
    folded = ro._fold(8, walk.steps)
    assert folded == (
        TimedGraph(Graph.make(8, edges=[(0, 2), (1, 3)]), angle(1, 2)),
        loops(8, [4, 5, 6, 7], 1),
    )
    assert_same_program(walk, walk.replaced(0, 2, folded), tol=1e-12)


def test_combine_pst_folds_a_run_once_for_every_walk_that_holds_it(monkeypatch):
    scheduled = []
    real = ro.schedule_phases

    def counted(*args):
        scheduled.append(args)
        return real(*args)

    monkeypatch.setattr(ro, "schedule_phases", counted)
    ro._fold.cache_clear()
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 2), loops(4, [0], 1, 2))
    other = walk.replaced(2, 3, [loops(4, [1], 1, 4)])
    sites = list(ro._combine_pst_sites(walk, 0))
    assert [site[:2] for site in sites] == [(0, 2)]
    assert list(ro._combine_pst_sites(other, 0)) == sites
    assert len(scheduled) == 1


def test_combine_pst_rejects_three_cycle():
    walk = walk_of(
        TimedGraph(Graph.make(4, edges=[(0, 1)]), angle(1, 2)),
        TimedGraph(Graph.make(4, edges=[(1, 2)]), angle(1, 2)),
    )
    assert ro._fold(4, walk.steps) == "the run's permutation is not an involution"


@pytest.mark.parametrize("seed", range(20))
def test_combine_pst_fold_keeps_the_exact_unitary(seed):
    # loops at multiples of pi/4 and partial matchings at multiples of
    # pi/2 are phased permutations; the fold applies exactly when their
    # product permutes by an involution and then keeps the unitary itself,
    # global phase included
    rng = random.Random(seed)
    n = rng.choice([3, 4, 5, 8])
    steps = []
    for _ in range(rng.randrange(2, 5)):
        vertices = rng.sample(range(n), rng.randint(1, n))
        if rng.random() < 0.5 or len(vertices) < 2:
            steps.append(TimedGraph(Graph.make(n, loops=vertices), angle(rng.randint(1, 7), 4)))
        else:
            pairs = [vertices[i : i + 2] for i in range(0, len(vertices) - 1, 2)]
            steps.append(TimedGraph(Graph.make(n, edges=pairs), angle(rng.randint(1, 3), 2)))
    walk = DynamicGraph(n, tuple(steps))
    product = total_unitary(walk)
    perm = np.abs(product).argmax(axis=0)
    folded = ro._fold(n, walk.steps)
    if not np.array_equal(perm[perm], np.arange(n)):
        assert isinstance(folded, str)
        return
    assert np.abs(total_unitary(walk.replaced(0, len(steps), folded)) - product).max() < 1e-9


# -- MERGE_COMPLEMENTARY ------------------------------------------------------------


def test_merge_complementary_overlaps_disjoint_steps():
    walk = walk_of(loops(3, [0], 1, 2), loops(3, [1], 3, 2))
    merged = ro._merge_complementary(*walk.steps)
    assert merged == (loops(3, [0, 1], 1, 2), loops(3, [1], 1))
    assert_same_program(walk, walk.replaced(0, 2, merged), tol=1e-12)


def test_merge_complementary_longer_first_step():
    walk = walk_of(loops(3, [0], 3, 2), loops(3, [1], 1, 2))
    assert ro._merge_complementary(*walk.steps) == (loops(3, [0, 1], 1, 2), loops(3, [0], 1))


def test_merge_complementary_equal_durations_fuse_fully():
    walk = walk_of(
        TimedGraph(Graph.make(4, edges=[(0, 1)]), angle(1, 2)),
        TimedGraph(Graph.make(4, edges=[(2, 3)]), angle(1, 2)),
    )
    merged = ro._merge_complementary(*walk.steps)
    assert merged == (TimedGraph(Graph.make(4, edges=[(0, 1), (2, 3)]), angle(1, 2)),)
    assert_same_program(walk, walk.replaced(0, 2, merged), tol=1e-12)
    assert list(ro._merge_complementary_sites(walk, 0)) == [(0, 2, merged, "")]


def test_merge_complementary_rejects_norm_mismatch():
    walk = walk_of(
        loops(4, [0], 1, 2),
        TimedGraph(Graph.make(4, edges=[(1, 2), (2, 3)]), angle(1, 2)),
    )
    assert ro._merge_complementary(*walk.steps) == "spectral norms differ"


def test_merge_complementary_rejects_overlap():
    walk = walk_of(loops(2, [0], 1, 2), loops(2, [0, 1], 1, 2))
    assert ro._merge_complementary(*walk.steps) == "supports overlap"


def test_merge_complementary_rejects_empty_step():
    walk = walk_of(loops(2, [0], 1, 2), TimedGraph(Graph.make(2), angle(1, 2)))
    assert ro._merge_complementary(*walk.steps) == "empty step"
    assert list(ro._merge_complementary_sites(walk, 0)) == []


# -- MOVE_SINGLETON: the two singleton verdicts and the moves they build --------------


def singleton_move(walk, source, vertex, target):
    """The walk after the move of the vertex's phase from source to target, or None."""
    wanted = f"{vertex} {target}"
    for start, stop, replacement, note in ro._singleton_moves(walk, source, "{vertex} {target}"):
        if note == wanted:
            return walk.replaced(start, stop, replacement)
    return None


def test_move_singleton_into_loop_step_cancels():
    walk = walk_of(loops(2, [0], 1, 2), loops(2, [0, 1], 3, 2))
    assert ro._singleton_source(walk.steps[0], 0) == (angle(1, 2), ())
    moved = singleton_move(walk, 0, 0, 1)
    assert moved.steps == (loops(2, [1], 3, 2),)
    assert_same_program(walk, moved, tol=1e-12)


def test_move_singleton_joins_edge_step_with_residue():
    walk = walk_of(
        loops(3, [0], 1),
        TimedGraph(Graph.make(3, edges=[(1, 2)]), angle(1, 2)),
    )
    moved = singleton_move(walk, 0, 0, 1)
    assert moved.steps == (
        TimedGraph(Graph.make(3, edges=[(1, 2)], loops=[0]), angle(1, 2)),
        loops(3, [0], 1, 2),
    )
    assert_same_program(walk, moved, tol=1e-12)


def test_move_singleton_respects_corridor():
    walk = walk_of(
        loops(3, [0], 1, 2),
        TimedGraph(Graph.make(3, edges=[(0, 1)]), angle(1, 2)),
        loops(3, [0, 2], 1),
    )
    # the target alone would take the phase; the step between blocks it
    assert not isinstance(ro._singleton_landing(walk.steps[2], 0, angle(1, 2)), str)
    assert singleton_move(walk, 0, 0, 2) is None


def test_move_singleton_rejects_attached_vertex():
    walk = walk_of(
        TimedGraph(Graph.make(3, edges=[(0, 1)], loops=[0]), angle(1, 2)),
        loops(3, [0], 1),
    )
    assert ro._singleton_source(walk.steps[0], 0) == "vertex is not a looped singleton in the source"
    assert singleton_move(walk, 0, 0, 1) is None


def test_move_singleton_rejects_unlooped_vertex():
    walk = walk_of(match(4, 1, 1, 2), loops(4, [0], 1))
    assert ro._singleton_source(walk.steps[0], 0) == "vertex is not a looped singleton in the source"
    assert singleton_move(walk, 0, 0, 1) is None


def test_move_singleton_rejects_same_source_and_target():
    walk = walk_of(loops(2, [0], 1, 2), loops(2, [1], 1))
    assert singleton_move(walk, 0, 0, 0) is None


def test_move_singleton_rejects_short_phase():
    walk = walk_of(
        loops(3, [0], 1, 4),
        TimedGraph(Graph.make(3, edges=[(1, 2)]), angle(1, 2)),
    )
    landed = ro._singleton_landing(walk.steps[1], 0, angle(1, 4))
    assert landed == "singleton phase is shorter than the target"
    assert singleton_move(walk, 0, 0, 1) is None


def test_move_singleton_rejects_an_irrational_source_norm():
    # the path 0-1-2 has norm sqrt(2), so the phase of vertex 3 is no fraction of pi
    walk = walk_of(
        TimedGraph(Graph.make(4, edges=[(0, 1), (1, 2)], loops=[3]), angle(1, 2)),
        loops(4, [3], 1),
    )
    assert ro._singleton_source(walk.steps[0], 3) == "source norm is not a small rational"
    assert singleton_move(walk, 0, 3, 1) is None


def test_move_singleton_rejects_mixed_target_with_loop():
    walk = walk_of(
        loops(3, [0], 1, 2),
        TimedGraph(Graph.make(3, edges=[(1, 2)], loops=[0]), angle(1, 2)),
    )
    landed = ro._singleton_landing(walk.steps[1], 0, angle(1, 2))
    assert landed == "target loops the vertex but is not loops-only"
    assert singleton_move(walk, 0, 0, 1) is None


# -- HYPERCUBE_HADAMARD ---------------------------------------------------------------


def hadamard_layer_of(walk, start, stop):
    """The Hadamard-layer verdict on steps[start:stop], given their product."""
    span = walk.steps[start:stop]
    return ro._hypercube_hadamard(span, ro._product(walk.n_vertices, span))


def single_qubit_h_fixture():
    return walk_of(loops(2, [1], 3, 2), match(2, 1, 1, 4), loops(2, [1], 3, 2))


def test_hypercube_hadamard_replaces_single_qubit_fragment():
    walk = single_qubit_h_fixture()
    assert walk.total_time() == angle(13, 4)
    replaced = walk.replaced(0, 3, hadamard_layer_of(walk, 0, 3))
    layer = compile_hadamard_layer([0], 1)
    assert replaced.steps == layer.steps
    assert replaced.total_time() == angle(5, 4)
    assert_same_program(walk, replaced)


def test_hypercube_hadamard_fuses_two_sequential_fixtures():
    walk = walk_of(
        loops(4, [2, 3], 3, 2),
        match(4, 2, 1, 4),
        loops(4, [2, 3], 3, 2),
        loops(4, [1, 3], 3, 2),
        match(4, 1, 1, 4),
        loops(4, [1, 3], 3, 2),
    )
    assert walk.total_time() == angle(13, 2)
    replaced = walk.replaced(0, 6, hadamard_layer_of(walk, 0, 6))
    layer = compile_hadamard_layer([0, 1], 2)
    assert replaced.steps == layer.steps
    assert replaced.graph_count == 5
    assert replaced.total_time() == angle(5, 2)
    assert_same_program(walk, replaced)
    assert list(ro._hypercube_sites(walk, 0)) == [(0, 6, layer.steps, "")]


def test_hypercube_hadamard_rejects_non_hadamard():
    # X costs less than the layer, which is checked before the dense comparison
    walk = walk_of(match(2, 1, 1, 2))
    assert hadamard_layer_of(walk, 0, 1) == "layer replacement is not strictly cheaper"


def test_hypercube_hadamard_rejects_when_not_cheaper():
    layer = compile_hadamard_layer([0], 1)
    assert hadamard_layer_of(layer, 0, 3) == "layer replacement is not strictly cheaper"


def test_hypercube_hadamard_reads_a_non_contiguous_subset():
    first = compile_gate(Gate("H", target=0), 3)
    second = compile_gate(Gate("H", target=2), 3)
    walk = DynamicGraph(8, first.steps + second.steps)
    replaced = walk.replaced(0, walk.graph_count, hadamard_layer_of(walk, 0, walk.graph_count))
    assert replaced.steps == compile_hadamard_layer([0, 2], 3).steps
    assert_same_program(walk, replaced)


def test_hypercube_hadamard_rejects_right_support_with_wrong_phases():
    # Z after the layer keeps column 0's support but flips half its signs
    walk = DynamicGraph(
        8, compile_hadamard_layer([0, 2], 3).steps + compile_gate(Gate("Z", target=2), 3).steps
    )
    assert hadamard_layer_of(walk, 0, walk.graph_count) == "fragment is not a Hadamard layer"


def test_hypercube_hadamard_rejects_bad_span_and_size():
    walk = single_qubit_h_fixture()
    assert hadamard_layer_of(walk, 2, 2) == "fragment is not a Hadamard layer"
    odd = walk_of(loops(3, [0], 1, 2))
    assert list(ro._hypercube_sites(odd, 0)) == []


# -- rule sites against brute-force enumeration ------------------------------------


def brute_force_singleton_moves(walk, source, note):
    """Every (vertex, target) move the two singleton verdicts allow.

    The vertex must stay edge-free in every step strictly between source
    and target; this is checked step by step, for every target of the walk.
    """
    steps = walk.steps
    sites = []
    for vertex in range(walk.n_vertices):
        moved = ro._singleton_source(steps[source], vertex)
        if isinstance(moved, str):
            continue
        tau, left = moved
        for target in range(walk.graph_count):
            lo, hi = sorted((source, target))
            if target == source or not all(steps[k].graph.degree_free(vertex) for k in range(lo + 1, hi)):
                continue
            landed = ro._singleton_landing(steps[target], vertex, tau)
            if isinstance(landed, str):
                continue
            if source < target:
                replacement = left + steps[source + 1 : target] + landed
            else:
                replacement = landed + steps[target + 1 : source] + left
            sites.append((lo, hi + 1, replacement, note.format(vertex=vertex, source=source, target=target)))
    return sites


def random_singleton_step(rng, n):
    duration = angle(rng.randrange(1, 8), 4)
    kind = rng.randrange(3)
    if kind == 0:
        return TimedGraph(Graph.make(n, loops=[v for v in range(n) if rng.random() < 0.5]), duration)
    if kind == 1:
        return TimedGraph(Graph.make(n, loops=[rng.randrange(n)]), duration)
    # a partial matching, with loops on some vertices inside and outside it
    order = rng.sample(range(n), n)
    pairs = [(order[i], order[i + 1]) for i in range(0, n - 1, 2) if rng.random() < 0.6]
    looped = [v for v in range(n) if rng.random() < 0.4]
    return TimedGraph(Graph.make(n, edges=pairs, loops=looped), duration)


@pytest.mark.parametrize("seed", range(30))
def test_singleton_moves_match_the_brute_force_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    walk = DynamicGraph(n, tuple(random_singleton_step(rng, n) for _ in range(rng.randrange(2, 9))))
    note = "vertex {vertex}: step {source} -> step {target}"
    for source in range(walk.graph_count):
        assert list(ro._singleton_moves(walk, source, note)) == brute_force_singleton_moves(
            walk, source, note
        )


def test_singleton_moves_skip_targets_beyond_the_corridor(monkeypatch):
    walk = walk_of(
        loops(3, [0], 1),
        TimedGraph(Graph.make(3, edges=[(0, 1)]), angle(1, 2)),
        TimedGraph(Graph.make(3, edges=[(1, 2)]), angle(1, 2)),
    )
    targets = []
    real = ro._singleton_landing

    def counted(step, vertex, tau):
        targets.append(walk.steps.index(step))
        return real(step, vertex, tau)

    monkeypatch.setattr(ro, "_singleton_landing", counted)
    assert list(ro._singleton_moves(walk, 0, "")) == []
    assert targets == [1]


def random_loops_step(rng, n):
    looped = [v for v in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
    den = rng.randrange(1, 129)
    return TimedGraph(Graph.make(n, loops=looped), angle(rng.randrange(1, 4 * den), den))


def reference_staircase(run, n):
    """The staircase of a loops-only run: per-vertex phase sums, then the schedule."""
    totals = {}
    for step in run:
        for v in step.graph.loops:
            totals[v] = (totals.get(v, angle(0)) + step.duration) % 2
    width = sum(1 for total in totals.values() if total)
    return schedule_phases(totals, n), f"staircase over {width} vertices"


@pytest.mark.parametrize("seed", range(20))
def test_staircase_sites_match_the_phase_sums(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    walk = DynamicGraph(n, tuple(random_loops_step(rng, n) for _ in range(rng.randrange(2, 7))))
    count = walk.graph_count
    for start in range(count):
        expected = []
        if count - start >= 2:
            stair, note = reference_staircase(walk.steps[start:], n)
            expected = [(start, count, stair, note)]
        assert list(ro._staircase_sites(walk, start)) == expected


@pytest.mark.parametrize("seed", range(10))
def test_cached_permutation_rebuilds_loops_only_steps(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 9)
    for step in [random_loops_step(rng, n) for _ in range(5)] + [loops(n, [0], 2)]:
        flip = ro._cached_permutation(step)
        rebuilt = np.zeros((n, n), dtype=complex)
        rebuilt[list(flip.perm), range(n)] = [np.exp(-1j * np.pi * float(a)) for a in flip.angles]
        assert np.abs(rebuilt - step_unitary(step)).max() < 1e-12
        assert flip.bitflip == (len(set(flip.angles)) == 1)


def per_stop_hypercube_sites(walk, index, window=None):
    """The longest span from the index that the Hadamard-layer verdict accepts.

    Each span's product is built on its own. With a window [a, b), only
    spans that hold part of it but not all of it.
    """
    for stop in range(walk.graph_count, index, -1):
        if window is not None:
            a, b = window
            if stop <= a or index >= b or (index <= a and stop >= b):
                continue
        span = walk.steps[index:stop]
        layer = ro._hypercube_hadamard(span, ro._product(walk.n_vertices, span))
        if not isinstance(layer, str):
            return [(index, stop, layer, "")]
    return []


def random_hadamard_walk(rng, n_qubits):
    n = 2**n_qubits
    steps = []
    for _ in range(rng.randrange(2, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            steps.extend(compile_gate(Gate("H", target=rng.randrange(n_qubits)), n_qubits).steps)
        elif kind == 1:
            # a layer padded with a global phase, which the pass strips
            targets = [q for q in range(n_qubits) if rng.random() < 0.6] or [0]
            steps.extend(compile_hadamard_layer(targets, n_qubits).steps)
            steps.append(TimedGraph(all_loops_graph(n), angle(rng.randrange(1, 4), 4)))
        elif kind == 2:
            steps.append(loops(n, [v for v in range(n) if rng.random() < 0.5] or [0], rng.randrange(1, 8), 4))
        else:
            steps.append(match(n, rng.randrange(1, n), rng.randrange(1, 4), 4))
    return DynamicGraph(n, tuple(steps))


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_hypercube_sites_match_the_per_stop_scan(n_qubits):
    rng = random.Random(n_qubits)
    found = {"whole walk": 0, "window": 0}
    for _ in range(6):
        walk = random_hadamard_walk(rng, n_qubits)
        count = walk.graph_count
        for index in range(count):
            sites = list(ro._hypercube_sites(walk, index))
            assert sites == per_stop_hypercube_sites(walk, index)
            found["whole walk"] += len(sites)
        for _ in range(8):
            start = rng.randrange(count)
            window = (start, rng.randrange(start + 1, count + 1))
            for index in range(count):
                sites = list(ro._hypercube_sites(walk, index, window))
                assert sites == per_stop_hypercube_sites(walk, index, window)
                found["window"] += len(sites)
    assert all(found.values())


def random_circuit(rng, widths=(3, 4)):
    """6-10 gates drawn from X, Y, Z, S, T, H and CNOT on one of the widths."""
    n_qubits = rng.choice(widths)
    gates = []
    for _ in range(rng.randrange(6, 11)):
        kind = rng.choice(["X", "Y", "Z", "S", "T", "H", "CNOT"])
        if kind == "CNOT":
            control, target = rng.sample(range(n_qubits), 2)
            gates.append(Gate("CNOT", control=control, target=target))
        else:
            gates.append(Gate(kind, target=rng.randrange(n_qubits)))
    return Circuit(n_qubits, tuple(gates))


def random_walk(rng):
    """2-8 vertices, 4-10 steps."""
    n = rng.randrange(2, 9)
    return DynamicGraph(n, tuple(random_singleton_step(rng, n) for _ in range(rng.randrange(4, 11))))


@pytest.mark.parametrize("seed", range(10))
def test_span_time_sums_the_steps_less_the_others_exactly(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    for _ in range(20):
        steps = [random_loops_step(rng, n) for _ in range(rng.randrange(0, 4))]
        minus = [random_loops_step(rng, n) for _ in range(rng.randrange(0, 4))]
        expected = sum((s.duration for s in steps), angle(0)) - sum((s.duration for s in minus), angle(0))
        assert ro._span_time(steps, minus=minus) == expected
        assert ro._span_time(steps) == sum((s.duration for s in steps), angle(0))


@pytest.mark.parametrize("seed", range(10))
def test_gain_prices_every_site_from_its_durations(seed):
    walk = random_walk(random.Random(seed))
    priced = 0
    for rule, sites, walk_sites, _ in ro._RULE_TABLE:
        offered = list(walk_sites(walk)) if walk_sites else []
        for index in range(walk.graph_count if sites else 0):
            offered.extend(sites(walk, index))
        for start, stop, replacement, _ in offered:
            saved = sum((s.duration for s in walk.steps[start:stop]), angle(0)) - sum(
                (s.duration for s in replacement), angle(0)
            )
            assert ro._gain(walk, start, stop, replacement) == (saved, stop - start - len(replacement))
            priced += 1
    assert priced > 0


# -- the enabling search ------------------------------------------------------------


def enabling_searches(walk):
    """The (walk, rows, moves, skip set) of every enabling search optimize runs."""
    searches = []
    real = ro._find_enabling_pair

    def recorded(current, rows, moves, skip):
        searches.append((current, rows, moves, set(skip)))
        return real(current, rows, moves, skip)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ro, "_find_enabling_pair", recorded)
        optimize(walk)
    return searches


def neutral_moves(walk, moves, skip=()):
    """Every enabling candidate: the moved walk and the window it rewrote.

    A candidate is cost-neutral, changes its span and is not skipped.
    """
    for _, sites in moves:
        for start, stop, replacement, _ in sites(walk):
            span = walk.steps[start:stop]
            if ro._gain(walk, start, stop, replacement) != (0, 0) or replacement == span:
                continue
            if (span, replacement) not in skip:
                yield walk.replaced(start, stop, replacement), (start, stop)


def search_input(seed):
    """Seeds 0-29: random walks on 2-8 vertices; 30-39: compiled random 2-qubit circuits."""
    rng = random.Random(seed)
    return random_walk(rng) if seed < 30 else compile_circuit(random_circuit(rng, widths=(2,)))


def random_rewrite(rng, walk, start, stop):
    """The walk with steps[start:stop] replaced by as many random steps."""
    n = walk.n_vertices
    make = random_step if n & (n - 1) == 0 else random_singleton_step
    return walk.replaced(start, stop, [make(rng, n) for _ in range(stop - start)])


@pytest.mark.parametrize("seed", range(40))
def test_sites_left_out_for_a_window_do_not_read_it(seed):
    """A site a rule leaves out for a window is one it offered before the window changed."""
    rng = random.Random(seed)
    walk = search_input(seed)
    count = walk.graph_count
    rows = [sites for _, sites, _, _ in ro._RULE_TABLE if sites not in (None, ro._hypercube_sites)]
    for _ in range(6):
        start = rng.randrange(count)
        window = (start, rng.randrange(start + 1, min(start + 3, count) + 1))
        moved = random_rewrite(rng, walk, *window)
        for sites in rows:
            for index in range(count):
                offered = list(sites(moved, index, window))
                every = list(sites(moved, index))
                assert offered == [site for site in every if site in offered]
                before = list(sites(walk, index))
                assert all(site in before for site in every if site not in offered), (sites, index, window)


def test_windowed_follow_up_scan_matches_the_full_scan():
    landed = []
    for seed in range(40):
        for current, rows, moves, skip in enabling_searches(search_input(seed)):
            for moved, window in neutral_moves(current, moves, skip):
                follow = ro._scan(moved, rows, skip, window)
                assert follow == ro._scan(moved, rows, skip), (seed, window)
                if follow is not None:
                    landed.append(follow[0].span[0] < window[0])
    # the inputs reach follow-ups that land, some of them left of the window
    assert len(landed) >= 20 and any(landed)


def test_windowed_follow_up_scan_matches_the_full_scan_while_rewrites_are_skipped(monkeypatch):
    """The first three improving rewrites that are not Hadamard layers fail.

    A Hadamard layer never fails: its verdict makes the comparison the
    verification makes (see test_hadamard_layer_sites_pass_their_verification).
    """
    real = ro._span_verified
    failed = []

    def fails_three(program, rewrite):
        record = rewrite[0]
        improving = (record.time_saved, record.graphs_removed) > (0, 0)
        if improving and record.rule != RULE_HYPERCUBE_HADAMARD and len(failed) < 3:
            failed.append(record)
            return False
        return real(program, rewrite)

    monkeypatch.setattr(ro, "_span_verified", fails_three)
    landed = changed = 0
    for seed in range(40):
        failed.clear()
        for current, rows, moves, skip in enabling_searches(search_input(seed)):
            if not skip:
                continue
            for moved, window in neutral_moves(current, moves, skip):
                follow = ro._scan(moved, rows, skip, window)
                assert follow == ro._scan(moved, rows, skip), (seed, window)
                landed += follow is not None
                changed += follow != ro._scan(moved, rows, set())
    # follow-ups land, and the skip sets change what some of them find
    assert landed >= 20 and changed >= 5


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_hadamard_layer_sites_pass_their_verification(n_qubits):
    rng = random.Random(n_qubits)
    found = 0
    for _ in range(10):
        walk = random_hadamard_walk(rng, n_qubits)
        for index in range(walk.graph_count):
            for start, stop, replacement, _ in ro._hypercube_sites(walk, index):
                record = RewriteStep(RULE_HYPERCUBE_HADAMARD, (start, stop), angle(0), 0)
                assert ro._span_verified(walk, (record, replacement))
                found += 1
    assert found


def test_enabling_search_keeps_the_window_while_rewrites_are_skipped(monkeypatch):
    final, _ = optimize(search_input(0))
    regular, _, moves = ro._pick_rows(set(ALL_RULES))
    candidates = [window for _, window in neutral_moves(final, moves)]
    assert candidates
    windows = []
    real = ro._scan

    def recorded(walk, rows, skip, window=None):
        windows.append(window)
        return real(walk, rows, skip, window)

    monkeypatch.setattr(ro, "_scan", recorded)
    assert ro._find_enabling_pair(final, regular, moves, set()) is None
    assert windows == candidates
    windows.clear()
    # a rewrite that dropped the first step, skipped since it failed
    assert ro._find_enabling_pair(final, regular, moves, {(final.steps[:1], ())}) is None
    assert windows == candidates


def test_enabling_search_passes_over_moves_that_keep_their_span(monkeypatch):
    step = match(2, 1, 1, 3)
    walk = walk_of(step, step, loops(2, [0], 1, 2))
    regular, _, moves = ro._pick_rows(set(ALL_RULES))
    kept = [
        (start, stop)
        for _, sites in moves
        for start, stop, replacement, _ in sites(walk)
        if replacement == walk.steps[start:stop]
    ]
    # swapping the two equal blocks rewrites (0, 2) into the same steps
    assert (0, 2) in kept
    scanned = []
    real = ro._scan

    def recorded(moved, rows, skip, window=None):
        scanned.append(moved)
        return real(moved, rows, skip, window)

    monkeypatch.setattr(ro, "_scan", recorded)
    ro._find_enabling_pair(walk, regular, moves, set())
    assert walk not in scanned


# -- the driver -------------------------------------------------------------------


def test_optimize_collapses_double_bit_flip():
    walk = walk_of(
        match(4, 2, 1, 2),
        TimedGraph(all_loops_graph(4), angle(3, 2)),
        match(4, 1, 1, 2),
        TimedGraph(all_loops_graph(4), angle(3, 2)),
    )
    final, report = optimize(walk)
    assert final.steps == (
        match(4, 3, 1, 2),
        TimedGraph(all_loops_graph(4), angle(3, 2)),
    )
    assert final.total_time() == angle(2)
    assert report.verified
    assert [r.rule for r in report.rewrites] == [RULE_COMBINE_PST]
    assert report.rewrites[0].span == (0, 4)
    assert report.rewrites[0].time_saved == angle(2)
    assert report.rewrites[0].graphs_removed == 2
    assert_same_program(walk, final)


def test_optimize_collapses_loop_tail():
    walk = walk_of(match(4, 2, 1, 2), loops(4, [2, 3], 1), loops(4, [1, 3], 1))
    final, report = optimize(walk)
    assert final.steps == (match(4, 2, 1, 2), loops(4, [1, 2], 1))
    assert final.total_time() == angle(3, 2)
    assert report.verified
    assert [r.rule for r in report.rewrites] == [RULE_MOVE_SINGLETON]
    assert report.rewrites[0].span == (1, 3)
    assert report.rewrites[0].graphs_removed == 1
    assert_same_program(walk, final)


def test_optimize_staircases_durations_beyond_the_phase_denominator_limit():
    walk = walk_of(loops(4, [1], 3, 200), loops(4, [1, 2], 1, 300), loops(4, [3], 7, 3))
    final, report = optimize(walk)
    assert final.steps == (loops(4, [3], 63, 200), loops(4, [1, 3], 3, 200), loops(4, [1, 2, 3], 1, 300))
    assert [(r.rule, r.detail) for r in report.rewrites] == [
        (RULE_NORMALIZE_TIME, "7π/3 -> π/3"),
        (RULE_MOVE_SINGLETON, "staircase over 3 vertices"),
    ]
    assert report.verified
    assert_same_program(walk, final)


def test_optimize_chains_layer_and_merge():
    # the first three steps bracket the quarter-period matching with
    # unequal stairs, which still multiplies out to -i times a Hadamard,
    # so the layer rule fires before anything else gets a chance
    walk = walk_of(
        loops(2, [1], 3, 2),
        match(2, 1, 1, 4),
        loops(2, [0], 1, 2),
        loops(2, [1], 1),
    )
    final, report = optimize(walk)
    assert final.steps == (
        loops(2, [0], 1, 2),
        match(2, 1, 1, 4),
        loops(2, [0, 1], 1, 2),
        loops(2, [1], 1, 2),
    )
    assert final.total_time() == angle(7, 4)
    assert report.verified
    assert [r.rule for r in report.rewrites] == [
        RULE_HYPERCUBE_HADAMARD,
        RULE_MERGE_COMPLEMENTARY,
    ]
    assert report.rewrites[0].span == (0, 3)
    assert report.rewrites[0].time_saved == angle(1)
    assert report.rewrites[1].span == (2, 4)
    assert report.rewrites[1].time_saved == angle(1, 2)
    assert_same_program(walk, final)


def test_optimize_applies_hadamard_layer_rule():
    fixture = single_qubit_h_fixture()
    final, report = optimize(fixture)
    layer = compile_hadamard_layer([0], 1)
    assert final.total_time() <= layer.total_time()
    assert final.graph_count <= layer.graph_count
    assert report.verified
    assert_same_program(fixture, final)


def test_optimize_normalization_records():
    walk = walk_of(loops(4, [0], 5, 2), match(4, 1, 0), match(4, 2, 2))
    final, report = optimize(walk)
    assert final.steps == (loops(4, [0], 1, 2),)
    assert [r.rule for r in report.rewrites] == [
        RULE_NORMALIZE_TIME,
        RULE_DROP_ZERO,
        RULE_NORMALIZE_TIME,
        RULE_DROP_ZERO,
    ]
    assert report.initial_time == angle(9, 2)
    assert report.final_time == angle(1, 2)
    assert report.initial_count == 3
    assert report.final_count == 1
    assert report.verified


def test_optimize_report_dict_shape():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    _, report = optimize(walk)
    d = report.to_dict()
    assert set(d) == {"initial", "final", "rewrites", "rejected", "verified", "stop_reason"}
    assert d["stop_reason"] == "fixpoint"
    assert d["initial"]["graphs"] == 2
    assert d["final"]["time"]["pi_num"] == 1
    assert d["verified"] is True
    assert d["rejected"] == []
    assert all({"rule", "span", "time_saved", "graphs_removed", "detail"} <= set(r) for r in d["rewrites"])


def test_optimize_rejects_unknown_pass():
    walk = walk_of(match(4, 1, 1, 2))
    with pytest.raises(ValueError):
        optimize(walk, passes=["NOT_A_RULE"])


def test_optimize_rejects_a_negative_iteration_cap():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    with pytest.raises(ValueError, match="max_iterations"):
        optimize(walk, max_iterations=-1)
    assert optimize(walk, max_iterations=0)[0] == walk


def test_optimize_keeps_a_near_permutation_step_entrywise():
    """A matching just off pi/2 is not a phased permutation, so nothing folds it.

    Its unitary is within 1.6e-5 of X_1 * (-i) entrywise, and a fold of the
    pair into one matching lands under the 1e-9 phase-distance gate while
    moving entries by about that much; only the entrywise rebuild check in
    _cached_permutation stops it.
    """
    near = match(4, 1, 100001, 200000)
    walk = walk_of(near, match(4, 2, 1, 2))
    assert ro._cached_permutation(near) is None
    final, report = optimize(walk)
    assert report.verified
    u, v = total_unitary(walk), total_unitary(final)
    aligned = v * np.exp(1j * np.angle(np.vdot(v, u)))
    assert np.abs(aligned - u).max() < 1e-12


def test_optimize_with_swap_only_is_a_no_op():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    final, report = optimize(walk, passes=[RULE_SWAP_COMMUTING])
    assert final == walk
    assert report.rewrites == ()
    assert report.verified


def test_optimize_with_single_pass_subset():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    final, report = optimize(walk, passes=[RULE_MERGE_IDENTICAL])
    assert final.steps == (match(4, 1, 1),)
    assert [r.rule for r in report.rewrites] == [RULE_MERGE_IDENTICAL]


def test_optimize_folds_phased_permutations_as_last_resort():
    # no other rule improves this on 3 vertices; the fold runs the
    # matching for pi/2 instead of 3pi/2 and pays the rest with loops on
    # vertices 1 and 2
    walk = walk_of(TimedGraph(Graph.make(3, edges=[(0, 2)]), angle(3, 2)), loops(3, [0, 1], 1))
    final, report = optimize(walk)
    assert final.steps == (
        TimedGraph(Graph.make(3, edges=[(0, 2)]), angle(1, 2)),
        loops(3, [1, 2], 1),
    )
    assert [(r.rule, r.span, r.detail) for r in report.rewrites] == [
        (RULE_COMBINE_PST, (0, 2), "fold")
    ]
    assert_same_program(walk, final)
    without, _ = optimize(walk, passes=[r for r in ro.ALL_RULES if r != RULE_COMBINE_PST])
    assert without == walk


def test_optimize_iteration_cap():
    walk = walk_of(*(loops(2, [0], 1, 2) for _ in range(4)))
    final, report = optimize(walk, max_iterations=1)
    assert final.graph_count == 3
    assert len(report.rewrites) == 1


def test_optimize_iteration_cap_counts_rejected_rewrites(monkeypatch):
    walk = walk_of(*(loops(2, [0], 1, 2) for _ in range(4)))
    real = ro._span_verified
    checks = []

    def fails_once(program, rewrite):
        checks.append(rewrite)
        return len(checks) > 1 and real(program, rewrite)

    monkeypatch.setattr(ro, "_span_verified", fails_once)
    final, report = optimize(walk, max_iterations=1)
    assert len(report.rejected) == 1
    assert report.rewrites == ()
    assert final == walk
    assert report.stop_reason == "rejection cap"
    checks.clear()
    final, report = optimize(walk, max_iterations=2)
    assert len(report.rejected) == 1
    assert len(report.rewrites) == 1
    assert final.graph_count < walk.graph_count
    assert report.stop_reason == "iteration cap"
    assert_same_program(walk, final)


def test_optimize_charges_every_rejected_rewrite_against_the_cap(monkeypatch):
    """With every improving rewrite but a Hadamard layer failing, one try is all a cap of 1 allows."""
    walk = walk_of(*(loops(2, [0], 1, 2) for _ in range(4)))
    real = ro._span_verified

    def fails_improving(program, rewrite):
        record = rewrite[0]
        improving = (record.time_saved, record.graphs_removed) > (0, 0)
        return not (improving and record.rule != RULE_HYPERCUBE_HADAMARD) and real(program, rewrite)

    monkeypatch.setattr(ro, "_span_verified", fails_improving)
    final, report = optimize(walk, max_iterations=1)
    assert len(report.rejected) == 1
    assert report.stop_reason == "rejection cap"
    assert final == walk
    # uncapped, the loop tries until every failing rewrite is skipped
    final, report = optimize(walk)
    assert len(report.rejected) > 1
    assert report.stop_reason == "fixpoint"
    assert final == walk


def test_optimize_rolls_back_failed_verification(monkeypatch):
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    monkeypatch.setattr(ro, "phase_distance", lambda u, v: 1.0)
    final, report = optimize(walk, max_iterations=10)
    assert final == walk
    assert not report.verified
    assert len(report.rejected) >= 1
    assert all("verification failed" in line for line in report.rejected)
    assert report.rewrites == ()


def test_optimize_never_retries_a_failed_rewrite_after_the_walk_changes(monkeypatch):
    # merging the two path steps fails; merging the two edge steps lands
    # and changes the walk, and the failed merge is still not tried again
    path = TimedGraph(Graph.make(3, edges=[(0, 1), (1, 2)]), angle(1, 4))
    edge = TimedGraph(Graph.make(3, edges=[(0, 1)]), angle(1, 4))
    walk = walk_of(path, path, edge, edge)
    real = ro._span_verified
    tries = []

    def fails_the_path_merge(program, rewrite):
        record, replacement = rewrite
        if program.steps[slice(*record.span)] == (path, path):
            tries.append(replacement)
            return False
        return real(program, rewrite)

    monkeypatch.setattr(ro, "_span_verified", fails_the_path_merge)
    final, report = optimize(walk)
    assert tries == [(TimedGraph(path.graph, angle(1, 2)),)]
    assert len(report.rejected) == 1
    assert [(r.rule, r.span) for r in report.rewrites] == [(RULE_MERGE_IDENTICAL, (2, 4))]
    assert final.steps == (path, path, TimedGraph(edge.graph, angle(1, 2)))


def test_optimize_checks_output_against_input(monkeypatch):
    # a wrong period makes the normalization cut 3pi/4 down to pi/4
    monkeypatch.setattr(ro, "_cached_period", lambda graph: angle(1, 2))
    walk = walk_of(loops(2, [0], 3, 4))
    final, report = optimize(walk)
    assert final.steps[0].duration == angle(1, 4)
    assert not report.verified
    assert any("verification failed" in line for line in report.rejected)
    assert report.phase_distance > ro.VERIFY_TOLERANCE


def test_optimize_reports_end_to_end_distance():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    final, report = optimize(walk)
    assert report.verified
    assert report.phase_distance == phase_distance(total_unitary(walk), total_unitary(final))


def random_step(rng, n):
    kind = rng.randrange(3)
    duration = angle(rng.randrange(1, 8), 4)
    if kind == 0:
        vertices = [v for v in range(n) if rng.random() < 0.6] or [0]
        return TimedGraph(Graph.make(n, loops=vertices), duration)
    if kind == 1:
        mask = rng.randrange(1, n)
        return TimedGraph(matching_graph(n, mask), duration)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [p for p in pairs if rng.random() < 0.3]
    return TimedGraph(Graph.make(n, edges=chosen), duration)


@pytest.mark.parametrize("seed", range(20))
def test_optimize_preserves_unitary_and_never_pessimizes(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 4, 8])
    steps = [random_step(rng, n) for _ in range(rng.randrange(3, 7))]
    if seed % 3 == 0 and len(steps) >= 2:
        steps[1] = steps[0]  # plant an identical adjacent pair
    walk = DynamicGraph(n, tuple(steps))
    final, report = optimize(walk)
    assert report.verified
    assert_same_program(walk, final)
    before = (walk.total_time(), walk.graph_count)
    after = (final.total_time(), final.graph_count)
    assert after <= before


def steps_of(n, *rows):
    return tuple(
        TimedGraph(Graph.make(n, edges=edges, loops=looped), angle(num, den))
        for edges, looped, num, den in rows
    )


def test_optimize_keeps_the_short_and_recovered_program_results():
    short, _ = optimize(tf.short_program())
    assert short.steps == steps_of(
        8,
        ([], [0, 2], 1, 2),
        ([], [0, 1, 2, 3, 4, 6], 1, 2),
        ([(0, 1), (0, 4), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (6, 7)], [], 1, 2),
        ([(0, 2), (1, 3)], [], 1, 2),
        ([(0, 4), (1, 7), (2, 6), (3, 5)], [], 1, 2),
        ([], [4, 5], 1, 2),
        ([], [1, 2, 5, 6], 1, 4),
        ([], [3, 4, 5, 6], 1, 2),
        ([], [0, 1, 3, 4, 5, 6], 1, 2),
    )
    recovered, _ = optimize(catalog.reconstruct(tf.LONG_TRACE).program())
    assert recovered.steps == steps_of(
        8,
        ([], [0, 1, 2, 3], 1, 2),
        ([(0, 4), (1, 5), (2, 6), (3, 7)], [], 1, 4),
        ([(0, 2), (1, 3), (4, 6), (5, 7)], [], 1, 2),
        ([], [0, 2, 4, 6], 1, 2),
        ([(0, 1), (2, 3), (4, 5), (6, 7)], [], 1, 4),
        ([(4, 6), (5, 7)], [0, 1, 2, 3], 1, 2),
        ([(0, 4), (1, 7), (2, 6), (3, 5)], [], 1, 2),
        ([], [2, 5], 1, 2),
        ([], [2, 5, 6], 3, 4),
        ([], [2, 3, 4, 5, 6], 1, 4),
        ([], [1, 2, 3, 4, 5, 6], 1, 4),
    )


# 2,036 landing lookups with the corridor and the windowed follow-up scan
# (4,228 when every follow-up scanned the whole walk); consulting the
# landing verdict of every target of the walk took 40,834.
SINGLETON_CALL_CEILING = 4650


def test_optimize_recovered_program_stays_under_the_singleton_call_ceiling(monkeypatch):
    calls = []
    real = ro._singleton_landing

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ro, "_singleton_landing", counted)
    optimize(catalog.reconstruct(tf.LONG_TRACE).program())
    assert 0 < len(calls) <= SINGLETON_CALL_CEILING


# The criterion-09 program tries 1,048 Hadamard-layer fragments; before
# the sweep skipped fragments of phased permutations and the follow-up
# scan skipped fragments that miss the changed window or hold all of it,
# it tried 3,696 (1,583 without the skip, 2,340 without the window).
HYPERCUBE_CALL_CEILING = 1300


def test_optimize_recovered_program_stays_under_the_hypercube_call_ceiling(monkeypatch):
    calls = []
    real = ro._hypercube_hadamard

    def counted(span, fragment):
        calls.append(span)
        return real(span, fragment)

    monkeypatch.setattr(ro, "_hypercube_hadamard", counted)
    optimize(catalog.reconstruct(tf.LONG_TRACE).program())
    assert 0 < len(calls) <= HYPERCUBE_CALL_CEILING


@pytest.mark.parametrize("seed", sorted(pinned_outputs.PINNED_CIRCUITS))
def test_optimize_keeps_the_pinned_circuit_output(seed):
    walk = compile_circuit(random_circuit(random.Random(seed)))
    assert_pinned(walk, pinned_outputs.PINNED_CIRCUITS[seed])


@pytest.mark.parametrize("seed", sorted(pinned_outputs.PINNED_WALKS))
def test_optimize_keeps_the_pinned_walk_output(seed):
    assert_pinned(random_walk(random.Random(seed)), pinned_outputs.PINNED_WALKS[seed])


def assert_pinned(walk, expected):
    steps, records = expected
    final, report = optimize(walk)
    assert final.steps == steps_of(walk.n_vertices, *steps)
    assert tuple((record.rule, *record.span) for record in report.rewrites) == records
    assert report.verified


@st.composite
def small_circuits(draw):
    n_qubits = draw(st.integers(1, 2))
    qubit = st.integers(0, n_qubits - 1)
    kinds = ["X", "Y", "Z", "S", "T", "PHASE", "H", "HLAYER"]
    if n_qubits == 2:
        kinds.append("CNOT")
    gates = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "HLAYER":
            targets = draw(st.lists(qubit, min_size=1, max_size=n_qubits, unique=True))
            gates.append(Gate("HLAYER", targets=tuple(targets)))
        elif kind == "CNOT":
            control = draw(qubit)
            gates.append(Gate("CNOT", control=control, target=1 - control))
        elif kind == "PHASE":
            theta = angle(draw(st.integers(0, 7)), 4)
            gates.append(Gate("PHASE", target=draw(qubit), theta=theta))
        else:
            gates.append(Gate(kind, target=draw(qubit)))
    return Circuit(n_qubits, tuple(gates))


@settings(max_examples=25, deadline=None)
@given(circuit=small_circuits())
def test_optimize_compiled_circuit_matches_circuit_unitary(circuit):
    walk = compile_circuit(circuit)
    final, report = optimize(walk)
    assert report.verified
    assert phase_distance(total_unitary(final), circuit_unitary(circuit)) < 1e-9
    before = (walk.total_time(), walk.graph_count)
    after = (final.total_time(), final.graph_count)
    assert after <= before
