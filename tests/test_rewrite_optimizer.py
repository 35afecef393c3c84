"""Rewrite rules checked one by one, then the fixpoint driver end to end.

Each rule is checked through its verdict on the steps it reads (the
replacement steps, or the reason it does not apply) and through the site
generator that offers it to the driver. Expected outputs for the driver
tests were worked out by hand from the rule definitions (scan order is
leftmost position first, merge rules before singleton moves before layer
replacement) and are asserted exactly. The unitary oracle is total_unitary, compared through the
phase-invariant distance, the same check the driver itself performs.
"""

import cmath
import functools
import gc
import importlib
import itertools
import math
import pkgutil
import random
import re
import sys
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalog
import dynwalk
import dynwalk.gate_compiler as gate_compiler
import dynwalk.rewrite_optimizer as ro
import dynwalk.walk_engine as walk_engine
import length_ladder
import pinned_outputs
import trace_fixtures as tf
from references import circuit_unitary
from test_gate_compiler import random_gate
from dynwalk.gate_compiler import (
    Circuit,
    Gate,
    _matching,
    _pairs,
    _staircase,
    bit_value,
    compile_circuit,
    compile_hadamard_layer,
)
from dynwalk.graph_model import DynamicGraph, Graph, TimedGraph, _reduced, _small_ratio, period, spectrum
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
from dynwalk.walk_engine import prefix_unitaries, run_distance, total_unitary


def angle(num, den=1):
    return Fraction(num, den)


def loops(n, vertices, num, den=1):
    return TimedGraph(Graph.make(n, loops=vertices), angle(num, den))


def match(n, mask, num, den=1):
    return TimedGraph(_matching(n, _pairs(n, mask)), angle(num, den))


def walk_of(*steps):
    return DynamicGraph(steps[0].graph.n_vertices, steps)


def price(gain):
    """A price (saved, den, removed) as (time saved, graphs removed), the time a Fraction."""
    saved, den, removed = gain
    return Fraction(saved, den), removed


def fold_entries(facts, index):
    """The entries of _fold_prices over the run of phased permutations from the index."""
    return ro._fold_prices(facts, index, facts.run_end(index, "perm"))


def fold(n, run):
    """The fold of a run of steps, built from the entry _fold_prices composed for the whole run; None when it does not fold."""
    facts = ro.ScanFacts(DynamicGraph(n, tuple(run)))
    folds = {stop: ro._fold(n, perm, residues, den) for stop, _, perm, residues, den in fold_entries(facts, 0)}
    return folds.get(len(run))


def assert_same_program(a, b, tol=1e-9):
    assert phase_distance(total_unitary(a), total_unitary(b)) < tol


# -- SWAP_COMMUTING: the block swaps ----------------------------------------------


def test_swap_commuting_exchanges_steps():
    walk = walk_of(loops(2, [0], 1, 2), loops(2, [1], 1))
    assert ro.graphs_commute(walk.steps[0].graph, walk.steps[1].graph)
    sites = list(ro._block_swap_sites(ro.ScanFacts(walk)))
    assert sites == [(0, 2, (walk.steps[1], walk.steps[0]), "swap blocks 1+1")]
    assert_same_program(walk, walk.replaced(0, 2, sites[0][2]), tol=1e-12)


def test_swap_commuting_rejects_non_commuting():
    walk = walk_of(
        TimedGraph(Graph.make(3, edges=[(0, 1)]), angle(1, 2)),
        TimedGraph(Graph.make(3, edges=[(1, 2)]), angle(1, 2)),
    )
    assert not ro.graphs_commute(walk.steps[0].graph, walk.steps[1].graph)
    assert list(ro._block_swap_sites(ro.ScanFacts(walk))) == []


def test_swap_commuting_rejects_bad_index():
    # one step has no neighbor to swap with
    walk = walk_of(loops(2, [0], 1, 2))
    assert list(ro._block_swap_sites(ro.ScanFacts(walk))) == []


def defined_block_swap_sites(walk):
    """The block swaps by their definition, every pair of every block tested, in the order the row yields them."""
    commute = functools.cache(walk_engine.graphs_commute)
    steps, count = walk.steps, walk.graph_count
    for total in range(2, count + 1):
        for a in range(1, total):
            for i in range(count - total + 1):
                left, right = steps[i : i + a], steps[i + a : i + total]
                if all(commute(s.graph, t.graph) for s in left for t in right):
                    yield i, i + total, right + left, f"swap blocks {a}+{total - a}"


def test_block_swaps_read_from_the_table_are_the_defined_ones_in_order():
    """The prefix-sum table against the pairwise definition.

    The walks are 40 random walks, three of them cut to 0, 1 and 2 steps,
    20 compiled corpus circuits and the 20-gate length-ladder circuit.
    Some blocks of one split and total length are offered at several
    starts, so the order of the starts is read too.
    """
    walks = []
    for seed in range(40):
        walk = random_walk(random.Random(seed))
        walks.append(DynamicGraph(walk.n_vertices, walk.steps[:seed]) if seed < 3 else walk)
    walks += [compile_circuit(random_circuit(random.Random(seed))) for seed in range(20)]
    walks.append(compile_circuit(length_ladder.random_circuit(20, 1)))
    repeated = 0
    for walk in walks:
        sites = list(ro._block_swap_sites(ro.ScanFacts(walk)))
        assert sites == list(defined_block_swap_sites(walk))
        notes = Counter(note for *_, note in sites)
        repeated += any(times > 1 for times in notes.values())
    assert repeated > 0


# -- MERGE_IDENTICAL ----------------------------------------------------------------


def test_merge_identical_sums_durations():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 4))
    assert ro._merge_identical(*walk.steps) == (match(4, 1, 3, 4),)


def test_merge_identical_reduces_modulo_period():
    walk = walk_of(loops(2, [0], 3, 2), loops(2, [0], 3, 2))
    merged = ro._merge_identical(*walk.steps)
    assert merged == (loops(2, [0], 1),)
    assert_same_program(walk, walk.replaced(0, 2, merged), tol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_a_duration_under_two_pi_needs_no_period(seed):
    """A nonempty graph's period is None or an even multiple of pi, so _reduced looks it up only from 2pi on.

    What it returns is in lowest terms, as the durations it is given are.
    """
    rng = random.Random(seed)
    for _ in range(500):
        n = rng.randrange(1, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        graph = Graph.make(n, edges=edges, loops=[v for v in range(n) if rng.random() < 0.3])
        cycle = period(graph)
        if not graph.is_empty:
            assert cycle is None or (cycle > 0 and cycle.denominator == 1 and cycle.numerator % 2 == 0)
        duration = angle(rng.randrange(0, 24), rng.choice([1, 2, 3, 4, 8]))
        expected = duration if cycle is None else duration % cycle if cycle else 0
        num, den = _reduced(graph, duration.numerator, duration.denominator)
        assert Fraction(num, den) == expected and math.gcd(num, den) == 1


def test_merge_identical_drops_full_period():
    walk = walk_of(match(4, 1, 1), match(4, 1, 1))
    assert ro._merge_identical(*walk.steps) == ()


def test_merge_identical_rejects_different_graphs():
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 2))
    assert ro._merge_identical(*walk.steps) == "graphs differ"
    assert list(ro._merge_identical_sites(ro.ScanFacts(walk), 0)) == []


def test_merge_sites_need_a_step_after_the_index():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2), loops(4, [1], 1, 2))
    assert list(ro._merge_identical_sites(ro.ScanFacts(walk), 0)) == [(0, 2, (match(4, 1, 1),), "")]
    last = walk.graph_count - 1
    assert list(ro._merge_identical_sites(ro.ScanFacts(walk), last)) == []
    assert list(ro._merge_complementary_sites(ro.ScanFacts(walk), last)) == []


# -- COMBINE_PST: the fold of a phased-permutation run --------------------------------


def test_combine_pst_cancels_inverse_matchings():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 3, 2))
    assert fold(4, walk.steps) == ()


def test_combine_pst_equal_matchings_leave_loop_graph():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    combined = fold(4, walk.steps)
    assert combined == (TimedGraph(Graph(4, loops=frozenset(range(4))), angle(1)),)
    assert_same_program(walk, walk.replaced(0, 2, combined), tol=1e-12)


def test_combine_pst_fuses_masks():
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 2))
    combined = fold(4, walk.steps)
    assert combined == (
        match(4, 3, 1, 2),
        TimedGraph(Graph(4, loops=frozenset(range(4))), angle(1, 2)),
    )
    assert_same_program(walk, walk.replaced(0, 2, combined), tol=1e-12)


def test_combine_pst_collapses_two_gate_run():
    walk = walk_of(
        match(4, 2, 1, 2),
        TimedGraph(Graph(4, loops=frozenset(range(4))), angle(3, 2)),
        match(4, 1, 1, 2),
        TimedGraph(Graph(4, loops=frozenset(range(4))), angle(3, 2)),
    )
    combined = fold(4, walk.steps)
    assert combined == (
        match(4, 3, 1, 2),
        TimedGraph(Graph(4, loops=frozenset(range(4))), angle(3, 2)),
    )
    assert_same_program(walk, walk.replaced(0, 4, combined), tol=1e-12)
    assert list(ro._combine_pst_sites(ro.ScanFacts(walk), 0)) == [(0, 4, combined, "")]


def test_combine_pst_rejects_unclassifiable_step():
    # the second step is not a phased permutation, so only the first step's prefix is priced
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 4))
    assert [stop for stop, *_ in fold_entries(ro.ScanFacts(walk), 0)] == [1]
    assert fold(4, walk.steps) is None


def test_combine_pst_rejects_short_span():
    # the site generators offer runs of two or more steps only; the pair
    # folds into one all-loops step, which the fold row offers as it improves
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    assert list(ro._combine_pst_sites(ro.ScanFacts(walk), 1)) == []
    assert list(ro._fold_sites(ro.ScanFacts(walk), 1)) == []
    assert [site[:2] for site in ro._combine_pst_sites(ro.ScanFacts(walk), 0)] == [(0, 2)]
    assert [site[:2] for site in ro._fold_sites(ro.ScanFacts(walk), 0)] == [(0, 2)]


def test_combine_pst_folds_matching_into_partial_matching():
    # X on mask 2 swaps 4<->6 and 5<->7, and the partial matching swaps
    # them back, so only (0 2)(1 3) moves; rows 4-7 keep (-i)^2 = -1
    walk = walk_of(
        match(8, 2, 1, 2),
        TimedGraph(Graph.make(8, edges=[(4, 6), (5, 7)]), angle(1, 2)),
    )
    folded = fold(8, walk.steps)
    assert folded == (
        TimedGraph(Graph.make(8, edges=[(0, 2), (1, 3)]), angle(1, 2)),
        loops(8, [4, 5, 6, 7], 1),
    )
    assert_same_program(walk, walk.replaced(0, 2, folded), tol=1e-12)


def test_combine_pst_offers_every_walk_that_holds_a_run_the_same_site():
    # X_1, the all-loops phase and X_2 fold into X_3 and one all-loops step, one graph fewer
    walk = walk_of(match(4, 1, 1, 2), loops(4, range(4), 1, 2), match(4, 2, 1, 2), loops(4, [0], 1, 2))
    other = walk.replaced(3, 4, [loops(4, [1], 1, 4)])
    sites = list(ro._combine_pst_sites(ro.ScanFacts(walk), 0))
    assert sites == [(0, 3, (match(4, 3, 1, 2), loops(4, range(4), 1)), "")]
    assert sites[0][2] == fold(4, walk.steps[:3])
    assert list(ro._combine_pst_sites(ro.ScanFacts(other), 0)) == sites


def test_combine_pst_rejects_three_cycle():
    walk = walk_of(
        TimedGraph(Graph.make(4, edges=[(0, 1)]), angle(1, 2)),
        TimedGraph(Graph.make(4, edges=[(1, 2)]), angle(1, 2)),
    )
    # the two steps compose to a three-cycle, so only the first step's prefix is priced
    assert [stop for stop, *_ in fold_entries(ro.ScanFacts(walk), 0)] == [1]
    assert fold(4, walk.steps) is None


def random_phased_permutation_run(rng, most):
    """2 to most steps: loops at multiples of pi/4 and partial matchings at multiples of pi/2."""
    n = rng.choice([3, 4, 5, 8])
    steps = []
    for _ in range(rng.randrange(2, most + 1)):
        vertices = rng.sample(range(n), rng.randint(1, n))
        if rng.random() < 0.5 or len(vertices) < 2:
            steps.append(TimedGraph(Graph.make(n, loops=vertices), angle(rng.randint(1, 7), 4)))
        else:
            pairs = [vertices[i : i + 2] for i in range(0, len(vertices) - 1, 2)]
            steps.append(TimedGraph(Graph.make(n, edges=pairs), angle(rng.randint(1, 3), 2)))
    return DynamicGraph(n, tuple(steps))


@pytest.mark.parametrize("seed", range(20))
def test_combine_pst_fold_keeps_the_exact_unitary(seed):
    # the steps are phased permutations; the fold applies exactly when
    # their product permutes by an involution and then keeps the unitary
    # itself, global phase included
    rng = random.Random(seed)
    walk = random_phased_permutation_run(rng, 4)
    n, steps = walk.n_vertices, walk.steps
    product = total_unitary(walk)
    perm = np.abs(product).argmax(axis=0)
    folded = fold(n, walk.steps)
    if not np.array_equal(perm[perm], np.arange(n)):
        assert folded is None
        return
    assert np.abs(total_unitary(walk.replaced(0, len(steps), folded)) - product).max() < 1e-9


def random_bit_flip_walk(rng):
    """2-8 steps on 4 or 8 vertices: XOR matchings at pi/2 and 3pi/2 and all-loops phases, with one-loop steps ending runs."""
    n = rng.choice([4, 8])
    steps = []
    for _ in range(rng.randrange(2, 9)):
        kind = rng.random()
        if kind < 0.45:
            steps.append(match(n, rng.randrange(1, n), rng.choice([1, 3]), 2))
        elif kind < 0.85:
            steps.append(loops(n, range(n), rng.randint(1, 7), 4))
        else:
            steps.append(loops(n, [rng.randrange(n)], 1, 2))
    return DynamicGraph(n, tuple(steps))


def bit_flip_walks(seed):
    """A random bit-flip walk and a normalized compiled random circuit."""
    rng = random.Random(seed)
    return random_bit_flip_walk(rng), ro._normalize(compile_circuit(random_circuit(rng)))[0]


def assert_same_unitary(first, second, n):
    """The two runs have the same product, global phase included."""
    assert np.abs(total_unitary(DynamicGraph(n, first)) - total_unitary(DynamicGraph(n, second))).max() < 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_fold_prices_are_the_gains_of_the_folds(seed):
    """Each prefix that permutes by an involution has one entry, priced at _gain of the fold built from it.

    The fold row offers the improving prefixes of two steps or more, and
    the bit-flip row, on random bit-flip walks and compiled circuits, the
    fold of the whole flip run when _gain says it improves, and nothing
    otherwise.
    """
    rng = random.Random(seed)
    walk = random_phased_permutation_run(rng, 7)
    n, facts = walk.n_vertices, ro.ScanFacts(walk)
    for index in range(walk.graph_count):
        entries = list(fold_entries(facts, index))
        folds = {stop: ro._fold(n, perm, residues, den) for stop, _, perm, residues, den in entries}
        involutions = set()
        for stop in range(index + 1, walk.graph_count + 1):
            perm = np.abs(total_unitary(DynamicGraph(n, walk.steps[index:stop]))).argmax(axis=0)
            if np.array_equal(perm[perm], np.arange(n)):
                involutions.add(stop)
        assert set(folds) == involutions and len(entries) == len(folds)
        for stop, gain, *_ in entries:
            assert price(gain) == price(ro._gain(facts, index, stop, folds[stop]))
            assert_same_unitary(walk.steps[index:stop], folds[stop], n)
        improving = [stop for stop, gain, *_ in entries if stop - index >= 2 and price(gain) > (0, 0)]
        assert list(ro._fold_sites(facts, index)) == [(index, stop, folds[stop], "fold") for stop in improving]
    for walk in bit_flip_walks(seed):
        n, facts = walk.n_vertices, ro.ScanFacts(walk)
        for index in range(walk.graph_count):
            stop = facts.run_end(index, "flip")
            sites = list(ro._combine_pst_sites(facts, index))
            if stop - index < 2:
                assert sites == []
                continue
            whole = fold(n, walk.steps[index:stop])
            assert_same_unitary(walk.steps[index:stop], whole, n)
            improves = price(ro._gain(facts, index, stop, whole)) > (0, 0)
            assert sites == ([(index, stop, whole, "")] if improves else [])


def test_fold_sites_are_both_offered_and_passed_over():
    """Both fold rows offer some folds and pass over others, the bit-flip row on bit-flip walks and compiled circuits."""
    offered = passed = flips_offered = flips_passed = 0
    for seed in range(20):
        rng = random.Random(seed)
        facts = ro.ScanFacts(random_phased_permutation_run(rng, 7))
        for index in range(facts.walk.graph_count):
            sites = len(list(ro._fold_sites(facts, index)))
            offered += sites
            passed += sum(stop - index >= 2 for stop, *_ in fold_entries(facts, index)) - sites
        for walk in bit_flip_walks(seed):
            facts = ro.ScanFacts(walk)
            for index in range(walk.graph_count):
                sites = len(list(ro._combine_pst_sites(facts, index)))
                flips_offered += sites
                flips_passed += facts.run_end(index, "flip") - index >= 2 and not sites
    assert offered and passed and flips_offered and flips_passed, (offered, passed, flips_offered, flips_passed)


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
    assert list(ro._merge_complementary_sites(ro.ScanFacts(walk), 0)) == [(0, 2, merged, "")]


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
    """A normalized walk holds no empty step; given one, the verdict needs no guard of its own.

    One empty step fails on the norms (0 against at least 1), and two merge
    into holds whose product is the identity, as the walk's is.
    """
    walk = walk_of(loops(2, [0], 1, 2), TimedGraph(Graph.make(2), angle(1, 2)))
    assert ro._merge_complementary(*walk.steps) == "spectral norms differ"
    assert list(ro._merge_complementary_sites(ro.ScanFacts(walk), 0)) == []
    holds = walk_of(TimedGraph(Graph.make(2), angle(1, 2)), TimedGraph(Graph.make(2), angle(3, 4)))
    merged = ro._merge_complementary(*holds.steps)
    assert all(step.graph.is_empty for step in merged) and len(merged) == 2
    assert run_distance(2, holds.steps, merged) < 1e-12


# -- MOVE_SINGLETON: the two singleton verdicts and the moves they build --------------


def singleton_move(walk, source, vertex, target):
    """The walk after the move of the vertex's phase from source to target, or None."""
    for _, moved, landing, left, landed in ro._singleton_moves(ro.ScanFacts(walk), source):
        if (moved, landing) == (vertex, target):
            start, stop, replacement = ro._splice(walk.steps, source, target, left, landed)
            return walk.replaced(start, stop, replacement)
    return None


def test_move_singleton_into_loop_step_cancels():
    walk = walk_of(loops(2, [0], 1, 2), loops(2, [0, 1], 3, 2))
    assert ro._singleton_source(walk.steps[0], 0) == ((1, 2), ())
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
    assert not isinstance(ro._singleton_landing(walk.steps[2], 0, (1, 2)), str)
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
    landed = ro._singleton_landing(walk.steps[1], 0, (1, 4))
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


def hadamard_sites_of(walk, start, stop):
    """The Hadamard-layer row's sites from the first step of steps[start:stop], read from the facts of the span alone."""
    span = DynamicGraph(walk.n_vertices, walk.steps[start:stop])
    return list(ro._hypercube_sites(ro.ScanFacts(span), 0))


def dense_checks(monkeypatch):
    """The gate of each circuit_distance call the optimizer makes from here on."""
    calls = []
    original = ro.circuit_distance

    def counted(circuit, product):
        calls.append(circuit)
        return original(circuit, product)

    monkeypatch.setattr(ro, "circuit_distance", counted)
    return calls


def single_qubit_h_fixture():
    return walk_of(loops(2, [1], 3, 2), match(2, 1, 1, 4), loops(2, [1], 3, 2))


def test_hypercube_hadamard_replaces_single_qubit_fragment():
    walk = single_qubit_h_fixture()
    assert walk.total_time() == angle(13, 4)
    [(start, stop, steps, _)] = hadamard_sites_of(walk, 0, 3)
    assert (start, stop) == (0, 3)
    replaced = walk.replaced(0, 3, steps)
    layer = compile_hadamard_layer([0], 1)
    assert replaced.steps == layer.steps
    assert replaced.total_time() == angle(5, 4)
    assert_same_program(walk, replaced)


def fused_two_qubit_fixture():
    """Two single-qubit Hadamard fixtures in a row, on bits 2 and 1 of 4 vertices."""
    return walk_of(
        loops(4, [2, 3], 3, 2),
        match(4, 2, 1, 4),
        loops(4, [2, 3], 3, 2),
        loops(4, [1, 3], 3, 2),
        match(4, 1, 1, 4),
        loops(4, [1, 3], 3, 2),
    )


def test_hypercube_hadamard_fuses_two_sequential_fixtures():
    walk = fused_two_qubit_fixture()
    assert walk.total_time() == angle(13, 2)
    layer = compile_hadamard_layer([0, 1], 2)
    replaced = walk.replaced(0, 6, layer.steps)
    assert replaced.graph_count == 5
    assert replaced.total_time() == angle(5, 2)
    assert_same_program(walk, replaced)
    assert list(ro._hypercube_sites(ro.ScanFacts(walk), 0)) == [(0, 6, layer.steps, "")]


def test_hypercube_hadamard_rejects_non_hadamard(monkeypatch):
    # X costs less than the layer, which is checked before the dense comparison
    calls = dense_checks(monkeypatch)
    walk = walk_of(match(2, 1, 1, 2))
    assert hadamard_sites_of(walk, 0, 1) == []
    assert calls == []


def test_hypercube_hadamard_rejects_when_not_cheaper(monkeypatch):
    calls = dense_checks(monkeypatch)
    for targets, n_qubits in (([0], 1), ([0, 1], 2), ([0, 2], 3)):
        layer = compile_hadamard_layer(targets, n_qubits)
        assert hadamard_sites_of(layer, 0, layer.graph_count) == []
    assert calls == []


def test_hypercube_hadamard_reads_a_non_contiguous_subset():
    first = compile_circuit(Circuit(3, (Gate("H", target=0),)))
    second = compile_circuit(Circuit(3, (Gate("H", target=2),)))
    walk = DynamicGraph(8, first.steps + second.steps)
    [(start, stop, steps, _)] = hadamard_sites_of(walk, 0, walk.graph_count)
    assert (start, stop) == (0, walk.graph_count)
    replaced = walk.replaced(0, walk.graph_count, steps)
    assert replaced.steps == compile_hadamard_layer([0, 2], 3).steps
    assert_same_program(walk, replaced)


def test_hypercube_hadamard_rejects_right_support_with_wrong_phases(monkeypatch):
    # Z after the layer keeps column 0's support but flips half its signs
    calls = dense_checks(monkeypatch)
    walk = DynamicGraph(
        8, compile_hadamard_layer([0, 2], 3).steps + compile_circuit(Circuit(3, (Gate("Z", target=2),))).steps
    )
    assert hadamard_sites_of(walk, 0, walk.graph_count) == []
    assert calls == []


def test_hypercube_hadamard_rejects_an_even_spread_short_of_the_mask(monkeypatch):
    # H, CNOT and X send vertex 0 to (|1> + |2>) / sqrt 2: one phase, but 2 of the 4 vertices inside mask 3
    calls = dense_checks(monkeypatch)
    circuit = Circuit(2, (Gate("H", target=0), Gate("CNOT", control=0, target=1), Gate("X", target=1)))
    walk = compile_circuit(circuit)
    assert (walk.total_time(), walk.graph_count) > (compile_hadamard_layer([0, 1], 2).total_time(), 5)
    column = circuit_unitary(circuit)[:, 0]
    assert np.flatnonzero(np.abs(column) > 0.5).tolist() == [1, 2] and abs(column[1] - column[2]) < 1e-12
    assert hadamard_sites_of(walk, 0, walk.graph_count) == []
    assert calls == []


def z_before_layer(qubit):
    """Z on the qubit, then Hadamards on qubits 0 and 2 of 3."""
    steps = compile_circuit(Circuit(3, (Gate("Z", target=qubit),))).steps
    return DynamicGraph(8, steps + compile_hadamard_layer([0, 2], 3).steps)


def test_hypercube_hadamard_rejects_a_fragment_only_the_full_check_sees(monkeypatch):
    """Z before the layer leaves vertex 0 alone, so column 0 still matches.

    A Z on a qubit of the mask, 0 or 2, flips other columns of the
    fragment, so each reaches the full check once and is refused there.
    """
    calls = dense_checks(monkeypatch)
    for qubit in (0, 2):
        walk = z_before_layer(qubit)
        assert hadamard_sites_of(walk, 0, walk.graph_count) == []
        assert calls == [Circuit(3, (Gate("HLAYER", targets=(0, 2)),))]
        calls.clear()
    layer = ro._hadamard_layer(bit_value(0, 3) | bit_value(2, 3), 3)
    assert not any(isinstance(part, np.ndarray) for part in layer)


def test_the_full_hadamard_check_reads_the_fragment_off_its_prefix_products(monkeypatch):
    """Every full check against the dense fragment W_s W_i^dag, which the row no longer forms.

    The row passes (W_i, a copy of W_s), and the distance must equal the
    one read off the dense fragment to 1e-12, with the same verdict. The
    facts' prefix products, which later walks share, must come out of every
    sweep byte for byte as they went in.
    """
    checks = []
    real = ro.circuit_distance

    def compared(gate, blocks):
        [(earlier, later)] = blocks
        dense = real(gate, [(np.eye(len(later)), later @ earlier.conj().T)])
        distance = real(gate, blocks)
        assert abs(distance - dense) < 1e-12
        checks.append((distance < ro.VERIFY_TOLERANCE, dense < ro.VERIFY_TOLERANCE))
        return distance

    monkeypatch.setattr(ro, "circuit_distance", compared)
    walks = [z_before_layer(0), z_before_layer(2)]
    walks += [compile_circuit(random_circuit(random.Random(seed))) for seed in range(20)]
    for walk in walks:
        facts = ro.ScanFacts(walk)
        before = [product.tobytes() for product in facts.products()]
        for index in range(walk.graph_count):
            list(ro._hypercube_sites(facts, index))
        assert [product.tobytes() for product in facts.products()] == before
    assert all(verdict == dense for verdict, dense in checks)
    assert {verdict for verdict, _ in checks} == {True, False}


def test_the_trace_refuses_only_fragments_the_full_check_refuses(monkeypatch):
    """A Hadamard layer is traceless, so below SPLIT_VERTICES the row refuses a fragment whose trace is too large for one.

    Every fragment [i, s) the sweep from every position judges past the
    floor, with a nonzero column-0 mask, is judged here both ways: its
    trace tr(W_s W_i^dag) = tr(W_i^dag W_s) and the full check against the
    layer on its mask. One that passes the full check has a trace of
    rounding size, and one whose trace reaches the row's bound fails the
    full check, and both occur. The row itself must send no fragment whose
    trace reaches the bound to the full check, and must still send some
    that pass it.
    """
    checks = []
    real = ro.circuit_distance

    def checked(gate, blocks):
        [(earlier, later)] = blocks
        trace, distance = abs(np.vdot(earlier, later)) / len(later), real(gate, blocks)
        checks.append((trace, distance < ro.VERIFY_TOLERANCE))
        return distance

    monkeypatch.setattr(ro, "circuit_distance", checked)
    bound = math.sqrt(2 * ro.VERIFY_TOLERANCE)
    rng = random.Random(5)
    walks = [z_before_layer(0), z_before_layer(2), single_qubit_h_fixture(), fused_two_qubit_fixture()]
    walks += [compile_circuit(random_circuit(random.Random(seed))) for seed in range(20)]
    walks += [DynamicGraph(8, tuple(random_singleton_step(rng, 8) for _ in range(8))) for _ in range(4)]
    branches = Counter()
    for walk in walks:
        n, count = walk.n_vertices, walk.graph_count
        facts = ro.ScanFacts(walk)
        for index in range(count):
            list(ro._hypercube_sites(facts, index))
            for stop in range(count, facts.run_end(index, "perm"), -1):
                if facts.costs_at_most(index, stop, ro.LAYER_FLOOR):
                    break
                earlier, later = facts.products()[index], facts.products()[stop]
                support = np.flatnonzero(np.abs(later @ earlier[0].conj()) ** 2 > 1.0 / (2 * n))
                mask = int(np.bitwise_or.reduce(support))
                if not mask:
                    continue
                _, _, gate = facts.memo.hadamard_layer(mask, n.bit_length() - 1)
                trace = abs(np.vdot(earlier, later)) / n
                layer = real(gate, [(earlier, later.copy())]) < ro.VERIFY_TOLERANCE
                assert not layer or trace <= 1e-12, (walk, index, stop)
                assert trace < bound or not layer, (walk, index, stop)
                branches.update(refused=trace >= bound, layer=layer)
    assert branches["refused"] and branches["layer"]
    assert all(trace < bound for trace, _ in checks)
    assert {layer for _, layer in checks} == {True, False}


def test_hypercube_hadamard_rejects_bad_span_and_size():
    walk = single_qubit_h_fixture()
    assert hadamard_sites_of(walk, 2, 2) == []
    odd = walk_of(loops(3, [0], 1, 2))
    assert list(ro._hypercube_sites(ro.ScanFacts(odd), 0)) == []


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


def check_singleton_rows(walk):
    """The moves of every source against the brute-force enumeration, and both rows against the moves' prices.

    Every move is enumerated, each with the price _gain gives its site;
    the last-resort row, which prices only the moves that may improve,
    yields exactly the strictly improving ones, and the enabling row the
    neutral ones. Returns the moves priced in full and by the pruned
    enumeration, and the improving moves.
    """
    note = "vertex {vertex}: step {source} -> step {target}"
    facts = ro.ScanFacts(walk)
    improving, neutral, every, pruned = [], [], 0, 0
    for source in range(walk.graph_count):
        sites = []
        for gain, vertex, target, left, landed in ro._singleton_moves(facts, source):
            site = ro._splice(walk.steps, source, target, left, landed)
            assert price(gain) == price(ro._gain(facts, *site))
            sites.append((*site, note.format(vertex=vertex, source=source, target=target)))
            if price(gain) > (0, 0):
                improving.append(sites[-1])
            if price(gain) == (0, 0):
                neutral.append((*site, f"enabling move of vertex {vertex}"))
        assert sites == brute_force_singleton_moves(walk, source, note)
        every += len(sites)
        pruned += len(list(ro._singleton_moves(facts, source, improving=True)))
    assert [site for source in range(walk.graph_count) for site in ro._singleton_sites(facts, source)] == improving
    assert list(ro._enabling_singleton_sites(facts)) == neutral
    return every, pruned, len(improving)


@pytest.mark.parametrize("seed", range(30))
def test_singleton_moves_match_the_brute_force_enumeration(seed):
    """Every move is enumerated, each with the price _gain gives its site, and the rows filter on that price."""
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    walk = DynamicGraph(n, tuple(random_singleton_step(rng, n) for _ in range(rng.randrange(2, 9))))
    check_singleton_rows(walk)


def test_the_pruned_last_resort_row_yields_every_improving_move():
    """On every walk a last-resort scan reads, the pruned row yields what the full enumeration finds improving.

    The walks are those ``optimize`` hands its last-resort scans on random
    walks, on compiled corpus circuits and on a compiled 40-gate circuit;
    they are normalized, as the pruning's argument needs. The pruning skips
    moves on them, and some moves improve.
    """
    walks = []
    real = ro._scan

    def recorded(facts, rows, skip, *args):
        if rows == ro._LAST_RESORT:
            walks.append(facts.walk)
        return real(facts, rows, skip, *args)

    inputs = [random_walk(random.Random(seed)) for seed in range(20)]
    inputs += [compile_circuit(random_circuit(random.Random(seed))) for seed in range(12)]
    inputs.append(compile_circuit(length_ladder.random_circuit(40, 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ro, "_scan", recorded)
        for walk in inputs:
            optimize(walk)
    counts = [check_singleton_rows(walk) for walk in walks]
    every, pruned, improving = map(sum, zip(*counts))
    assert len(walks) >= len(inputs) and pruned < every and improving > 0, (len(walks), every, pruned, improving)


def test_singleton_rows_both_take_and_pass_over_moves():
    prices = set()
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randrange(2, 9)
        walk = DynamicGraph(n, tuple(random_singleton_step(rng, n) for _ in range(rng.randrange(2, 9))))
        for source in range(walk.graph_count):
            for gain, *_ in ro._singleton_moves(ro.ScanFacts(walk), source):
                prices.add((price(gain) > (0, 0)) - (price(gain) < (0, 0)))
    assert prices == {-1, 0, 1}


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
    assert list(ro._singleton_moves(ro.ScanFacts(walk), 0)) == []
    assert targets == [1]


@pytest.mark.parametrize("others", [(), (2,), (0, 2, 3)])
def test_loops_only_landing_is_the_staircase_of_its_two_phases(others):
    """Every target duration and moved phase in quarter steps, against the staircase of its phases."""
    for t, tau in itertools.product(range(8), repeat=2):
        target = loops(4, (1, *others), t, 4)
        landed = ro._singleton_landing(target, 1, (tau, 4))
        turns = {w: t for w in others}
        turns[1] = (t + tau) % 8
        assert landed == _staircase(turns, 4, 4), (t, tau)


@pytest.mark.parametrize("seed", range(40))
def test_loops_only_landing_is_the_schedule_of_its_phases_at_any_width(seed):
    """Random loops-only targets on 2-16 vertices, durations below 4pi, phases in eighths; phases reduce mod 2pi."""
    rng = random.Random(seed)
    n = rng.randrange(2, 17)
    for _ in range(20):
        vertex = rng.randrange(n)
        others = [v for v in range(n) if v != vertex and rng.random() < 0.5]
        den = rng.choice((1, 2, 3, 4, 8, 16))
        target = TimedGraph(Graph.make(n, loops=[vertex, *others]), angle(rng.randrange(4 * den), den))
        tau = angle(rng.randrange(16), 8)
        landed = ro._singleton_landing(target, vertex, (tau.numerator, tau.denominator))
        # both phases in turns of pi/(8 den), reduced mod 2pi
        t, moved = int(target.duration * 8 * den), int(tau * 8 * den)
        turns = {w: t % (16 * den) for w in others}
        turns[vertex] = (t + moved) % (16 * den)
        assert landed == _staircase(turns, 8 * den, n)


@pytest.mark.parametrize("duration", [angle(2), angle(9, 4), angle(15, 4), angle(6)])
def test_a_loops_only_landing_on_a_long_target_lands(duration):
    """A target of 2pi or more still takes the phase as the staircase of its phases mod 2pi, and keeps the unitary."""
    target = loops(3, [0, 2], duration.numerator, duration.denominator)
    landed = ro._singleton_landing(target, 0, (3, 8))
    eighths = int(duration * 8)
    assert landed == _staircase({0: (eighths + 3) % 16, 2: eighths % 16}, 8, 3)
    moved = walk_of(loops(3, [0], 3, 8), target)
    assert phase_distance(total_unitary(moved), total_unitary(DynamicGraph(3, landed))) < 1e-12


def random_loops_step(rng, n):
    looped = [v for v in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
    den = rng.randrange(1, 129)
    return TimedGraph(Graph.make(n, loops=looped), angle(rng.randrange(1, 4 * den), den))


def reference_staircase(run, n):
    """The staircase of a loops-only run: per-vertex phase sums over the run's common denominator, then the staircase."""
    den = math.lcm(*(step.pi_den for step in run))
    totals = {}
    for step in run:
        for v in step.graph.loops:
            totals[v] = (totals.get(v, 0) + step.pi_num * (den // step.pi_den)) % (2 * den)
    width = sum(1 for total in totals.values() if total)
    return _staircase(totals, den, n), f"staircase over {width} vertices"


def staircase_cases(seed, memo=None):
    """(sites offered, reference staircase site if it strictly improves) per start of a loops-only walk."""
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    walk = DynamicGraph(n, tuple(random_loops_step(rng, n) for _ in range(rng.randrange(2, 7))))
    facts = ro.ScanFacts(walk, memo)
    count = walk.graph_count
    for start in range(count - 1):
        stair, note = reference_staircase(walk.steps[start:], n)
        improves = price(ro._gain(facts, start, count, stair)) > (0, 0)
        yield list(ro._staircase_sites(facts, start)), [(start, count, stair, note)] if improves else []
    assert list(ro._staircase_sites(facts, count - 1)) == []


@pytest.mark.parametrize("seed", range(20))
def test_staircase_sites_match_the_phase_sums(seed):
    """A run's staircase is offered exactly when it strictly improves on the run."""
    for offered, expected in staircase_cases(seed):
        assert offered == expected


def test_staircase_sites_classify_no_step():
    """The staircase comes from the run's phase totals, not from each step's phased-permutation form."""

    def unclassifiable(step):
        raise AssertionError(f"classified {step}")

    memo = ro._Memo()
    memo.permutation = unclassifiable
    offered = 0
    for seed in range(20):
        for sites, expected in staircase_cases(seed, memo):
            assert sites == expected
            offered += len(sites)
    assert offered


def test_staircase_sites_are_both_offered_and_passed_over():
    offered = [bool(sites) for seed in range(20) for sites, _ in staircase_cases(seed)]
    assert any(offered) and not all(offered)


@pytest.mark.parametrize("seed", range(10))
def test_cached_permutation_rebuilds_loops_only_steps(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 9)
    for step in [random_loops_step(rng, n) for _ in range(5)] + [loops(n, [0], 2)]:
        flip = ro._phased_permutation(step)
        rebuilt = np.zeros((n, n), dtype=complex)
        rebuilt[list(flip.perm), range(n)] = [np.exp(-1j * np.pi * turns / flip.den) for turns in flip.turns]
        assert np.abs(rebuilt - total_unitary(DynamicGraph(n, (step,)))).max() < 1e-12
        assert flip.bitflip == (len(set(flip.turns)) == 1)


def dense_phased_permutation(step):
    """The classifier as it read the dense step unitary, kept as the reference for every graph."""
    n = step.graph.n_vertices
    u = total_unitary(DynamicGraph(n, (step,)))
    rows = np.abs(u).argmax(axis=0)
    if len(set(rows.tolist())) != n:
        return None
    entries = u[rows, np.arange(n)].tolist()
    turns_of = {value: ro._phase_angle(value) for value in set(entries)}
    if None in turns_of.values():
        return None
    angle_of = {value: angle(*turns) for value, turns in turns_of.items()}
    angles = [angle_of[value] for value in entries]
    expected = np.zeros_like(u)
    expected[rows, np.arange(n)] = np.exp(-1j * np.pi * np.array([float(a) for a in angles]))
    if np.abs(u - expected).max() > ro.VERIFY_TOLERANCE:
        return None
    bitflip = len(set(angle_of.values())) == 1 and np.array_equal(rows, np.arange(n) ^ rows[0])
    den = math.lcm(*(a.denominator for a in angle_of.values()))
    turns = tuple(a.numerator * (den // a.denominator) for a in angles)
    return ro.PhasedPermutation(tuple(rows.tolist()), turns, den, bitflip)


def test_phase_angle_refuses_targets_off_the_unit_circle():
    """A modulus 1 +- 2e-9 misses exp(-i theta) by more than VERIFY_TOLERANCE at every exact angle, and so does an infinite one."""
    for den in (1, 2, 3, 8, 64):
        for num in range(2 * den):
            target = cmath.exp(-1j * math.pi * num / den)
            common = math.gcd(num, den)
            assert ro._phase_angle(target) == (num // common, den // common)
            for scale in (1 - 2e-9, 1 + 2e-9):
                assert ro._phase_angle(scale * target) is None
    for target in (complex("inf"), complex("-inf"), complex("infj"), complex("inf+infj")):
        assert ro._phase_angle(target) is None


def random_small_step(rng):
    """2-8 vertices, random edges and loops, a duration in eighths of pi up to 4pi."""
    n = rng.randrange(2, 9)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3] or [(0, 1)]
    looped = [v for v in range(n) if rng.random() < 0.3]
    return TimedGraph(Graph.make(n, edges=pairs, loops=looped), angle(rng.randrange(1, 33), 8))


def wide_permutation_steps():
    """Matchings and cubes on 128 and 256 vertices at multiples of pi/2, some with loops on idle vertices.

    A matching just off pi/2 has clean unit entries; only the entries off
    them tell it from a phased permutation.
    """
    for n in (128, 256):
        yield TimedGraph(_matching(n, _pairs(n, 3)), angle(100001, 200000))
        for quarter in range(1, 9):
            duration = angle(quarter, 2)
            yield TimedGraph(_matching(n, _pairs(n, 1)), duration)
            yield TimedGraph(_matching(n, _pairs(n, n - 1)), duration)
            for masks in ((1, 2), (1, 4, 16), (2, 8, 32, 64)):
                edges = [(v, v ^ m) for m in masks for v in range(n) if v < v ^ m]
                yield TimedGraph(Graph.make(n, edges=edges), duration)
            yield TimedGraph(Graph.make(n, edges=[(0, 1), (4, 5)], loops=[2, 7, 9]), duration)


def test_phased_permutation_reads_as_the_dense_step_does():
    """The classifier over the cached block exponentials gives the dense reader's verdict on every step."""
    rng = random.Random(0)
    small = [random_small_step(rng) for _ in range(600)]
    wide = list(wide_permutation_steps())
    steps = [entry.step for entry in catalog.build_catalog()] + small + wide
    verdicts = [ro._phased_permutation(step) for step in steps]
    assert verdicts == [dense_phased_permutation(step) for step in steps]
    for some in (verdicts[-len(wide) - len(small) : -len(wide)], verdicts[-len(wide) :]):
        assert None in some
        assert any(verdict is not None and verdict.bitflip for verdict in some)
        assert any(verdict is not None and not verdict.bitflip for verdict in some)


def matching_steps():
    """Steps in which no vertex lies on two edges, at k/d pi for k = 1..16 and d = 1, 2, 3, 8.

    For each _pairs(2**q, mask) matching, q = 1..6: the matching, a seeded
    row subset of it, that subset with loops on unmatched vertices, the
    same with both ends looped on its last edge and on a seeded share of
    the others, the same with one end of its last edge looped instead of
    both, and the loops on unmatched vertices alone; and the empty graph
    for each q.
    """
    rng, pick = random.Random(41), random.Random(42)
    for q in range(1, 7):
        n = 2**q
        graphs = [Graph.make(n)]
        for mask in range(1, n):
            pairs = _pairs(n, mask)
            subset = pairs[[row for row in range(len(pairs)) if rng.random() < 0.5] or [0]]
            idle = sorted(set(range(n)) - set(subset.ravel().tolist()))
            looped = [v for v in idle if rng.random() < 0.5] or idle
            rows = subset.tolist()
            doubled = [v for row in rows[:-1] if pick.random() < 0.5 for v in row]
            edges = _matching(n, subset).edges
            graphs += [
                _matching(n, pairs),
                _matching(n, subset),
                Graph.make(n, edges=edges, loops=looped),
                Graph.make(n, edges=edges, loops=looped + doubled + rows[-1]),
                Graph.make(n, edges=edges, loops=looped + doubled + [rows[-1][pick.randrange(2)]]),
                Graph.make(n, loops=looped),
            ]
        for graph in graphs:
            for den in (1, 2, 3, 8):
                for num in range(1, 17):
                    yield TimedGraph(graph, angle(num, den))


def looped_ends(graph):
    """How many ends of each edge of the graph carry a loop."""
    return {len(graph.loops.intersection(edge)) for edge in graph.edges}


def test_matching_forms_from_edge_lists_equal_the_float_reader(monkeypatch):
    """The closed form gives the block-exponential reader's form, tuple for tuple, on every step of matching_steps."""
    steps = list(matching_steps())
    with monkeypatch.context() as patched:
        patched.setattr(ro, "_cached_factors", None)  # the closed form never calls it
        exact = [ro._phased_permutation(step) for step in steps]
    assert exact == [ro._read_form(step) for step in steps]
    assert None in exact
    assert any(form is not None and form.bitflip for form in exact)
    assert any(form is not None and not form.bitflip and form.den == 2 for form in exact)
    assert any(form is not None and not form.bitflip and form.den == 1 for form in exact)
    shapes = [looped_ends(step.graph) for step in steps]
    assert all(form is None for form, shape in zip(exact, shapes) if 1 in shape)
    assert all(form is not None for form, shape in zip(exact, shapes) if not shape)  # loops-only and empty
    doubled = [(step.pi_den, form) for step, form, shape in zip(steps, exact, shapes) if shape in ({2}, {0, 2})]
    assert any(den == 1 and form is not None for den, form in doubled)
    assert all(form is None for den, form in doubled if den == 2)
    assert any(not shape for shape in shapes) and any(1 in shape for shape in shapes) and doubled


def test_a_matching_form_costs_no_spectrum(monkeypatch):
    """A matching with loops anywhere classifies with the factor cache raising; a vertex on two edges reaches it."""

    def refused(step):
        raise AssertionError("the classifier read the factor cache")

    monkeypatch.setattr(ro, "_cached_factors", refused)
    n = 2**10
    cnot = _matching(n, _pairs(n, bit_value(1, 10), bit_value(0, 10)))
    idle = sorted(set(range(n)) - cnot._endpoints)
    form = ro._phased_permutation(TimedGraph(Graph._of(n, cnot.edges, frozenset(idle)), angle(1, 2)))
    assert form is not None and form.den == 2 and not form.bitflip
    assert all(form.perm[i] == j and form.perm[j] == i for i, j in cnot.edges)
    assert [form.turns[v] for v in idle] == [1] * len(idle)
    assert ro._phased_permutation(TimedGraph(Graph.make(4, edges=[(0, 1)], loops=[1]), angle(1, 2))) is None
    both = ro._phased_permutation(TimedGraph(Graph.make(4, edges=[(0, 1)], loops=[0, 1, 3]), angle(1)))
    assert both == ro.PhasedPermutation((1, 0, 2, 3), (2, 2, 0, 1), 2, False)
    for graph in (
        Graph.make(3, edges=[(0, 1), (1, 2)]),
        Graph.make(4, edges=[(0, 1), (0, 2)]),
    ):
        with pytest.raises(AssertionError, match="factor cache"):
            ro._phased_permutation(TimedGraph(graph, angle(1, 2)))


def test_transfer_steps_with_a_vertex_on_two_edges_are_read_from_block_exponentials(monkeypatch):
    """P3 at pi, the 4-cycle at pi and the 3-cube at 3pi/2 are phased permutations only the float reader reads."""
    read = []

    def recorded(step):
        read.append(step)
        return float_reader(step)

    float_reader = ro._read_form
    monkeypatch.setattr(ro, "_read_form", recorded)
    square, cube = ([(v, v ^ bit) for v in range(2**k) for bit in (1, 2, 4)[:k] if v < v ^ bit] for k in (2, 3))
    form = ro.PhasedPermutation
    cases = [
        (Graph.make(3, edges=[(0, 1), (1, 2)]), angle(1), form((2, 1, 0), (1, 1, 1), 1, False)),
        (Graph.make(4, edges=square), angle(1), form((3, 2, 1, 0), (1,) * 4, 1, True)),
        (Graph.make(8, edges=cube), angle(3, 2), form(tuple(v ^ 7 for v in range(8)), (3,) * 8, 2, True)),
    ]
    for graph, duration, expected in cases:
        step = TimedGraph(graph, duration)
        assert ro._phased_permutation(step) == expected == dense_phased_permutation(step)
    assert read == [TimedGraph(graph, duration) for graph, duration, _ in cases]


@functools.cache
def dense_hadamard_layers(n_qubits):
    """(compiled steps, total unitary, (time, graph count)) of the Hadamard layer on every nonempty qubit subset."""
    layers = []
    for size in range(1, n_qubits + 1):
        for targets in itertools.combinations(range(n_qubits), size):
            layer = compile_hadamard_layer(targets, n_qubits)
            layers.append((layer.steps, total_unitary(layer), (layer.total_time(), layer.graph_count)))
    return layers


def dense_hadamard_layer(n, steps):
    """The steps of the Hadamard layer the run's product equals (up to phase) and that strictly costs less, or None."""
    fragment = DynamicGraph(n, steps)
    product, cost = total_unitary(fragment), (fragment.total_time(), fragment.graph_count)
    for layer_steps, unitary, layer_cost in dense_hadamard_layers(n.bit_length() - 1):
        if layer_cost < cost and phase_distance(product, unitary) < ro.VERIFY_TOLERANCE:
            return layer_steps
    return None


def per_stop_hypercube_sites(walk, index, window=None):
    """The longest span from the index whose product is a cheaper Hadamard layer.

    Each span's product is built on its own and compared with the total
    unitary of the layer on every qubit subset. With a window [a, b), only
    spans that hold part of it but not all of it.
    """
    for stop in range(walk.graph_count, index, -1):
        if window is not None:
            a, b = window
            if stop <= a or index >= b or (index <= a and stop >= b):
                continue
        layer = dense_hadamard_layer(walk.n_vertices, walk.steps[index:stop])
        if layer is not None:
            return [(index, stop, layer, "")]
    return []


def random_hadamard_walk(rng, n_qubits):
    n = 2**n_qubits
    steps = []
    for _ in range(rng.randrange(2, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            steps.extend(compile_circuit(Circuit(n_qubits, (Gate("H", target=rng.randrange(n_qubits)),))).steps)
        elif kind == 1:
            # a layer padded with a global phase, which the pass strips
            targets = [q for q in range(n_qubits) if rng.random() < 0.6] or [0]
            steps.extend(compile_hadamard_layer(targets, n_qubits).steps)
            steps.append(TimedGraph(Graph(n, loops=frozenset(range(n))), angle(rng.randrange(1, 4), 4)))
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
        facts = ro.ScanFacts(walk)
        count = walk.graph_count
        for index in range(count):
            sites = list(ro._hypercube_sites(facts, index))
            assert sites == per_stop_hypercube_sites(walk, index)
            found["whole walk"] += len(sites)
        for _ in range(8):
            start = rng.randrange(count)
            window = (start, rng.randrange(start + 1, count + 1))
            for index in range(count):
                sites = list(ro._hypercube_sites(facts, index, window))
                assert sites == per_stop_hypercube_sites(walk, index, window)
                found["window"] += len(sites)
    assert all(found.values())


def test_follow_up_hadamard_sites_read_from_the_moved_facts_match_the_per_stop_scan():
    """After every neutral move the enabling search tries, the window's sites are the per-stop ones.

    The moved walk's facts share the products of the walk before the move
    outside the window; the per-stop scan builds each span's product on its
    own.
    """
    rng = random.Random(5)
    moves = ro._MOVES
    candidates = found = 0
    for n_qubits in (1, 2, 3):
        for _ in range(4):
            walk = random_hadamard_walk(rng, n_qubits)
            for moved, window in neutral_moves(walk, moves):
                candidates += 1
                for index in range(walk.graph_count):
                    sites = list(ro._hypercube_sites(moved, index, window))
                    assert sites == per_stop_hypercube_sites(moved.walk, index, window), (window, index)
                    found += len(sites)
    assert candidates and found


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_no_hadamard_layer_costs_less_than_the_floor(n_qubits):
    for size in range(1, n_qubits + 1):
        for targets in itertools.combinations(range(n_qubits), size):
            mask = sum(bit_value(q, n_qubits) for q in targets)
            _, cost, _ = ro._hadamard_layer(mask, n_qubits)
            assert price(cost) >= price(ro.LAYER_FLOOR)
            assert (price(cost) == price(ro.LAYER_FLOOR)) == (size == 1)


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
def test_run_ends_are_the_forward_scans(seed):
    """Each run end, from every start, is where walking forward over the run's kind of step stops."""
    rng = random.Random(seed)
    walk = random_walk(rng)
    steps = list(walk.steps) + [random_loops_step(rng, walk.n_vertices) for _ in range(rng.randrange(2, 8))]
    rng.shuffle(steps)
    facts = ro.ScanFacts(DynamicGraph(walk.n_vertices, tuple(steps)))
    kinds = {
        "perm": lambda step: ro._phased_permutation(step) is not None,
        "flip": lambda step: ro._phased_permutation(step) is not None and ro._phased_permutation(step).bitflip,
        "loops": lambda step: step.graph.is_loops_only,
    }
    for kind, belongs in kinds.items():
        for start in range(len(steps) + 1):
            stop = start
            while stop < len(steps) and belongs(steps[stop]):
                stop += 1
            assert facts.run_end(start, kind) == stop, (kind, start)


@pytest.mark.parametrize("seed", range(10))
def test_span_time_sums_the_steps_less_the_others_exactly(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    for _ in range(20):
        steps = [random_loops_step(rng, n) for _ in range(rng.randrange(0, 4))]
        minus = [random_loops_step(rng, n) for _ in range(rng.randrange(0, 4))]
        expected = sum((s.duration for s in steps), angle(0)) - sum((s.duration for s in minus), angle(0))
        assert angle(*ro._span_time(steps, minus=minus)) == expected
        assert angle(*ro._span_time(steps)) == sum((s.duration for s in steps), angle(0))


def offered_sites(facts):
    """Every site the rule rows offer on the facts' walk: each scan row's at every position, then each move row's."""
    positions = range(facts.walk.graph_count)
    scanned = [site for _, sites in ro._REGULAR + ro._LAST_RESORT for index in positions for site in sites(facts, index)]
    return scanned + [site for _, sites in ro._MOVES for site in sites(facts)]


@pytest.mark.parametrize("seed", range(10))
def test_gain_prices_every_site_from_its_durations(seed):
    """Every site the rows offer, and every singleton move and fold before the rows filter them on their price."""
    walk = random_walk(random.Random(seed))
    facts = ro.ScanFacts(walk)
    priced = 0
    unfiltered = [
        (*ro._splice(walk.steps, source, target, left, landed), "")
        for source in range(walk.graph_count)
        for _, _, target, left, landed in ro._singleton_moves(facts, source)
    ] + [
        (index, stop, ro._fold(walk.n_vertices, perm, residues, den), "")
        for index in range(walk.graph_count)
        for stop, _, perm, residues, den in fold_entries(facts, index)
        if stop - index >= 2
    ]
    for start, stop, replacement, _ in offered_sites(facts) + unfiltered:
        saved = sum((s.duration for s in walk.steps[start:stop]), angle(0)) - sum(
            (s.duration for s in replacement), angle(0)
        )
        assert price(ro._gain(facts, start, stop, replacement)) == (saved, stop - start - len(replacement))
        priced += 1
    assert priced > 0


# -- the integer time base against Fraction arithmetic ------------------------------


def fraction_reduced(duration, graph):
    """_reduced in Fraction arithmetic, from the public period."""
    if duration < 2 and not graph.is_empty:
        return duration
    cycle = period(graph)
    if cycle is None:
        return duration
    return duration % cycle if cycle else angle(0)


def fraction_merge_identical(first, second):
    if first.graph != second.graph:
        return "graphs differ"
    total = fraction_reduced(first.duration + second.duration, first.graph)
    return (TimedGraph(first.graph, total),) if total else ()


def fraction_merge_complementary(first, second):
    """The overlap's steps in Fraction arithmetic, for two steps the rule applies to."""
    shorter, longer = (first, second) if first.duration <= second.duration else (second, first)
    union = TimedGraph(first.graph.union(second.graph), shorter.duration)
    remainder = longer.duration - shorter.duration
    return (union, TimedGraph(longer.graph, remainder)) if remainder else (union,)


def fraction_tau(step):
    """The phase a looped singleton carries out of the step, in Fraction arithmetic."""
    return step.duration / Fraction(*_small_ratio(spectrum(step.graph).norm)) % 2


def fraction_landing(step, vertex, tau):
    """_singleton_landing in Fraction arithmetic, for a target the rule applies to."""
    graph, n = step.graph, step.graph.n_vertices
    if vertex in graph.loops:
        # the staircase of the target's phase on its other loops and the landed phase on the vertex, both mod 2pi
        groups = ((step.duration % 2, graph.loops - {vertex}), ((step.duration + tau) % 2, {vertex}))
        levels = sorted({phase for phase, vertices in groups if phase and vertices}, reverse=True)
        return tuple(
            TimedGraph(Graph.make(n, loops=set().union(*(v for phase, v in groups if phase >= high))), high - low)
            for high, low in zip(levels, levels[1:] + [0])
        )
    residual = (tau - step.duration / Fraction(*_small_ratio(spectrum(graph).norm))) % 2
    joined = TimedGraph(Graph(n, graph.edges, graph.loops | {vertex}), step.duration)
    return (joined,) if not residual else (joined, TimedGraph(Graph.make(n, loops=[vertex]), residual))


def fraction_price(steps, replacement):
    """(time saved, graphs removed) by replacing the steps, in Fraction arithmetic."""
    saved = sum((s.duration for s in steps), angle(0)) - sum((s.duration for s in replacement), angle(0))
    return saved, len(steps) - len(replacement)


@pytest.mark.parametrize("seed", range(12))
def test_integer_prices_and_verdicts_match_fraction_arithmetic(seed):
    """Random walks and compiled random circuits: every price and verdict duration, against Fractions.

    Every site the rows offer and every singleton move and fold before the
    rows filter them is priced as the Fraction sums price it; the merges,
    the reductions modulo a period, the phase a singleton carries and every
    landing of it hold the durations Fraction arithmetic gives; and every
    step and record optimize emits reads its times as Fractions.
    """
    rng = random.Random(1000 + seed)
    for walk in (random_walk(rng), compile_circuit(random_circuit(rng))):
        walk = ro._normalize(walk)[0]
        steps, facts = walk.steps, ro.ScanFacts(walk)
        sites = [
            (*ro._splice(steps, source, target, left, landed), gain)
            for source in range(walk.graph_count)
            for gain, _, target, left, landed in ro._singleton_moves(facts, source)
        ] + [
            (index, stop, ro._fold(walk.n_vertices, perm, residues, den), gain)
            for index in range(walk.graph_count)
            for stop, gain, perm, residues, den in fold_entries(facts, index)
            if stop - index >= 2
        ]
        sites += [(start, stop, replacement, None) for start, stop, replacement, _ in offered_sites(facts)]
        assert sites
        for start, stop, replacement, gain in sites:
            expected = fraction_price(steps[start:stop], replacement)
            assert price(ro._gain(facts, start, stop, replacement)) == expected
            if gain is not None:
                assert price(gain) == expected

        for first, second in zip(steps, steps[1:]):
            assert ro._merge_identical(first, second) == fraction_merge_identical(first, second)
            merged = ro._merge_complementary(first, second)
            if not isinstance(merged, str):
                assert merged == fraction_merge_complementary(first, second)
        # the steps again at 3t + 7pi/4, beyond 2pi
        longer = steps + tuple(TimedGraph(step.graph, 3 * step.duration + angle(7, 4)) for step in steps)
        for step in longer:
            for duration in (step.duration, step.duration + 2):
                num, den = _reduced(step.graph, duration.numerator, duration.denominator)
                assert angle(num, den) == fraction_reduced(duration, step.graph)
            for vertex in sorted(step.graph.loops):
                moved = ro._singleton_source(step, vertex)
                if isinstance(moved, str):
                    continue
                tau, _ = moved
                assert angle(*tau) == fraction_tau(step)
                for target in longer:
                    landed = ro._singleton_landing(target, vertex, tau)
                    if not isinstance(landed, str):
                        assert landed == fraction_landing(target, vertex, angle(*tau))

        final, report = optimize(walk)
        for step in final.steps:
            assert type(step.duration) is Fraction
            # equal durations, however written, make equal steps with equal hashes
            written = TimedGraph(step.graph, Fraction(2 * step.pi_num, 2 * step.pi_den))
            doubled = TimedGraph.of(step.graph, 2 * step.pi_num, 2 * step.pi_den)
            assert written == step == doubled and hash(written) == hash(step) == hash(doubled)
        assert all(type(record.time_saved) is Fraction for record in report.rewrites)
        assert type(report.initial_time) is Fraction and type(report.final_time) is Fraction


# -- the enabling search ------------------------------------------------------------


def enabling_searches(walk):
    """The (walk, rows, moves, skip set) of every enabling search optimize runs."""
    searches = []
    real = ro._find_enabling_pair

    def recorded(facts, rows, moves, skip):
        searches.append((facts.walk, rows, moves, set(skip)))
        return real(facts, rows, moves, skip)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ro, "_find_enabling_pair", recorded)
        optimize(walk)
    return searches


def neutral_moves(walk, moves, skip=()):
    """Every enabling candidate: the facts of the moved walk and the window it rewrote.

    A candidate changes its span and is not skipped; every move is
    cost-neutral (test_every_enabling_move_is_cost_neutral). Its facts come
    from the walk's, as the enabling search derives them.
    """
    facts = ro.ScanFacts(walk)
    for _, sites in moves:
        for start, stop, replacement, _ in sites(facts):
            span = walk.steps[start:stop]
            if replacement != span and (span, replacement) not in skip:
                yield facts.replaced(start, stop, replacement), (start, stop)


def search_input(seed):
    """Seeds 0-29: random walks on 2-8 vertices; 30-39: compiled random 2-qubit circuits."""
    rng = random.Random(seed)
    return random_walk(rng) if seed < 30 else compile_circuit(random_circuit(rng, widths=(2,)))


def test_every_enabling_move_is_cost_neutral():
    """Every site of every move row keeps its span's time and graph count.

    The enabling search prices no move, and the follow-up scan's window
    holds only after a move that keeps its span's cost. Checked on the
    window tests' inputs and on every walk an enabling search reads.
    """
    offered = Counter()
    for seed in range(40):
        walk = search_input(seed)
        for current in [walk] + [searched for searched, _, _, _ in enabling_searches(walk)]:
            facts = ro.ScanFacts(current)
            for rule, sites in ro._MOVES:
                for start, stop, replacement, _ in sites(facts):
                    saved, _, removed = ro._gain(facts, start, stop, replacement)
                    assert saved == 0 and removed == 0, (seed, rule, start, stop)
                    offered[rule] += 1
    assert [rule for rule, _ in ro._MOVES] == [RULE_SWAP_COMMUTING, RULE_MOVE_SINGLETON]
    assert offered[RULE_SWAP_COMMUTING] >= 100 and offered[RULE_MOVE_SINGLETON] >= 100, offered


def test_every_scan_site_strictly_improves():
    """Every site of every regular and last-resort row, at every position, saves time or graphs.

    The counterpart of test_every_enabling_move_is_cost_neutral: every row
    filters its own sites, so ``_scan``'s improving test drops none and only
    guards termination. Checked on the window tests' inputs, normalized, on
    every walk an enabling search reads, and on compiled corpus circuits,
    whose Hadamards reach the Hadamard-layer row; every row offers sites.
    """
    walks = []
    for seed in range(40):
        walk, _ = ro._normalize(search_input(seed))
        walks += [walk] + [searched for searched, _, _, _ in enabling_searches(walk)]
    walks += [ro._normalize(compile_circuit(random_circuit(random.Random(seed))))[0] for seed in range(12)]
    rows = ro._REGULAR + ro._LAST_RESORT
    offered = Counter()
    for walk in walks:
        facts = ro.ScanFacts(walk)
        for rule, sites in rows:
            for index in range(walk.graph_count):
                for start, stop, replacement, _ in sites(facts, index):
                    saved, _, removed = ro._gain(facts, start, stop, replacement)
                    assert (saved, removed) > (0, 0), (rule, sites.__name__, start, stop)
                    offered[sites] += 1
    assert all(offered[sites] for _, sites in rows), {sites.__name__: offered[sites] for _, sites in rows}


def test_the_scan_picks_the_site_that_removes_most_then_saves_most_and_keeps_the_first_of_a_tie():
    """``_scan``'s pick among one row's sites at a position, on crafted sites of a fake row.

    At position 0 of four loops-only steps of pi/4, the row offers spans
    from step 0 on with one-step replacements, so each site's price is set
    by its span and its replacement's duration: more steps removed beats
    more time saved, then more time saved wins, and a full tie keeps the
    site offered first. A skipped site and one that does not improve are
    passed over, however well they would rank.
    """
    walk = walk_of(*(loops(2, {step % 2}, 1, 4) for step in range(4)))

    def one(num, den=1, vertex=0):
        return (loops(2, {vertex}, num, den),)

    def pick(sites, skip=()):
        def row(facts, index, *reach):
            return iter(sites if index == 0 else ())

        return ro._scan(ro.ScanFacts(walk), ((RULE_MOVE_SINGLETON, row),), set(skip))

    two_saving_more = (0, 2, one(1, 8), "one removed, 3π/8 saved")
    three_saving_less = (0, 3, one(5, 8), "two removed, π/8 saved")
    three_saving_more = (0, 3, one(3, 8), "two removed, 3π/8 saved")
    three_tied = (0, 3, one(3, 8, vertex=1), "two removed, 3π/8 saved, offered second")
    four_skipped = (0, 4, one(1, 8), "three removed, 7π/8 saved, skipped")
    four_costlier = (0, 4, one(2), "three removed, π lost")

    def picked(start, stop, replacement, note, removed, saved):
        return RewriteStep(RULE_MOVE_SINGLETON, (start, stop), saved, removed, note), replacement

    assert pick([two_saving_more, three_saving_less]) == picked(*three_saving_less, 2, angle(1, 8))
    assert pick([three_saving_less, two_saving_more]) == picked(*three_saving_less, 2, angle(1, 8))
    assert pick([three_saving_less, three_saving_more]) == picked(*three_saving_more, 2, angle(3, 8))
    assert pick([three_saving_more, three_tied]) == picked(*three_saving_more, 2, angle(3, 8))
    assert pick([three_tied, three_saving_more]) == picked(*three_tied, 2, angle(3, 8))
    skip = {(walk.steps[0:4], four_skipped[2])}
    assert pick([four_skipped, four_costlier, three_saving_less], skip) == picked(*three_saving_less, 2, angle(1, 8))
    assert pick([four_skipped, four_costlier], skip) is None
    assert pick([four_skipped]) == picked(*four_skipped, 3, angle(7, 8))


def test_every_staircase_and_every_scanned_walk_keep_the_invariants_their_makers_set(monkeypatch):
    """The invariants the builder and the rules rely on, checked at the places that establish them.

    Each of the four callers of ``_staircase`` (the Hadamard layer, the
    fold, the loops-only row and the loops-only landing) reduces its turns
    modulo 2 den over the walk's vertices just before the call, and
    ``_normalize`` leaves no empty step and no zero duration in any walk the
    driver scans, enabling candidates included. Both ``_staircase``
    bindings and ``ScanFacts`` are wrapped while ``optimize`` runs on the
    digest corpus's seeds and the window tests' inputs and while circuits
    with H runs and HLAYER gates compile, with and without
    ``parallel_hadamards``.
    """
    callers = Counter()

    def staircase(turns, den, n_vertices):
        caller = sys._getframe(1).f_code.co_name
        assert all(0 <= vertex < n_vertices and 0 <= turn < 2 * den for vertex, turn in turns.items()), (
            caller, turns, den, n_vertices,
        )
        callers[caller] += 1
        return _staircase(turns, den, n_vertices)

    scanned = Counter()
    real_init = ro.ScanFacts.__init__

    def init(self, walk, memo=None, origin=None):
        assert all(step.pi_num > 0 and not step.graph.is_empty for step in walk.steps), walk
        # the facts made by replaced for the enabling search are its candidates'
        scanned["candidate" if sys._getframe(2).f_code.co_name == "_find_enabling_pair" else "walk"] += 1
        real_init(self, walk, memo, origin)

    monkeypatch.setattr(gate_compiler, "_staircase", staircase)
    monkeypatch.setattr(ro, "_staircase", staircase)
    monkeypatch.setattr(ro.ScanFacts, "__init__", init)
    for seed in range(20):
        optimize(random_walk(random.Random(seed)))
        optimize(compile_circuit(random_circuit(random.Random(seed))))
    for seed in range(40):
        optimize(search_input(seed))
    rng = np.random.default_rng(5)
    for _ in range(30):
        n_qubits = int(rng.integers(1, 5))
        circuit = Circuit(n_qubits, tuple(random_gate(rng, n_qubits) for _ in range(8)))
        for parallel in (False, True):
            compile_circuit(circuit, parallel_hadamards=parallel)
    assert set(callers) == {"compile_hadamard_layer", "_fold", "_staircase_sites", "_singleton_landing"}, callers
    assert scanned["walk"] and scanned["candidate"], scanned


def random_rewrite(rng, walk, start, stop):
    """The walk with steps[start:stop] replaced by as many random steps."""
    n = walk.n_vertices
    make = random_step if n & (n - 1) == 0 else random_singleton_step
    return walk.replaced(start, stop, [make(rng, n) for _ in range(stop - start)])


def test_moved_facts_are_the_facts_of_the_moved_walk():
    """Every enabling candidate against fresh facts of its walk: the same times; products spliced from the origin's.

    Left of the window the products are the origin's own arrays, and from
    the window on they equal the moved walk's up to a global phase.
    """
    moves = ro._MOVES
    compared = spliced = 0
    for seed in range(40):
        walk = search_input(seed)
        for moved, (start, _) in neutral_moves(walk, moves):
            fresh = ro.ScanFacts(moved.walk)
            assert (moved.times, moved.den) == (fresh.times, fresh.den), (seed, start)
            compared += 1
            if walk.n_vertices & (walk.n_vertices - 1) == 0:
                products, expected = moved.products(), fresh.products()
                assert len(products) == len(expected)
                assert all(np.array_equal(a, b) for a, b in zip(products[: start + 1], expected))
                assert all(phase_distance(a, b) < 1e-12 for a, b in zip(products[start + 1 :], expected[start + 1 :]))
                spliced += 1
    assert compared >= 1500 and spliced >= 1000, (compared, spliced)


def test_replaced_facts_splice_the_products_of_windows_that_grow_shrink_and_empty():
    """``replaced`` against fresh facts, for windows at the start, inside and at the end of the walk.

    A step splits into two halves (the window grows), two halves join (it
    shrinks), and a loop step at 2pi goes (it empties). Each keeps the
    window's product, so the spliced products equal the new walk's up to
    phase, with the origin's own arrays left of the window; the facts of a
    walk replaced twice before they splice splice once, from the first.
    """
    rng = random.Random(11)
    checked = 0
    for n in (4, 8):
        base = tuple(random_step(rng, n) for _ in range(5))
        turn = TimedGraph(Graph.make(n, loops=[0]), angle(2))
        for p, step in enumerate(base):
            halves = (TimedGraph(step.graph, step.duration / 2),) * 2
            cases = [
                (base, p, p + 1, halves),
                (base[:p] + halves + base[p + 1 :], p, p + 2, (step,)),
                (base[:p] + (turn,) + base[p:], p, p + 1, ()),
                (base + (turn,), len(base), len(base) + 1, ()),
            ]
            for steps, lo, hi, replacement in cases:
                once = steps[:lo] + replacement + steps[hi:]
                first = (TimedGraph(once[0].graph, once[0].duration / 2),) * 2
                origin = ro.ScanFacts(DynamicGraph(n, steps))
                facts = origin.replaced(lo, hi, replacement)
                twice = origin.replaced(lo, hi, replacement).replaced(0, 1, first)
                assert facts.walk.steps == once and twice.walk.steps == first + once[1:]
                assert twice._origin[0] is origin
                for derived, shared in ((facts, lo + 1), (twice, 1)):
                    fresh = prefix_unitaries(n, derived.walk.steps)
                    products = derived.products()
                    assert len(products) == len(fresh) and derived._origin is None
                    assert all(a is b for a, b in zip(products[:shared], origin.products()))
                    assert all(phase_distance(a, b) < 1e-12 for a, b in zip(products, fresh)), (p, lo, hi)
                    checked += 1
    assert checked == 2 * 2 * 5 * 4


def test_regular_rows_offer_only_sites_that_start_at_their_position():
    """The rows the follow-up scan reads are span-local; singleton moves are not."""
    regular, last_resort = ro._REGULAR, ro._LAST_RESORT
    assert [sites for _, sites in last_resort] == [ro._singleton_sites, ro._fold_sites]
    for seed in range(40):
        walk = search_input(seed)
        facts = ro.ScanFacts(walk)
        for _, sites in regular:
            for index in range(walk.graph_count):
                assert all(site[0] == index for site in sites(facts, index)), (seed, sites, index)


@pytest.mark.parametrize("seed", range(40))
def test_sites_left_out_for_a_window_do_not_read_it(seed):
    """A site a follow-up row leaves out for a window is one it offered before the window changed."""
    rng = random.Random(seed)
    walk = search_input(seed)
    count = walk.graph_count
    regular = ro._REGULAR
    rows = [sites for _, sites in regular if sites is not ro._hypercube_sites]
    for _ in range(6):
        start = rng.randrange(count)
        window = (start, rng.randrange(start + 1, min(start + 3, count) + 1))
        moved = ro.ScanFacts(random_rewrite(rng, walk, *window))
        for sites in rows:
            for index in range(count):
                offered = list(sites(moved, index, window))
                every = list(sites(moved, index))
                assert offered == [site for site in every if site in offered]
                before = list(sites(ro.ScanFacts(walk), index))
                assert all(site in before for site in every if site not in offered), (sites, index, window)


def test_windowed_follow_up_scan_matches_the_full_scan():
    landed = []
    for seed in range(40):
        for current, rows, moves, skip in enabling_searches(search_input(seed)):
            for moved, window in neutral_moves(current, moves, skip):
                follow = ro._scan(moved, rows, skip, window)
                assert follow == ro._scan(ro.ScanFacts(moved.walk), rows, skip), (seed, window)
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
                fresh = ro.ScanFacts(moved.walk)
                assert follow == ro._scan(fresh, rows, skip), (seed, window)
                landed += follow is not None
                changed += follow != ro._scan(fresh, rows, set())
    # follow-ups land, and the skip sets change what some of them find
    assert landed >= 20 and changed >= 5


def resumed_scans(walk):
    """Run optimize on the walk, checking every regular scan it makes and every product splice.

    Each regular scan of ``optimize`` (not the enabling search's) must pick
    what a full scan of fresh facts of its walk picks, and every time facts
    splice their prefix products from their origin, the spliced products
    must equal fresh ``prefix_unitaries`` of their walk up to a global
    phase. Returns the (window, resume) of each scan and the splice count.
    """
    scans, spliced = [], []
    real_scan, real_products = ro._scan, ro.ScanFacts.products

    def scan(facts, rows, skip, window=None, resume=None):
        found = real_scan(facts, rows, skip, window, resume)
        if rows == ro._REGULAR and sys._getframe(1).f_code.co_name == "optimize":
            assert found == real_scan(ro.ScanFacts(facts.walk), rows, skip), (window, resume)
            scans.append((window, resume))
        return found

    def products(facts):
        splices = facts._products is None and facts._origin is not None
        carried = real_products(facts)
        if splices:
            fresh = prefix_unitaries(facts.walk.n_vertices, facts.walk.steps)
            assert len(carried) == len(fresh)
            assert all(phase_distance(a, b) < 1e-12 for a, b in zip(carried, fresh))
            spliced.append(facts.walk)
        return carried

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ro, "_scan", scan)
        patch.setattr(ro.ScanFacts, "products", products)
        optimize(walk)
    return scans, len(spliced)


RESUMED_SCAN_INPUTS = {
    "random walks and 2-qubit circuits": lambda: [search_input(seed) for seed in range(40)],
    "corpus circuits": lambda: [compile_circuit(random_circuit(random.Random(seed))) for seed in range(20)],
    "40 gates": lambda: [compile_circuit(length_ladder.random_circuit(40, 1))],
    "80 gates": lambda: [compile_circuit(length_ladder.random_circuit(80, 2))],
}


@pytest.mark.parametrize("kind", list(RESUMED_SCAN_INPUTS))
def test_every_resumed_scan_picks_what_a_full_scan_of_fresh_facts_picks(kind):
    """At every iteration of ``optimize``, the resumed or windowed scan against a full scan; the carried products against fresh ones.

    The inputs are the window tests' random walks and compiled 2-qubit
    circuits, compiled corpus circuits, and compiled 3-qubit circuits of 40
    and 80 gates. Scans resume below a rewrite's position, read a window
    alone after a last-resort rewrite or an enabling chain, and the
    products are spliced.
    """
    resumed = windowed = spliced = 0
    for walk in RESUMED_SCAN_INPUTS[kind]():
        scans, splices = resumed_scans(walk)
        assert scans[0] == (None, None)
        resumed += sum(window is not None and resume is not None and resume > 0 for window, resume in scans)
        windowed += sum(window is not None and resume is None for window, resume in scans)
        spliced += splices
    assert resumed and windowed and spliced, (resumed, windowed, spliced)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_hadamard_layer_sites_pass_their_verification(n_qubits):
    rng = random.Random(n_qubits)
    found = 0
    for _ in range(10):
        walk = random_hadamard_walk(rng, n_qubits)
        facts = ro.ScanFacts(walk)
        for index in range(walk.graph_count):
            for start, stop, replacement, _ in ro._hypercube_sites(facts, index):
                record = RewriteStep(RULE_HYPERCUBE_HADAMARD, (start, stop), angle(0), 0)
                assert ro._span_verified(walk, (record, replacement))
                found += 1
    assert found


def test_enabling_search_keeps_the_window_while_rewrites_are_skipped(monkeypatch):
    final, _ = optimize(search_input(0))
    regular, moves = ro._REGULAR, ro._MOVES
    candidates = [window for _, window in neutral_moves(final, moves)]
    assert candidates
    windows = []
    real = ro._scan

    def recorded(facts, rows, skip, window=None):
        windows.append(window)
        return real(facts, rows, skip, window)

    monkeypatch.setattr(ro, "_scan", recorded)
    assert ro._find_enabling_pair(ro.ScanFacts(final), regular, moves, set()) is None
    assert windows == candidates
    windows.clear()
    # a rewrite that dropped the first step, skipped since it failed
    assert ro._find_enabling_pair(ro.ScanFacts(final), regular, moves, {(final.steps[:1], ())}) is None
    assert windows == candidates


def test_enabling_search_passes_over_moves_that_keep_their_span(monkeypatch):
    step = match(2, 1, 1, 3)
    walk = walk_of(step, step, loops(2, [0], 1, 2))
    regular, moves = ro._REGULAR, ro._MOVES
    kept = [
        (start, stop)
        for _, sites in moves
        for start, stop, replacement, _ in sites(ro.ScanFacts(walk))
        if replacement == walk.steps[start:stop]
    ]
    # swapping the two equal blocks rewrites (0, 2) into the same steps
    assert (0, 2) in kept
    scanned = []
    real = ro._scan

    def recorded(moved, rows, skip, window=None):
        scanned.append(moved.walk)
        return real(moved, rows, skip, window)

    monkeypatch.setattr(ro, "_scan", recorded)
    ro._find_enabling_pair(ro.ScanFacts(walk), regular, moves, set())
    assert walk not in scanned


def test_a_bit_flip_run_only_a_neutral_fold_would_merge_stays_as_it_is():
    """The enabling search offers no COMBINE_PST fold, so this walk ends as it does without COMBINE_PST.

    X_1 and X_2 at pi/2 would fold into X_3 at pi/2 and the all-loops
    phase at pi/2: the same time and graph count, after which the new X_3
    step would merge with the X_3 step before it. No enabling move is a
    fold, so the walk keeps its 3 graphs at 5pi/4, with no rewrite.
    """
    walk = walk_of(match(4, 3, 1, 4), match(4, 1, 1, 2), match(4, 2, 1, 2))
    final, report = optimize(walk)
    assert final.steps == walk.steps
    assert final.graph_count == 3
    assert final.total_time() == angle(5, 4)
    assert report.rewrites == ()
    assert report.verified
    assert_same_program(walk, final)
    without_fold, report = optimize(walk, passes=[rule for rule in ALL_RULES if rule != RULE_COMBINE_PST])
    assert without_fold.steps == final.steps
    assert report.rewrites == ()


# -- the per-run memo ---------------------------------------------------------------


def test_no_cache_outlives_an_optimize_call():
    """The optimizer defines no cache of its own, and the package has two.

    ``graph_model.spectrum`` serves every command, and
    ``walk_engine._cached_factors`` serves ``equiv`` and ``optimize``;
    both outlive the call by design, and the optimizer's verdicts do not.
    """
    modules = [importlib.import_module(f"dynwalk.{info.name}") for info in pkgutil.iter_modules(dynwalk.__path__)]
    caches = {
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    }
    assert caches == {"dynwalk.graph_model.spectrum", "dynwalk.walk_engine._cached_factors"}
    assert not [name for name, value in vars(ro).items() if hasattr(value, "cache_info") and value.__module__ == ro.__name__]


def test_optimize_makes_one_memo_shares_it_and_frees_it(monkeypatch):
    """One memo per call, held by every ScanFacts of the call, enabling candidates too, and dead on return."""
    memos, holders = [], []
    real_memo, real_init = ro._Memo, ro.ScanFacts.__init__

    def tracked():
        memo = real_memo()
        memos.append(weakref.ref(memo))
        return memo

    def recorded(facts, *args):
        real_init(facts, *args)
        holders.append((facts.memo is memos[-1](), sys._getframe(2).f_code.co_name == "_find_enabling_pair"))

    monkeypatch.setattr(ro, "_Memo", tracked)
    monkeypatch.setattr(ro.ScanFacts, "__init__", recorded)
    _, report = optimize(tf.short_program())
    gc.collect()
    assert any(record.detail.startswith("enabling") for record in report.rewrites)
    assert len(memos) == 1 and memos[0]() is None
    assert all(shared for shared, _ in holders)
    assert any(candidate for _, candidate in holders)


def test_one_run_classifies_each_distinct_step_once(monkeypatch):
    """Every walk and enabling candidate of a run reads a step's phased-permutation form from one memo."""
    classified = Counter()
    real = ro._phased_permutation

    def counted(step):
        classified[step] += 1
        return real(step)

    monkeypatch.setattr(ro, "_phased_permutation", counted)
    optimize(tf.short_program())
    first = dict(classified)
    assert first and set(first.values()) == {1}
    classified.clear()
    optimize(tf.short_program())
    assert classified == first


# -- the driver -------------------------------------------------------------------


def test_optimize_collapses_double_bit_flip():
    walk = walk_of(
        match(4, 2, 1, 2),
        TimedGraph(Graph(4, loops=frozenset(range(4))), angle(3, 2)),
        match(4, 1, 1, 2),
        TimedGraph(Graph(4, loops=frozenset(range(4))), angle(3, 2)),
    )
    final, report = optimize(walk)
    assert final.steps == (
        match(4, 3, 1, 2),
        TimedGraph(Graph(4, loops=frozenset(range(4))), angle(3, 2)),
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


def test_optimize_renormalizes_after_each_accepted_rewrite():
    """Moving the loop out of C4 + loop leaves C4, whose period 2pi is shorter than the step's 4pi."""
    c4 = Graph.make(6, edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    walk = walk_of(TimedGraph(c4.union(Graph.make(6, loops=[4])), angle(5, 2)), loops(6, [4], 3, 4))
    final, report = optimize(walk)
    assert final.steps == (TimedGraph(c4, angle(1, 2)),)
    assert [(r.rule, r.span) for r in report.rewrites] == [(RULE_MOVE_SINGLETON, (0, 2)), (RULE_NORMALIZE_TIME, (0, 1))]
    assert report.rewrites[1].detail == "5π/2 -> π/2"
    assert report.verified
    assert_same_program(walk, final)


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
    _phased_permutation stops it.
    """
    near = match(4, 1, 100001, 200000)
    walk = walk_of(near, match(4, 2, 1, 2))
    assert ro._phased_permutation(near) is None
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
    monkeypatch.setattr(ro, "run_distance", lambda n, first, second: 1.0)
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


@pytest.mark.parametrize("failing", [RULE_SWAP_COMMUTING, RULE_MERGE_IDENTICAL])
def test_an_enabling_chain_is_verified_rewrite_by_rewrite_and_skips_only_the_failed_one(monkeypatch, failing):
    """X_1, X_2, X_1 at pi/4: the swap of (0, 2) enables the merge of (1, 3), and one of the two fails.

    Each rewrite is verified on the walk before it, so the merge on the
    swapped walk; a failed swap leaves the merge unverified. Either way the
    walk stays as it was, and only the failed rewrite's span steps and
    replacement are skipped.
    """
    first, second = match(4, 1, 1, 4), match(4, 2, 1, 4)
    walk = walk_of(first, second, first)
    swapped = walk_of(second, first, first)
    real = ro._span_verified
    checks, skips = [], []

    def fails_one(program, rewrite):
        checks.append((program, rewrite[0].rule, rewrite[0].span))
        return rewrite[0].rule != failing and real(program, rewrite)

    def search(facts, rows, moves, skip):
        skips.append(skip)
        return enabling(facts, rows, moves, skip)

    enabling = ro._find_enabling_pair
    monkeypatch.setattr(ro, "_span_verified", fails_one)
    monkeypatch.setattr(ro, "_find_enabling_pair", search)
    final, report = optimize(walk, max_iterations=1)
    move = (walk, RULE_SWAP_COMMUTING, (0, 2))
    if failing == RULE_SWAP_COMMUTING:
        assert checks == [move]
        assert skips[0] == {(walk.steps[0:2], swapped.steps[0:2])}
    else:
        assert checks == [move, (swapped, RULE_MERGE_IDENTICAL, (1, 3))]
        assert skips[0] == {((first, first), (match(4, 1, 1, 2),))}
    assert final == walk
    assert report.rewrites == ()
    assert report.rejected == ("SWAP_COMMUTING+MERGE_IDENTICAL at (0, 2): verification failed",)
    assert report.stop_reason == "rejection cap"


def test_optimize_checks_output_against_input(monkeypatch):
    # a wrong period, pi/2, makes the optimizer's reduction cut 11pi/4 down
    # to pi/4; the final check reduces by the true period, 2pi
    monkeypatch.setattr(ro, "_reduced", lambda graph, num, den: (2 * num % den, 2 * den))
    walk = walk_of(loops(2, [0], 11, 4))
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
        return TimedGraph(_matching(n, _pairs(n, mask)), duration)
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


# 310 landing lookups: singleton moves wait for the last-resort scan, so no
# follow-up scan prices them. 2,036 when the windowed follow-up scan did,
# 4,228 when every follow-up scanned the whole walk, and 40,834 when each
# move consulted the landing verdict of every target of the walk.
SINGLETON_CALL_CEILING = 650


def test_optimize_recovered_program_stays_under_the_singleton_call_ceiling(monkeypatch):
    calls = []
    real = ro._singleton_landing

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ro, "_singleton_landing", counted)
    optimize(catalog.reconstruct(tf.LONG_TRACE).program())
    assert 0 < len(calls) <= SINGLETON_CALL_CEILING


# The criterion-09 program judges 819 Hadamard-layer fragments; 1,048 before
# the sweep stopped at the fragments that cost no more than the cheapest
# layer. Before the sweep skipped fragments of phased permutations and the
# follow-up scan skipped fragments that miss the changed window or hold all
# of it, it tried 3,696 (1,583 without the skip, 2,340 without the window).
# The sweep judges each fragment that passes the floor check, so a judged
# fragment is a LAYER_FLOOR check that returns False; a one-target layer
# costs the same as the floor but is another tuple.
HYPERCUBE_CALL_CEILING = 1300


def test_optimize_recovered_program_stays_under_the_hypercube_call_ceiling(monkeypatch):
    calls = []
    real = ro.ScanFacts.costs_at_most

    def counted(facts, start, stop, cost):
        cheaper = real(facts, start, stop, cost)
        if cost is ro.LAYER_FLOOR and not cheaper:
            calls.append((start, stop))
        return cheaper

    monkeypatch.setattr(ro.ScanFacts, "costs_at_most", counted)
    optimize(catalog.reconstruct(tf.LONG_TRACE).program())
    assert 0 < len(calls) <= HYPERCUBE_CALL_CEILING


def test_optimize_builds_no_prefix_products_when_every_sweep_stops_at_the_floor(monkeypatch):
    """The Hadamard-layer row fetches the products only for a fragment that passes the floor check."""
    walk = walk_of(
        TimedGraph(Graph.make(4, edges=[(0, 1), (1, 2)]), angle(1, 4)),
        TimedGraph(Graph.make(4, edges=[(1, 2), (2, 3)]), angle(1, 3)),
        TimedGraph(Graph.make(4, edges=[(0, 1), (1, 2)], loops=[3]), angle(1, 2)),
    )
    assert ro.ScanFacts(walk).run_end(0, "perm") == 0
    floor_checks, products = [], []
    real_costs, real_products = ro.ScanFacts.costs_at_most, ro.prefix_unitaries

    def costs(facts, start, stop, cost):
        cheaper = real_costs(facts, start, stop, cost)
        if cost is ro.LAYER_FLOOR:
            floor_checks.append(cheaper)
        return cheaper

    def counted(*args):
        products.append(args)
        return real_products(*args)

    monkeypatch.setattr(ro.ScanFacts, "costs_at_most", costs)
    monkeypatch.setattr(ro, "prefix_unitaries", counted)
    optimize(walk)
    assert floor_checks and all(floor_checks)
    assert products == []


# Optimizing the criterion-09 program applies 7,493 steps through the
# kernel with empty caches; 9,080 when the Hadamard-layer sweep took the
# products of the fragments from each start from a prefix_unitaries call of
# their own.
KERNEL_STEP_CEILING = 8500


def test_optimize_recovered_program_stays_under_the_kernel_step_ceiling(monkeypatch):
    calls = []
    real = walk_engine._run

    def counted(rows, steps, factors):
        steps = tuple(steps)
        calls.extend(rows.shape for _ in steps)
        return real(rows, steps, factors)

    monkeypatch.setattr(walk_engine, "_run", counted)
    optimize(catalog.reconstruct(tf.LONG_TRACE).program())
    assert 0 < len(calls) <= KERNEL_STEP_CEILING


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


# -- the scripts in tests/ ------------------------------------------------------------


def test_the_corpus_digest_script_runs_on_two_seeds(capsys):
    """tests/corpus_digest.py at 2 seeds: 7 programs, the part totals and the five digests."""
    import corpus_digest

    corpus_digest.main(["2"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert re.fullmatch(r"7 programs in \d+\.\d s", lines[0])
    assert re.fullmatch(r"sha256 [0-9a-f]{64}", lines[1])
    for line, (part, programs) in zip(
        lines[2:6], [("corpus", 7), ("random walks", 2), ("compiled circuits", 2), ("named programs", 3)]
    ):
        assert re.fullmatch(rf"{part}: {programs} programs, final time (0|\d*π(/\d+)?), \d+ graphs", line)
    assert re.fullmatch(r"hadamard layers, 1-10 qubits, 1-3 targets: sha256 [0-9a-f]{64}", lines[6])
    assert re.fullmatch(r"simulate, compiled circuits from state 0: sha256 [0-9a-f]{64}", lines[7])
    assert re.fullmatch(r"compile with parallel Hadamards, corpus circuits: sha256 [0-9a-f]{64}", lines[8])
    assert re.fullmatch(r"spectra of \d+ distinct input and output graphs: sha256 [0-9a-f]{64}", lines[9])


WORK_LINE = (
    r"work: scans (?P<full>\d+) full, (?P<resumed>\d+) resumed, (?P<follow_up>\d+) follow-up,"
    r" (?P<last_resort>\d+) last-resort; Hadamard fragments (?P<judged>\d+) judged,"
    r" (?P<refused>\d+) refused by trace, (?P<dense>\d+) dense checks;"
    r" prefix products (?P<products>\d+) calls, (?P<steps>\d+) steps; singleton moves (?P<moves>\d+) priced;"
    r" block swaps (?P<lookups>\d+) commutation lookups, (?P<verdicts>\d+) verdicts;"
    r" enabling searches (?P<searches>\d+),"
    r" (?P<candidates>\d+) candidates; run_distance (?P<distances>\d+) calls"
)


def work_of(line):
    """The counts of a ``work:`` line, by name.

    The trace refuses only judged fragments, and only the rest reach the
    full check; every commutation verdict is a lookup the memo missed.
    """
    work = {name: int(value) for name, value in re.fullmatch(WORK_LINE, line).groupdict().items()}
    assert work["refused"] <= work["judged"] and work["dense"] <= work["judged"] - work["refused"]
    assert work["verdicts"] <= work["lookups"]
    return work


def test_the_optimize_profile_script_runs_on_two_seeds(capsys):
    """tests/optimize_profile.py at 2 seeds: a header, the spectrum counts, the classifier and commutation routes, the fold and staircase counts, the work counts, one share line per source file, fractions.py among them, then the ten functions of largest cumulative time."""
    import cli_overhead
    import optimize_profile

    # empty caches, as in a fresh process, so that the corpus's graphs miss
    for cache in cli_overhead.package_caches():
        cache.cache_clear()
    optimize_profile.main(["2"])
    header, counts, routes, folds, staircases, work, *lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"optimize over 7 programs: \d+\.\d\d s of self time, \d+ Fraction constructions", header)
    decompositions, listed, searches, _ = map(
        int,
        re.fullmatch(
            r"spectrum: (\d+) decompositions, (\d+) from edge lists, (\d+) component searches, (\d+) eigh calls", counts
        ).groups(),
    )
    # the corpus's programs all have fewer vertices than the bound
    assert 0 < listed == decompositions and searches == 0
    exact, floats, edge_lists, walk_counts = map(
        int,
        re.fullmatch(
            r"forms: (\d+) from edge lists, (\d+) from block exponentials; "
            r"commutation: (\d+) from edge lists, (\d+) by walk counts",
            routes,
        ).groups(),
    )
    assert exact + floats > 0 and edge_lists + walk_counts > 0
    flips, flips_improving, wide, wide_improving = map(
        int,
        re.fullmatch(
            r"folds: bit-flip row (\d+) built, (\d+) improving; fold row (\d+) built, (\d+) improving", folds
        ).groups(),
    )
    # both rows build only the folds that strictly improve
    assert flips == flips_improving and wide == wide_improving and flips + wide > 0
    layer, folded, run, landing, widest = map(
        int,
        re.fullmatch(
            r"staircases: layer (\d+), fold (\d+), loops-only run (\d+), landing (\d+); widest (\d+) vertices", staircases
        ).groups(),
    )
    # every fold builds one staircase, and each caller is reached
    assert folded == flips + wide and min(layer, run, landing) > 0 and widest > 0
    work = work_of(work)
    # each of the 7 programs starts with a full scan and ends on a last-resort scan that finds nothing
    assert work["full"] >= 7 and work["last_resort"] >= 7 and work["resumed"] + work["follow_up"] > 0
    assert work["refused"] > 0 and work["steps"] >= work["products"] > 0 and work["moves"] > 0
    # the last-resort scan that finds nothing is followed by an enabling search; each follow-up scans one candidate
    assert work["searches"] >= 7 and work["candidates"] >= work["follow_up"] and work["verdicts"] > 0
    # each program's final check, and a span check per accepted or rejected chain
    assert work["distances"] > 7
    split = lines.index("10 functions by cumulative time:")
    lines, top = lines[:split], lines[split + 1 :]
    cumulative = [re.fullmatch(r"(.+):(\d+) (.+): (\d+\.\d{3}) s cumulative", line).groups() for line in top]
    assert len(cumulative) == 10
    assert ("rewrite_optimizer.py", "optimize") in {(module, function) for module, _, function, _ in cumulative}
    seconds = [float(value) for *_, value in cumulative]
    assert seconds == sorted(seconds, reverse=True)
    shares = {}
    for line in lines:
        module, seconds, share = re.fullmatch(r"(.+): (\d+\.\d{3}) s, (\d+\.\d) %", line).groups()
        shares[module] = float(share)
    assert {"fractions.py", "rewrite_optimizer.py"} <= set(shares)
    assert list(shares.values()) == sorted(shares.values(), reverse=True)
    assert abs(sum(shares.values()) - 100) < 0.05 * len(shares) + 0.1


def test_the_length_ladder_script_runs_its_smallest_rungs(capsys):
    """tests/length_ladder.py on 5 and 10 gates at seeds 1 and 2: a timing line and a work line per circuit, in order."""
    length_ladder.main(["5", "10", "--seeds", "1", "2"])
    lines = capsys.readouterr().out.splitlines()
    rungs = [(5, 1), (5, 2), (10, 1), (10, 2)]
    assert len(lines) == 2 * len(rungs)
    for line, work, (n_gates, seed) in zip(lines[::2], lines[1::2], rungs):
        steps, graphs = map(int, re.fullmatch(
            rf"{n_gates} gates, seed {seed}: (\d+) steps -> (\d+) graphs at (0|\d*π(/\d+)?),"
            r" output [0-9a-f]{16}, optimize \d+\.\d{3} s",
            line,
        ).groups()[:2])
        walk = compile_circuit(length_ladder.random_circuit(n_gates, seed))
        assert steps == walk.graph_count and graphs <= steps
        # one program: one full scan first, one last-resort scan that finds nothing and the final check
        work = work_of(work)
        assert work["full"] >= 1 and work["last_resort"] >= 1 and work["distances"] >= 1
    length_ladder.main(["5"])
    assert capsys.readouterr().out.startswith("5 gates, seed 1: ")


def test_the_code_lines_script_counts_every_module(capsys):
    """tests/code_lines.py: one line per module of src/dynwalk, then their totals; no blank, comment or docstring line counts."""
    import code_lines

    source = '"""Module."""\n\n# a comment\nx = (1,\n     2)  # trailing\n\n\ndef f():\n    """Doc\n    string."""\n    return """a\nb"""\n'
    assert code_lines.code_lines(source) == 5
    assert code_lines.exported_names(source) == 0
    assert code_lines.exported_names(source + '__all__ = [\n    "x",\n    "f",\n]\n') == 2
    code_lines.main()
    *modules, total = capsys.readouterr().out.splitlines()
    rows = {name: (int(lines), int(names)) for name, lines, names in (
        re.fullmatch(r"(\w+\.py): (\d+) code lines, (\d+) exported", line).groups() for line in modules
    )}
    assert {"__init__.py", "graph_model.py", "rewrite_optimizer.py"} <= set(rows)
    for name, (_, names) in rows.items():
        module = importlib.import_module("dynwalk" if name == "__init__.py" else f"dynwalk.{name[:-3]}")
        assert names == len(module.__all__)
    lines, names = (sum(column) for column in zip(*rows.values()))
    assert total == f"src/dynwalk: {lines} code lines, {names} exported"
