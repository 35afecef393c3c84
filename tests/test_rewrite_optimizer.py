"""Rewrite passes checked one by one, then the fixpoint driver end to end.

Expected outputs for the driver tests were worked out by hand from the
rule definitions (scan order is leftmost position first, merge rules
before singleton moves before layer replacement) and are asserted
exactly. The unitary oracle is total_unitary, compared through the
phase-invariant distance, the same check the driver itself performs.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynwalk.rewrite_optimizer as ro
from dynwalk.gate_compiler import (
    Circuit,
    Gate,
    all_loops_graph,
    circuit_unitary,
    compile_circuit,
    compile_gate,
    compile_hadamard_layer,
    matching_graph,
)
from dynwalk.graph_model import DynamicGraph, Graph, Period, RationalAngle, TimedGraph
from dynwalk.numerics import phase_distance
from dynwalk.rewrite_optimizer import (
    RULE_COMBINE_PST,
    RULE_DROP_ZERO,
    RULE_HYPERCUBE_HADAMARD,
    RULE_MERGE_COMPLEMENTARY,
    RULE_MERGE_IDENTICAL,
    RULE_MOVE_SINGLETON,
    RULE_NORMALIZE_TIME,
    RULE_SWAP_COMMUTING,
    RuleNotApplicable,
    optimize,
    pass_combine_pst,
    pass_hypercube_hadamard,
    pass_merge_complementary,
    pass_merge_identical,
    pass_move_singleton,
    pass_swap_commuting,
)
from dynwalk.walk_engine import total_unitary


def angle(num, den=1):
    return RationalAngle(num, den)


def loops(n, vertices, num, den=1):
    return TimedGraph(Graph.make(n, loops=vertices), angle(num, den))


def match(n, mask, num, den=1):
    return TimedGraph(matching_graph(n, mask), angle(num, den))


def walk_of(*steps):
    return DynamicGraph(steps[0].graph.n_vertices, steps)


def assert_same_program(a, b, tol=1e-9):
    assert phase_distance(total_unitary(a), total_unitary(b)) < tol


# -- pass_swap_commuting -------------------------------------------------------


def test_swap_commuting_exchanges_steps():
    walk = walk_of(loops(2, [0], 1, 2), loops(2, [1], 1))
    swapped = pass_swap_commuting(walk, 0)
    assert swapped.steps == (walk.steps[1], walk.steps[0])
    assert_same_program(walk, swapped, tol=1e-12)


def test_swap_commuting_rejects_non_commuting():
    walk = walk_of(
        TimedGraph(Graph.make(3, edges=[(0, 1)]), angle(1, 2)),
        TimedGraph(Graph.make(3, edges=[(1, 2)]), angle(1, 2)),
    )
    with pytest.raises(RuleNotApplicable):
        pass_swap_commuting(walk, 0)


def test_swap_commuting_rejects_bad_index():
    walk = walk_of(loops(2, [0], 1, 2))
    with pytest.raises(RuleNotApplicable):
        pass_swap_commuting(walk, 0)
    with pytest.raises(RuleNotApplicable):
        pass_swap_commuting(walk, -1)


# -- pass_merge_identical ------------------------------------------------------


def test_merge_identical_sums_durations():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 4))
    merged = pass_merge_identical(walk, 0)
    assert merged.steps == (match(4, 1, 3, 4),)


def test_merge_identical_reduces_modulo_period():
    walk = walk_of(loops(2, [0], 3, 2), loops(2, [0], 3, 2))
    merged = pass_merge_identical(walk, 0)
    assert merged.steps == (loops(2, [0], 1),)
    assert_same_program(walk, merged, tol=1e-12)


def test_merge_identical_drops_full_period():
    walk = walk_of(match(4, 1, 1), match(4, 1, 1))
    merged = pass_merge_identical(walk, 0)
    assert merged.steps == ()


def test_merge_identical_rejects_different_graphs():
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 2))
    with pytest.raises(RuleNotApplicable):
        pass_merge_identical(walk, 0)


# -- pass_combine_pst ----------------------------------------------------------


def test_combine_pst_cancels_inverse_matchings():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 3, 2))
    assert pass_combine_pst(walk, 0, 2).steps == ()


def test_combine_pst_equal_matchings_leave_loop_graph():
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    combined = pass_combine_pst(walk, 0, 2)
    assert combined.steps == (TimedGraph(all_loops_graph(4), angle(1)),)
    assert_same_program(walk, combined, tol=1e-12)


def test_combine_pst_fuses_masks():
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 2))
    combined = pass_combine_pst(walk, 0, 2)
    assert combined.steps == (
        match(4, 3, 1, 2),
        TimedGraph(all_loops_graph(4), angle(1, 2)),
    )
    assert_same_program(walk, combined, tol=1e-12)


def test_combine_pst_collapses_two_gate_run():
    walk = walk_of(
        match(4, 2, 1, 2),
        TimedGraph(all_loops_graph(4), angle(3, 2)),
        match(4, 1, 1, 2),
        TimedGraph(all_loops_graph(4), angle(3, 2)),
    )
    combined = pass_combine_pst(walk, 0, 4)
    assert combined.steps == (
        match(4, 3, 1, 2),
        TimedGraph(all_loops_graph(4), angle(3, 2)),
    )
    assert_same_program(walk, combined, tol=1e-12)


def test_combine_pst_rejects_unclassifiable_step():
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 4))
    with pytest.raises(RuleNotApplicable):
        pass_combine_pst(walk, 0, 2)


def test_combine_pst_rejects_short_span():
    walk = walk_of(match(4, 1, 1, 2), match(4, 2, 1, 2))
    with pytest.raises(RuleNotApplicable):
        pass_combine_pst(walk, 0, 1)


# -- pass_merge_complementary ---------------------------------------------------


def test_merge_complementary_overlaps_disjoint_steps():
    walk = walk_of(loops(3, [0], 1, 2), loops(3, [1], 3, 2))
    merged = pass_merge_complementary(walk, 0)
    assert merged.steps == (loops(3, [0, 1], 1, 2), loops(3, [1], 1))
    assert_same_program(walk, merged, tol=1e-12)


def test_merge_complementary_longer_first_step():
    walk = walk_of(loops(3, [0], 3, 2), loops(3, [1], 1, 2))
    merged = pass_merge_complementary(walk, 0)
    assert merged.steps == (loops(3, [0, 1], 1, 2), loops(3, [0], 1))


def test_merge_complementary_equal_durations_fuse_fully():
    walk = walk_of(
        TimedGraph(Graph.make(4, edges=[(0, 1)]), angle(1, 2)),
        TimedGraph(Graph.make(4, edges=[(2, 3)]), angle(1, 2)),
    )
    merged = pass_merge_complementary(walk, 0)
    assert merged.steps == (
        TimedGraph(Graph.make(4, edges=[(0, 1), (2, 3)]), angle(1, 2)),
    )
    assert_same_program(walk, merged, tol=1e-12)


def test_merge_complementary_rejects_norm_mismatch():
    walk = walk_of(
        loops(4, [0], 1, 2),
        TimedGraph(Graph.make(4, edges=[(1, 2), (2, 3)]), angle(1, 2)),
    )
    with pytest.raises(RuleNotApplicable):
        pass_merge_complementary(walk, 0)


def test_merge_complementary_rejects_overlap():
    walk = walk_of(loops(2, [0], 1, 2), loops(2, [0, 1], 1, 2))
    with pytest.raises(RuleNotApplicable):
        pass_merge_complementary(walk, 0)


def test_merge_complementary_rejects_empty_step():
    walk = walk_of(loops(2, [0], 1, 2), TimedGraph(Graph.make(2), angle(1, 2)))
    with pytest.raises(RuleNotApplicable):
        pass_merge_complementary(walk, 0)


# -- pass_move_singleton ---------------------------------------------------------


def test_move_singleton_into_loop_step_cancels():
    walk = walk_of(loops(2, [0], 1, 2), loops(2, [0, 1], 3, 2))
    moved = pass_move_singleton(walk, 0, 0, 1)
    assert moved.steps == (loops(2, [1], 3, 2),)
    assert_same_program(walk, moved, tol=1e-12)


def test_move_singleton_joins_edge_step_with_residue():
    walk = walk_of(
        loops(3, [0], 1),
        TimedGraph(Graph.make(3, edges=[(1, 2)]), angle(1, 2)),
    )
    moved = pass_move_singleton(walk, 0, 0, 1)
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
    with pytest.raises(RuleNotApplicable):
        pass_move_singleton(walk, 0, 0, 2)


def test_move_singleton_rejects_attached_vertex():
    walk = walk_of(
        TimedGraph(Graph.make(3, edges=[(0, 1)], loops=[0]), angle(1, 2)),
        loops(3, [0], 1),
    )
    with pytest.raises(RuleNotApplicable):
        pass_move_singleton(walk, 0, 0, 1)


def test_move_singleton_rejects_unlooped_vertex():
    walk = walk_of(match(4, 1, 1, 2), loops(4, [0], 1))
    with pytest.raises(RuleNotApplicable):
        pass_move_singleton(walk, 0, 0, 1)


def test_move_singleton_rejects_same_source_and_target():
    walk = walk_of(loops(2, [0], 1, 2), loops(2, [1], 1))
    with pytest.raises(RuleNotApplicable):
        pass_move_singleton(walk, 0, 0, 0)


def test_move_singleton_rejects_short_phase():
    walk = walk_of(
        loops(3, [0], 1, 4),
        TimedGraph(Graph.make(3, edges=[(1, 2)]), angle(1, 2)),
    )
    with pytest.raises(RuleNotApplicable):
        pass_move_singleton(walk, 0, 0, 1)


def test_move_singleton_rejects_mixed_target_with_loop():
    walk = walk_of(
        loops(3, [0], 1, 2),
        TimedGraph(Graph.make(3, edges=[(1, 2)], loops=[0]), angle(1, 2)),
    )
    with pytest.raises(RuleNotApplicable):
        pass_move_singleton(walk, 0, 0, 1)


# -- pass_hypercube_hadamard ------------------------------------------------------


def single_qubit_h_fixture():
    return walk_of(loops(2, [1], 3, 2), match(2, 1, 1, 4), loops(2, [1], 3, 2))


def test_hypercube_hadamard_replaces_single_qubit_fragment():
    walk = single_qubit_h_fixture()
    assert walk.total_time() == angle(13, 4)
    replaced = pass_hypercube_hadamard(walk, 0, 3)
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
    replaced = pass_hypercube_hadamard(walk, 0, 6)
    layer = compile_hadamard_layer([0, 1], 2)
    assert replaced.steps == layer.steps
    assert replaced.graph_count == 5
    assert replaced.total_time() == angle(5, 2)
    assert_same_program(walk, replaced)


def test_hypercube_hadamard_rejects_non_hadamard():
    walk = walk_of(match(2, 1, 1, 2))
    with pytest.raises(RuleNotApplicable):
        pass_hypercube_hadamard(walk, 0, 1)


def test_hypercube_hadamard_rejects_when_not_cheaper():
    layer = compile_hadamard_layer([0], 1)
    with pytest.raises(RuleNotApplicable):
        pass_hypercube_hadamard(layer, 0, 3)


def test_hypercube_hadamard_reads_a_non_contiguous_subset():
    first = compile_gate(Gate("H", target=0), 3)
    second = compile_gate(Gate("H", target=2), 3)
    walk = DynamicGraph(8, first.steps + second.steps)
    replaced = pass_hypercube_hadamard(walk, 0, walk.graph_count)
    assert replaced.steps == compile_hadamard_layer([0, 2], 3).steps
    assert_same_program(walk, replaced)


def test_hypercube_hadamard_rejects_right_support_with_wrong_phases():
    # Z after the layer keeps column 0's support but flips half its signs
    walk = DynamicGraph(
        8, compile_hadamard_layer([0, 2], 3).steps + compile_gate(Gate("Z", target=2), 3).steps
    )
    with pytest.raises(RuleNotApplicable):
        pass_hypercube_hadamard(walk, 0, walk.graph_count)


def test_hypercube_hadamard_rejects_bad_span_and_size():
    walk = single_qubit_h_fixture()
    with pytest.raises(RuleNotApplicable):
        pass_hypercube_hadamard(walk, 2, 2)
    odd = walk_of(loops(3, [0], 1, 2))
    with pytest.raises(RuleNotApplicable):
        pass_hypercube_hadamard(odd, 0, 1)


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
    assert set(d) == {"initial", "final", "rewrites", "rejected", "verified"}
    assert d["initial"]["graphs"] == 2
    assert d["final"]["time"]["pi_num"] == 1
    assert d["verified"] is True
    assert d["rejected"] == []
    assert all({"rule", "span", "time_saved", "graphs_removed", "detail"} <= set(r) for r in d["rewrites"])


def test_optimize_rejects_unknown_pass():
    walk = walk_of(match(4, 1, 1, 2))
    with pytest.raises(ValueError):
        optimize(walk, passes=["NOT_A_RULE"])


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


def test_optimize_iteration_cap():
    walk = walk_of(*(loops(2, [0], 1, 2) for _ in range(4)))
    final, report = optimize(walk, max_iterations=1)
    assert final.graph_count == 3
    assert len(report.rewrites) == 1


def test_optimize_rolls_back_failed_verification(monkeypatch):
    walk = walk_of(match(4, 1, 1, 2), match(4, 1, 1, 2))
    monkeypatch.setattr(ro, "phase_distance", lambda u, v: 1.0)
    final, report = optimize(walk, max_iterations=10)
    assert final == walk
    assert not report.verified
    assert len(report.rejected) >= 1
    assert all("verification failed" in line for line in report.rejected)
    assert report.rewrites == ()


def test_optimize_checks_output_against_input(monkeypatch):
    # a wrong period makes the normalization cut 3pi/4 down to pi/4
    monkeypatch.setattr(ro, "_cached_period", lambda graph: Period.finite(angle(1, 2)))
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
    before = (walk.total_time().as_fraction(), walk.graph_count)
    after = (final.total_time().as_fraction(), final.graph_count)
    assert after <= before


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
    before = (walk.total_time().as_fraction(), walk.graph_count)
    after = (final.total_time().as_fraction(), final.graph_count)
    assert after <= before
