"""Consistency tests for the hand-worked state tables.

These pin down what the bundled tables actually contain: every printed
state is unitary, the step programs reproduce the tables except at the two
known slips, and the catalog matcher recovers the programs from the tables
alone, bridging over the slips. The slips themselves are asserted exactly
so any silent fixture edit shows up here.
"""

from fractions import Fraction

import numpy as np
import pytest

import catalog
import trace_fixtures as tf
from references import circuit_unitary
from dynwalk.graph_model import DynamicGraph, TimedGraph
from dynwalk.numerics import phase_distance
from dynwalk.walk_engine import total_unitary

TOL = 1e-9


@pytest.fixture(scope="module")
def cat():
    return catalog.Catalog()


def partial_products(program):
    state = np.eye(program.n_vertices, dtype=complex)
    yield state
    for step in program.steps:
        state = total_unitary(DynamicGraph(program.n_vertices, (step,))) @ state
        yield state


def mismatched_rows(actual, printed):
    return sorted(
        row
        for row in range(actual.shape[0])
        if np.abs(actual[row] - printed[row]).max() > TOL
    )


# -- the tables themselves --------------------------------------------------------


@pytest.mark.parametrize("index", range(len(tf.LONG_TRACE)))
def test_long_states_are_unitary(index):
    state = tf.LONG_TRACE[index]
    assert np.abs(state @ state.conj().T - np.eye(8)).max() < 1e-12


@pytest.mark.parametrize("index", range(len(tf.SHORT_TRACE)))
def test_short_states_are_unitary(index):
    state = tf.SHORT_TRACE[index]
    assert np.abs(state @ state.conj().T - np.eye(8)).max() < 1e-12


def test_programs_implement_the_reference_circuit():
    target = circuit_unitary(tf.reference_circuit())
    assert phase_distance(total_unitary(tf.long_program()), target) < TOL
    assert phase_distance(total_unitary(tf.short_program()), target) < TOL


def test_programs_are_equivalent_to_each_other():
    u_long = total_unitary(tf.long_program())
    u_short = total_unitary(tf.short_program())
    assert phase_distance(u_long, u_short) < TOL


def test_program_shapes():
    long = tf.long_program()
    short = tf.short_program()
    assert long.graph_count == 16
    assert long.total_time() == Fraction(67, 4)
    assert short.graph_count == 14
    assert short.total_time() == Fraction(21, 4)


def test_short_table_final_state_is_exact():
    u = total_unitary(tf.short_program())
    assert np.abs(u - tf.SHORT_TRACE[14]).max() < 1e-12


# -- the two known slips ----------------------------------------------------------


def test_long_table_slips_are_exactly_rows_5_4_4():
    """The long program matches its table up to state 13; the printed
    state 14 misses the sign flip on row 5, which the following two states
    inherit on row 4 after the matching step swaps rows."""
    slips = {}
    for index, state in enumerate(partial_products(tf.long_program())):
        rows = mismatched_rows(state, tf.LONG_TRACE[index])
        if rows:
            slips[index] = rows
    assert slips == {14: [5], 15: [4], 16: [4]}


def test_short_table_slip_is_state_10():
    """Printed state 10 applies 5 pi/4 of loop phase where the program
    applies pi/4; state 11 onward is consistent again."""
    slips = {}
    for index, state in enumerate(partial_products(tf.short_program())):
        rows = mismatched_rows(state, tf.SHORT_TRACE[index])
        if rows:
            slips[index] = rows
    assert slips == {10: [2, 4, 5, 7]}


def test_final_printed_states_disagree_in_one_row():
    deviation = np.abs(tf.LONG_TRACE[16] - tf.SHORT_TRACE[14]).max(axis=1)
    assert deviation[4] == pytest.approx(1.0)
    assert deviation[[0, 1, 2, 3, 5, 6, 7]].max() < 1e-12
    assert np.abs(tf.LONG_TRACE[16][4] + tf.SHORT_TRACE[14][4]).max() < 1e-12
    assert phase_distance(tf.LONG_TRACE[16], tf.SHORT_TRACE[14]) == pytest.approx(0.25)


def test_the_closing_phase_identity_holds():
    assert 1j * np.exp(-0.25j * np.pi) == pytest.approx(np.exp(0.25j * np.pi))


# -- catalog matching -------------------------------------------------------------


def test_catalog_matches_a_known_step(cat):
    step = TimedGraph(tf._loops([1, 3, 5, 7]), Fraction(3, 2))
    entry = cat.match_single(total_unitary(DynamicGraph(8, (step,))))
    assert entry is not None
    assert entry.family == "loops"
    assert entry.graph == step.graph
    assert entry.duration == Fraction(3, 2)


def test_catalog_rejects_an_off_grid_arrow(cat):
    arrow = np.diag(np.exp(-1j * np.linspace(0.1, 0.8, 8)))
    assert cat.match_single(arrow) is None


def test_long_arrow_14_is_a_false_positive(cat):
    arrow = tf.LONG_TRACE[14] @ tf.LONG_TRACE[13].conj().T
    entry = cat.match_single(arrow)
    assert entry is not None
    assert entry.family == "loops"
    assert sorted(entry.graph.loops) == [1, 3, 7]
    assert entry.duration == Fraction(1, 1)


def test_long_arrow_15_matches_nothing(cat):
    arrow = tf.LONG_TRACE[15] @ tf.LONG_TRACE[14].conj().T
    assert cat.match_single(arrow) is None


def test_short_arrow_10_is_a_false_positive(cat):
    arrow = tf.SHORT_TRACE[10] @ tf.SHORT_TRACE[9].conj().T
    entry = cat.match_single(arrow)
    assert entry is not None
    assert entry.family == "loops"
    assert sorted(entry.graph.loops) == [2, 4, 5, 7]
    assert entry.duration == Fraction(5, 4)


def test_short_arrow_11_matches_nothing(cat):
    arrow = tf.SHORT_TRACE[11] @ tf.SHORT_TRACE[10].conj().T
    assert cat.match_single(arrow) is None


def test_pair_search_finds_the_cheapest_bridge(cat):
    span = tf.SHORT_TRACE[11] @ tf.SHORT_TRACE[9].conj().T
    pair = cat.match_pair(span)
    assert pair is not None
    first, second = pair
    assert sorted(first.graph.loops) == [2, 4, 5, 7]
    assert sorted(second.graph.loops) == [2, 5, 7]
    assert first.duration == second.duration == Fraction(1, 4)


# -- full reconstruction ----------------------------------------------------------


def test_short_table_reconstructs_to_the_true_program(cat):
    result = catalog.reconstruct(tf.SHORT_TRACE, cat)
    assert result.barrier_count == 0
    assert result.bridged_indices == (9, 10)
    assert result.program() == tf.short_program()


def test_long_table_reconstructs_with_one_bridge(cat):
    result = catalog.reconstruct(tf.LONG_TRACE, cat)
    assert result.barrier_count == 0
    assert result.bridged_indices == (13, 14)
    assert len(result.steps) == 16
    assert result.total_time() == Fraction(67, 4)

    bridge_first = result.steps[13]
    bridge_second = result.steps[14]
    assert sorted(bridge_first.graph.loops) == [1, 3, 4, 5, 7]
    assert bridge_first.duration == Fraction(1, 1)
    assert sorted(bridge_second.graph.edges) == [(1, 3), (5, 7)]
    assert bridge_second.duration == Fraction(1, 2)


def test_long_reconstruction_reproduces_the_printed_final_state(cat):
    result = catalog.reconstruct(tf.LONG_TRACE, cat)
    u = total_unitary(result.program())
    assert np.abs(u - tf.LONG_TRACE[16]).max() < TOL


def test_long_reconstruction_inherits_the_table_slip(cat):
    """The bridge reproduces the printed states faithfully, slip included,
    so the recovered program is measurably inequivalent to the fourteen
    step program; correcting the extra loop restores equivalence."""
    result = catalog.reconstruct(tf.LONG_TRACE, cat)
    u_short = total_unitary(tf.short_program())
    distance = phase_distance(total_unitary(result.program()), u_short)
    assert distance == pytest.approx(0.25, abs=1e-9)

    steps = list(result.steps)
    steps[13] = TimedGraph(tf._loops([1, 3, 5, 7]), Fraction(1, 1))
    corrected = DynamicGraph(8, tuple(steps))
    assert phase_distance(total_unitary(corrected), u_short) < TOL
