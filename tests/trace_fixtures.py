"""Hand-worked reference tables for a three qubit walk example.

Two implementations of the same eight gate computation, written out as
step by step amplitude tables: a sixteen step program (LONG_TRACE, states
S0..S16) and a fourteen step program (SHORT_TRACE, states T0..T14). Each
table entry is the 8x8 matrix sending the initial amplitude vector to the
state after that step, derived by hand and bundled here as fixture data.

The tables are transcribed exactly as derived, including two known
arithmetic slips that the trace tests document: one sign in one row of the
long table from state 14 onward, and one wrong phase multiple in state 10
of the short table. long_program() and short_program() are the correct
step sequences; their partial products agree with the tables everywhere
outside those slips.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from dynwalk.gate_compiler import Circuit, Gate
from dynwalk.graph_model import DynamicGraph, Graph, TimedGraph

I = 1j
E = np.exp(0.25j * np.pi)
EC = E.conjugate()
R2 = 2**-0.5


def _state(rows):
    """Build an 8x8 matrix from (factor, pattern) rows.

    Pattern characters give the coefficient of each initial amplitude:
    '+' for +factor, '-' for -factor, '.' for zero.
    """
    matrix = np.zeros((8, 8), dtype=complex)
    for index, (factor, pattern) in enumerate(rows):
        assert len(pattern) == 8
        for column, mark in enumerate(pattern):
            if mark == "+":
                matrix[index, column] = factor
            elif mark == "-":
                matrix[index, column] = -factor
            else:
                assert mark == "."
    return matrix


LONG_TRACE = (
    np.eye(8, dtype=complex),
    # S1
    _state(
        [
            (1, "+......."),
            (1, ".+......"),
            (1, "..+....."),
            (1, "...+...."),
            (I, "....+..."),
            (I, ".....+.."),
            (I, "......+."),
            (I, ".......+"),
        ]
    ),
    # S2
    _state(
        [
            (R2, "+...+..."),
            (R2, ".+...+.."),
            (R2, "..+...+."),
            (R2, "...+...+"),
            (I * R2, "-...+..."),
            (I * R2, ".-...+.."),
            (I * R2, "..-...+."),
            (I * R2, "...-...+"),
        ]
    ),
    # S3
    _state(
        [
            (R2, "+...+..."),
            (R2, ".+...+.."),
            (R2, "..+...+."),
            (R2, "...+...+"),
            (R2, "+...-..."),
            (R2, ".+...-.."),
            (R2, "..+...-."),
            (R2, "...+...-"),
        ]
    ),
    # S4
    _state(
        [
            (-I * R2, "..+...+."),
            (-I * R2, "...+...+"),
            (-I * R2, "+...+..."),
            (-I * R2, ".+...+.."),
            (I * R2, "..-...+."),
            (I * R2, "...-...+"),
            (I * R2, "-...+..."),
            (I * R2, ".-...+.."),
        ]
    ),
    # S5
    _state(
        [
            (R2, "..+...+."),
            (R2, "...+...+"),
            (R2, "+...+..."),
            (R2, ".+...+.."),
            (R2, "..+...-."),
            (R2, "...+...-"),
            (R2, "+...-..."),
            (R2, ".+...-.."),
        ]
    ),
    # S6
    _state(
        [
            (R2, "..+...+."),
            (I * R2, "...+...+"),
            (R2, "+...+..."),
            (I * R2, ".+...+.."),
            (R2, "..+...-."),
            (I * R2, "...+...-"),
            (R2, "+...-..."),
            (I * R2, ".+...-.."),
        ]
    ),
    # S7
    _state(
        [
            (0.5, "..++..++"),
            (0.5 * I, "..-+..-+"),
            (0.5, "++..++.."),
            (0.5 * I, "-+..-+.."),
            (0.5, "..++..--"),
            (0.5 * I, "..-+..+-"),
            (0.5, "++..--.."),
            (0.5 * I, "-+..+-.."),
        ]
    ),
    # S8
    _state(
        [
            (0.5, "..++..++"),
            (0.5, "..+-..+-"),
            (0.5, "++..++.."),
            (0.5, "+-..+-.."),
            (0.5, "..++..--"),
            (0.5, "..+-..-+"),
            (0.5, "++..--.."),
            (0.5, "+-..-+.."),
        ]
    ),
    # S9
    _state(
        [
            (0.5, "..++..++"),
            (0.5, "..+-..+-"),
            (0.5, "++..++.."),
            (0.5, "+-..+-.."),
            (-0.5 * I, "++..--.."),
            (-0.5 * I, "+-..-+.."),
            (-0.5 * I, "..++..--"),
            (-0.5 * I, "..+-..-+"),
        ]
    ),
    # S10
    _state(
        [
            (0.5, "..++..++"),
            (0.5, "..+-..+-"),
            (0.5, "++..++.."),
            (0.5, "+-..+-.."),
            (0.5, "++..--.."),
            (0.5, "+-..-+.."),
            (0.5, "..++..--"),
            (0.5, "..+-..-+"),
        ]
    ),
    # S11
    _state(
        [
            (-0.5 * I, "++..--.."),
            (-0.5 * I, "+-..-+.."),
            (-0.5 * I, "..++..--"),
            (-0.5 * I, "..+-..-+"),
            (-0.5 * I, "..++..++"),
            (-0.5 * I, "..+-..+-"),
            (-0.5 * I, "++..++.."),
            (-0.5 * I, "+-..+-.."),
        ]
    ),
    # S12
    _state(
        [
            (-0.5 * I, "++..--.."),
            (-0.5 * I, "+-..-+.."),
            (-0.5 * I, "..++..--"),
            (-0.5 * I, "..+-..-+"),
            (0.5 * I, "..++..++"),
            (0.5 * I, "..+-..+-"),
            (0.5 * I, "++..++.."),
            (0.5 * I, "+-..+-.."),
        ]
    ),
    # S13
    _state(
        [
            (-0.5 * I, "++..--.."),
            (-0.5 * I, "+-..-+.."),
            (-0.5 * I * E, "..++..--"),
            (-0.5 * I * E, "..+-..-+"),
            (0.5 * I, "..++..++"),
            (0.5 * I, "..+-..+-"),
            (0.5 * I * E, "++..++.."),
            (0.5 * I * E, "+-..+-.."),
        ]
    ),
    # S14
    _state(
        [
            (-0.5 * I, "++..--.."),
            (0.5 * I, "+-..-+.."),
            (-0.5 * I * E, "..++..--"),
            (0.5 * I * E, "..+-..-+"),
            (0.5 * I, "..++..++"),
            (0.5 * I, "..+-..+-"),
            (0.5 * I * E, "++..++.."),
            (-0.5 * I * E, "+-..+-.."),
        ]
    ),
    # S15
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5 * E, "..+-..-+"),
            (-0.5 * I * E, "..++..--"),
            (0.5, "+-..-+.."),
            (-0.5 * I, "..++..++"),
            (0.5 * E, "-+..-+.."),
            (0.5 * I * E, "++..++.."),
            (-0.5, "..+-..+-"),
        ]
    ),
    # S16
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5 * I * E, "..+-..-+"),
            (-0.5 * I * E, "..++..--"),
            (0.5 * I, "+-..-+.."),
            (-0.5 * I, "..++..++"),
            (0.5 * I * E, "-+..-+.."),
            (0.5 * I * E, "++..++.."),
            (-0.5 * I, "..+-..+-"),
        ]
    ),
)

SHORT_TRACE = (
    np.eye(8, dtype=complex),
    # T1
    _state(
        [
            (-I, "+......."),
            (1, ".+......"),
            (-I, "..+....."),
            (1, "...+...."),
            (1, "....+..."),
            (1, ".....+.."),
            (1, "......+."),
            (1, ".......+"),
        ]
    ),
    # T2
    _state(
        [
            (-1, "+......."),
            (-I, ".+......"),
            (-1, "..+....."),
            (-I, "...+...."),
            (-I, "....+..."),
            (1, ".....+.."),
            (-I, "......+."),
            (1, ".......+"),
        ]
    ),
    # T3
    _state(
        [
            (-0.5, "++..++.."),
            (0.5 * I, "+-..+-.."),
            (-0.5, "..++..++"),
            (0.5 * I, "..+-..+-"),
            (0.5 * I, "++..--.."),
            (0.5, "+-..-+.."),
            (0.5 * I, "..++..--"),
            (0.5, "..+-..-+"),
        ]
    ),
    # T4
    _state(
        [
            (0.5 * I, "++..++.."),
            (0.5 * I, "+-..+-.."),
            (0.5 * I, "..++..++"),
            (0.5 * I, "..+-..+-"),
            (0.5, "++..--.."),
            (0.5, "+-..-+.."),
            (0.5, "..++..--"),
            (0.5, "..+-..-+"),
        ]
    ),
    # T5
    _state(
        [
            (0.5, "..++..++"),
            (0.5, "..+-..+-"),
            (0.5, "++..++.."),
            (0.5, "+-..+-.."),
            (0.5, "++..--.."),
            (0.5, "+-..-+.."),
            (0.5, "..++..--"),
            (0.5, "..+-..-+"),
        ]
    ),
    # T6
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5 * I, "-+..+-.."),
            (0.5 * I, "..--..++"),
            (0.5 * I, "..-+..+-"),
            (-0.5 * I, "..++..++"),
            (0.5 * I, "..-+..-+"),
            (-0.5 * I, "++..++.."),
            (0.5 * I, "-+..-+.."),
        ]
    ),
    # T7
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5 * I * EC, "-+..+-.."),
            (0.5 * I * EC, "..--..++"),
            (0.5 * I * EC, "..-+..+-"),
            (-0.5 * I * EC, "..++..++"),
            (0.5 * I * EC, "..-+..-+"),
            (-0.5 * I * EC, "++..++.."),
            (0.5 * I * EC, "-+..-+.."),
        ]
    ),
    # T8
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5, "-+..+-.."),
            (0.5, "..--..++"),
            (0.5 * I * EC, "..-+..+-"),
            (-0.5, "..++..++"),
            (0.5, "..-+..-+"),
            (-0.5, "++..++.."),
            (0.5, "-+..-+.."),
        ]
    ),
    # T9
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5, "-+..+-.."),
            (0.5 * EC, "..--..++"),
            (0.5 * I * EC, "..-+..+-"),
            (-0.5 * EC, "..++..++"),
            (0.5 * EC, "..-+..-+"),
            (-0.5 * EC, "++..++.."),
            (0.5 * EC, "-+..-+.."),
        ]
    ),
    # T10
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5, "-+..+-.."),
            (0.5 * I, "..--..++"),
            (0.5 * I * EC, "..-+..+-"),
            (-0.5 * I, "..++..++"),
            (0.5 * I, "..-+..-+"),
            (-0.5 * EC, "++..++.."),
            (0.5 * I, "-+..-+.."),
        ]
    ),
    # T11
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5, "-+..+-.."),
            (0.5 * I * EC, "..++..--"),
            (0.5 * I * EC, "..-+..+-"),
            (0.5 * I, "..++..++"),
            (0.5 * I * EC, "..+-..+-"),
            (-0.5 * EC, "++..++.."),
            (0.5 * I * EC, "+-..+-.."),
        ]
    ),
    # T12
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5, "-+..+-.."),
            (0.5, "..++..--"),
            (0.5 * I * EC, "..-+..+-"),
            (0.5 * I, "..++..++"),
            (0.5, "..+-..+-"),
            (-0.5 * EC, "++..++.."),
            (0.5 * I * EC, "+-..+-.."),
        ]
    ),
    # T13
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5, "-+..+-.."),
            (0.5 * EC, "..++..--"),
            (0.5 * I * EC, "..-+..+-"),
            (0.5 * I, "..++..++"),
            (0.5, "..+-..+-"),
            (-0.5 * EC, "++..++.."),
            (0.5 * I * EC, "+-..+-.."),
        ]
    ),
    # T14
    _state(
        [
            (0.5 * I, "--..++.."),
            (0.5 * EC, "..-+..+-"),
            (0.5 * EC, "..++..--"),
            (0.5 * I, "+-..-+.."),
            (0.5 * I, "..++..++"),
            (0.5 * EC, "+-..+-.."),
            (-0.5 * EC, "++..++.."),
            (0.5 * I, "..-+..-+"),
        ]
    ),
)


def _loops(vertices):
    return Graph.make(8, loops=vertices)


def _pairs(edges):
    return Graph.make(8, edges=edges)


def _matching(mask):
    """The perfect matching of each vertex v with v XOR mask."""
    return _pairs([(v, v ^ mask) for v in range(8) if v < v ^ mask])


def long_program() -> DynamicGraph:
    """The sixteen step program whose states the long table tracks."""
    a = Fraction
    steps = (
        TimedGraph(_loops([4, 5, 6, 7]), a(3, 2)),
        TimedGraph(_matching(4), a(1, 4)),
        TimedGraph(_loops([4, 5, 6, 7]), a(3, 2)),
        TimedGraph(_matching(2), a(1, 2)),
        TimedGraph(_loops(range(8)), a(3, 2)),
        TimedGraph(_loops([1, 3, 5, 7]), a(3, 2)),
        TimedGraph(_matching(1), a(1, 4)),
        TimedGraph(_loops([1, 3, 5, 7]), a(3, 2)),
        TimedGraph(_pairs([(4, 6), (5, 7)]), a(1, 2)),
        TimedGraph(_loops([4, 5, 6, 7]), a(3, 2)),
        TimedGraph(_matching(4), a(1, 2)),
        TimedGraph(_loops([4, 5, 6, 7]), a(1, 1)),
        TimedGraph(_loops([2, 3, 6, 7]), a(7, 4)),
        TimedGraph(_loops([1, 3, 5, 7]), a(1, 1)),
        TimedGraph(_pairs([(1, 3), (5, 7)]), a(1, 2)),
        TimedGraph(_loops([1, 3, 5, 7]), a(3, 2)),
    )
    return DynamicGraph(8, steps)


def short_program() -> DynamicGraph:
    """The fourteen step program whose states the short table tracks."""
    a = Fraction
    cube = _pairs(
        [(v, v ^ mask) for mask in (4, 1) for v in range(8) if v < v ^ mask]
    )
    steps = (
        TimedGraph(_loops([0, 2]), a(1, 2)),
        TimedGraph(_loops([0, 1, 2, 3, 4, 6]), a(1, 2)),
        TimedGraph(cube, a(1, 2)),
        TimedGraph(_loops([0, 2, 4, 6]), a(1, 2)),
        TimedGraph(_pairs([(0, 2), (1, 3)]), a(1, 2)),
        TimedGraph(_matching(4), a(1, 2)),
        TimedGraph(_loops([1, 2, 3, 4, 5, 6, 7]), a(1, 4)),
        TimedGraph(_loops([1, 2, 4, 5, 6, 7]), a(1, 4)),
        TimedGraph(_loops([2, 4, 5, 6, 7]), a(1, 4)),
        TimedGraph(_loops([2, 4, 5, 7]), a(1, 4)),
        TimedGraph(_loops([2, 5, 7]), a(1, 4)),
        TimedGraph(_loops([2, 5]), a(1, 4)),
        TimedGraph(_loops([2]), a(1, 4)),
        TimedGraph(_pairs([(1, 3), (5, 7)]), a(1, 2)),
    )
    return DynamicGraph(8, steps)


def reference_circuit() -> Circuit:
    """The eight gate circuit both programs implement."""
    return Circuit(
        3,
        (
            Gate("H", target=0),
            Gate("X", target=1),
            Gate("H", target=2),
            Gate("CNOT", target=1, control=0),
            Gate("Y", target=0),
            Gate("T", target=1),
            Gate("Z", target=2),
            Gate("CNOT", target=1, control=2),
        ),
    )
