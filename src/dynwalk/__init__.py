"""Continuous-time quantum walks on dynamic graphs.

A walk program is a sequence of (graph, duration) steps; each step evolves
amplitudes under exp(-i A t / ||A||) for the graph's adjacency matrix A.
The package simulates such programs, compiles qubit circuits into them,
and simplifies them with a set of numerically verified rewrite rules.
"""

from .graph_model import (
    DynamicGraph,
    Graph,
    ParseError,
    TimedGraph,
    parse_dynamic_graph,
    period,
    serialize_dynamic_graph,
)
from .gate_compiler import (
    Circuit,
    Gate,
    circuit_unitary,
    compile_circuit,
    compile_gate,
    compile_hadamard_layer,
    parse_circuit,
    schedule_phases,
)
from .numerics import phase_distance
from .rewrite_optimizer import (
    ALL_RULES,
    OptimizationReport,
    RewriteStep,
    optimize,
)
from .walk_engine import evolve_state, step_unitary, total_unitary

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Graph",
    "TimedGraph",
    "DynamicGraph",
    "ParseError",
    "period",
    "parse_dynamic_graph",
    "serialize_dynamic_graph",
    "phase_distance",
    "step_unitary",
    "total_unitary",
    "evolve_state",
    "Gate",
    "Circuit",
    "parse_circuit",
    "schedule_phases",
    "compile_hadamard_layer",
    "compile_gate",
    "compile_circuit",
    "circuit_unitary",
    "ALL_RULES",
    "RewriteStep",
    "OptimizationReport",
    "optimize",
]
