"""Continuous-time quantum walks on dynamic graphs.

A walk program is a sequence of (graph, duration) steps; each step evolves
amplitudes under exp(-i A t / ||A||) for the graph's adjacency matrix A.
The package simulates such programs, compiles qubit circuits into them,
and simplifies them with a set of numerically verified rewrite rules.

Each public name is imported from the one submodule that defines it:
``graph_model`` (graphs, durations, the JSON format), ``numerics`` (phase
distances), ``walk_engine`` (unitaries and state evolution),
``gate_compiler`` (circuits and their walk programs),
``rewrite_optimizer`` (the rewrite rules and ``optimize``) and ``cli``
(the ``dynwalk`` command).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
