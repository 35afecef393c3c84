"""Time the fixed cost of one ``dynwalk`` call: building the parser, and the whole call.

For each of the six commands the script prints one line with three
medians over the samples:

* the time to build the top-level parser with every command, which any
  call the plain reader refuses pays;
* the wall time of ``cli.main`` running a plain call of the command on a
  2-vertex walk (for ``compile``, on a 1-qubit X circuit, which compiles
  to one), which ``cli._plain_namespace`` reads without a parser;
* the wall time of ``cli.main`` running the same command from a call the
  plain reader refuses (an abbreviated option, or ``--`` before the
  positionals), which goes through the all-command parser.

Given a qubit count q (at least 2), the script then prints one line for
each of five one-gate circuits on q qubits, X, Y, S, CNOT(0→1) and H(0),
with the median wall time of ``cli.main`` compiling the circuit and
simulating the compiled walk from state 0: the path that width pays for
in graph building, away from the benchmark harness.

Every ``main`` timing captures stdout and empties the package's caches
before each call, as a fresh process starts. Each sample times one call
on its own clock reading. The file has no ``test_`` prefix, so pytest
does not collect it.

Run from the repository root::

    python tests/cli_overhead.py            # 1000 samples each
    python tests/cli_overhead.py 200
    python tests/cli_overhead.py 200 9      # and the five circuits on 9 qubits
"""

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src")]

import dynwalk  # noqa: E402
from dynwalk import cli  # noqa: E402
from dynwalk.graph_model import DynamicGraph, Graph, TimedGraph, serialize_dynamic_graph  # noqa: E402

ARGVS = {
    "simulate": ["simulate", "w.json"],
    "unitary": ["unitary", "w.json"],
    "optimize": ["optimize", "w.json", "-o", "o.json"],
    "compile": ["compile", "c.json", "-o", "o.json"],
    "equiv": ["equiv", "w.json", "w.json"],
    "stats": ["stats", "w.json"],
}

# the same calls in spellings the plain reader refuses
REFUSED_ARGVS = {
    "simulate": ["simulate", "w.json", "--st", "0"],
    "unitary": ["unitary", "--", "w.json"],
    "optimize": ["optimize", "w.json", "--out", "o.json"],
    "compile": ["compile", "c.json", "--out", "o.json"],
    "equiv": ["equiv", "--", "w.json", "w.json"],
    "stats": ["stats", "--", "w.json"],
}


# the one-gate circuits timed at a given width
WIDE_GATES = {
    "X": {"kind": "X", "target": 0},
    "Y": {"kind": "Y", "target": 0},
    "S": {"kind": "S", "target": 0},
    "CNOT": {"kind": "CNOT", "control": 0, "target": 1},
    "H": {"kind": "H", "target": 0},
}


def package_caches() -> set:
    """Every lru_cache of the package's modules, each once however many modules import it.

    This script empties them before each call of main, and
    ``optimize_profile.py`` and ``width_ladder.py`` before each profiled
    or timed run, so that each starts cold, as a fresh process does.
    """
    return {
        value
        for name, module in sys.modules.items()
        if name == "dynwalk" or name.startswith("dynwalk.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }


def median_ms(call, samples: int, before=None) -> float:
    times = []
    for _ in range(samples):
        if before is not None:
            before()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def calling(args):
    """A call of cli.main(args) with stdout captured, which fails unless main returns 0."""
    out = io.StringIO()

    def call() -> None:
        with contextlib.redirect_stdout(out):
            if cli.main(args) != 0:
                raise SystemExit(f"{' '.join(args)} failed:\n{out.getvalue()}")
        out.seek(0)
        out.truncate()

    return call


def main(argv) -> None:
    samples = int(argv[0]) if argv else 1000
    qubits = int(argv[1]) if len(argv) > 1 else None
    if qubits is not None and qubits < 2:
        raise SystemExit("the qubit count must be at least 2, for CNOT(0→1)")
    caches = package_caches()

    def clear() -> None:
        for cache in caches:
            cache.cache_clear()

    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        walk = DynamicGraph(2, (TimedGraph(Graph(2, frozenset({(0, 1)})), Fraction(1, 2)),))
        with open("w.json", "w", encoding="utf-8") as handle:
            handle.write(serialize_dynamic_graph(walk))
        with open("c.json", "w", encoding="utf-8") as handle:
            json.dump({"n_qubits": 1, "gates": [{"kind": "X", "target": 0}]}, handle)
        print(f"dynwalk from {os.path.dirname(dynwalk.__file__)}, median of {samples} samples")
        for command, args in ARGVS.items():
            every = median_ms(cli._build_parser, samples)
            plain, refused = (median_ms(calling(argv), samples, before=clear) for argv in (args, REFUSED_ARGVS[command]))
            print(
                f"{command}: every-command parser {every:.3f} ms,"
                f" main {plain:.3f} ms, main through argparse {refused:.3f} ms",
                flush=True,
            )
        for name, gate in WIDE_GATES.items() if qubits else ():
            with open("wide.json", "w", encoding="utf-8") as handle:
                json.dump({"n_qubits": qubits, "gates": [gate]}, handle)
            # each compile call writes the walk that simulate reads
            compiled = median_ms(calling(["compile", "wide.json", "-o", "wide_walk.json"]), samples, before=clear)
            simulated = median_ms(calling(["simulate", "wide_walk.json"]), samples, before=clear)
            print(f"{name} on {qubits} qubits: compile {compiled:.3f} ms, simulate {simulated:.3f} ms", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
