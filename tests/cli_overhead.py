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

Both ``main`` timings capture stdout and empty the package's caches
before each call, as a fresh process starts. Each sample times one call
on its own clock reading. The file has no ``test_`` prefix, so pytest
does not collect it.

Run from the repository root::

    python tests/cli_overhead.py            # 1000 samples each
    python tests/cli_overhead.py 200
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


def package_caches() -> list:
    """Every lru_cache in the package, emptied before each call of main."""
    return [
        value
        for name, module in sorted(sys.modules.items())
        if name == "dynwalk" or name.startswith("dynwalk.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]


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


if __name__ == "__main__":
    main(sys.argv[1:])
