"""Print one sha256 over the optimizer's outputs on the 603-program corpus.

The corpus is ``random_walk`` and the compiled ``random_circuit`` of
``test_rewrite_optimizer`` at ``random.Random(seed)`` for seeds 0-299,
or for seeds 0 to k - 1 with a seed count k given on the command line,
plus ``long_program()``, ``short_program()`` and the criterion-09
program. For each, in that order, the digest reads the serialized
``optimize`` output, its report's ``to_dict()`` and the ``repr`` of the
report's phase distance, so two trees that print the same digest
optimized every program identically, down to the last bit of the final
check. Under the digest it prints the final total time and graph count
of the whole corpus, then of the random walks, of the compiled circuits
and of the three named programs: the totals an output-quality change is
gated on. Then comes a sha256 over the serialized
``compile_hadamard_layer(targets, q)`` for q = 1..10 and every set of
one to three target qubits, so that two trees that print the same line
compile every such Hadamard layer identically. The next line is a sha256
over the stdout and exit code of ``simulate``, run through ``cli.main``
from basis state 0, on every compiled circuit of the corpus, each written
to a walk file first: two trees that print the same line write, parse,
simulate and print those walks identically. The ninth line is a sha256 over
the serialized ``compile_circuit(c, parallel_hadamards=True)`` of every
corpus circuit c, the circuits compiled above with each run of adjacent
Hadamards on distinct qubits fused into one layer: two trees that print
the same line compile those circuits identically on the fused path. The
last line is a sha256 over ``spectrum`` of every distinct graph of the
corpus's input and output walks, in the order first seen: the shape,
dtype and bytes of ``looped`` and of each block's members, eigenvalues
and eigenvectors, then ``repr`` of the norm, so two trees that print the
same line decompose those graphs bit for bit alike. The file has no
``test_`` prefix, so pytest does not collect it.

Run from the repository root::

    python tests/corpus_digest.py       # seeds 0-299, the 603-program corpus
    python tests/corpus_digest.py 2     # seeds 0-1, 7 programs
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import catalog  # noqa: E402
import trace_fixtures as tf  # noqa: E402
from dynwalk.cli import main as cli_main  # noqa: E402
from dynwalk.gate_compiler import compile_circuit, compile_hadamard_layer  # noqa: E402
from dynwalk.graph_model import format_angle, serialize_dynamic_graph, spectrum  # noqa: E402
from dynwalk.rewrite_optimizer import optimize  # noqa: E402
from test_rewrite_optimizer import random_circuit, random_walk  # noqa: E402

SEEDS = 300


def corpus(seeds: int = SEEDS):
    """(part, walk) for every program, in digest order, the random ones at seeds 0 .. seeds - 1."""
    for seed in range(seeds):
        yield "random walks", random_walk(random.Random(seed))
        yield "compiled circuits", compile_circuit(random_circuit(random.Random(seed)))
    yield "named programs", tf.long_program()
    yield "named programs", tf.short_program()
    yield "named programs", catalog.reconstruct(tf.LONG_TRACE).program()


def layer_digest() -> str:
    """sha256 over the serialized Hadamard layers on 1-10 qubits with 1-3 targets."""
    digest = hashlib.sha256()
    for n_qubits in range(1, 11):
        for size in range(1, 4):
            for targets in itertools.combinations(range(n_qubits), size):
                digest.update(serialize_dynamic_graph(compile_hadamard_layer(targets, n_qubits)).encode())
    return digest.hexdigest()


def simulate_digest(seeds: int = SEEDS) -> str:
    """sha256 over simulate's exit code and stdout from state 0, through cli.main, per compiled circuit."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "walk.json")
        for part, walk in corpus(seeds):
            if part != "compiled circuits":
                continue
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(serialize_dynamic_graph(walk))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["simulate", path, "--state", "0"])
            digest.update(f"{code}\n".encode())
            digest.update(out.getvalue().encode())
    return digest.hexdigest()


def fused_digest(seeds: int = SEEDS) -> str:
    """sha256 over the serialized compile_circuit(c, parallel_hadamards=True) of each corpus circuit c."""
    digest = hashlib.sha256()
    for seed in range(seeds):
        fused = compile_circuit(random_circuit(random.Random(seed)), parallel_hadamards=True)
        digest.update(serialize_dynamic_graph(fused).encode())
    return digest.hexdigest()


def spectrum_digest(graphs) -> str:
    """sha256 over the spectrum of each graph: shape, dtype and bytes of every array, then repr of the norm."""
    digest = hashlib.sha256()
    for graph in graphs:
        spec = spectrum(graph)
        for array in (spec.looped, *(array for members, pair in spec.blocks for array in (members, *pair))):
            digest.update(f"{array.shape} {array.dtype.str}\n".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(repr(spec.norm).encode())
    return digest.hexdigest()


def main(argv=()) -> None:
    seeds = int(argv[0]) if argv else SEEDS
    digest = hashlib.sha256()
    totals = {"corpus": (0, Fraction(0), 0)}
    distinct = {}
    start = time.perf_counter()
    for part, walk in corpus(seeds):
        final, report = optimize(walk)
        distinct.update(dict.fromkeys(step.graph for step in walk.steps + final.steps))
        digest.update(serialize_dynamic_graph(final).encode())
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
        digest.update(repr(report.phase_distance).encode())
        for key in (part, "corpus"):
            programs, time_pi, graphs = totals.get(key, (0, Fraction(0), 0))
            totals[key] = programs + 1, time_pi + final.total_time(), graphs + final.graph_count
    print(f"{totals['corpus'][0]} programs in {time.perf_counter() - start:.1f} s")
    print(f"sha256 {digest.hexdigest()}")
    for part, (programs, time_pi, graphs) in totals.items():
        print(f"{part}: {programs} programs, final time {format_angle(time_pi)}, {graphs} graphs")
    print(f"hadamard layers, 1-10 qubits, 1-3 targets: sha256 {layer_digest()}")
    print(f"simulate, compiled circuits from state 0: sha256 {simulate_digest(seeds)}")
    print(f"compile with parallel Hadamards, corpus circuits: sha256 {fused_digest(seeds)}")
    print(f"spectra of {len(distinct)} distinct input and output graphs: sha256 {spectrum_digest(distinct)}")


if __name__ == "__main__":
    main(sys.argv[1:])
