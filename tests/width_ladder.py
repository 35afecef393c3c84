"""Time the ``compile`` check and ``optimize`` on the width ladder: H(0), CNOT(0->1), X(2), T(1).

For each qubit count on the command line (3 or more), in that order, the
script compiles the four-gate circuit and prints two lines, four with
``--check-only`` from 4 qubits on.

The first is for the check ``compile`` makes of the walk against the
circuit: the wall time of a first run, in which the steps' spectra are
still uncomputed as in a fresh ``compile``, the process's peak RSS after
it, the ``tracemalloc`` peak of a second run, and the ``repr`` of its
phase distance.

The second runs ``optimize`` on the walk twice: once untimed by anything
but the clock, once under ``tracemalloc``. It has the wall time of the
first run, the process's peak RSS after it, the ``tracemalloc`` peak of
the second run, the final graph count and time, the ``repr`` of the
report's phase distance, and a short sha256 of the serialized output
walk, so that two trees can be compared line by line. With
``--check-only`` the script skips ``optimize``, which takes minutes and
gigabytes from 12 qubits on, and instead compiles one H per qubit, whose
union of graphs does not split, and prints the same figures as the first
line for the ``compile`` check and for ``equiv`` of that walk against
itself. Both runs of ``equiv`` start with every cache of the package
empty (``cli_overhead.package_caches``), as a fresh ``equiv`` does. From 4 qubits on, a last line gives
the same figures for both checks of one HLAYER on the first q - 3
qubits, whose walk step is 8 equal 2^(q-3)-vertex cubes that share one
decomposition.

Peak RSS is ``ru_maxrss``, the peak so far, so only the first line of a
process reads its own run alone, and the ``equiv`` line reads at least the
peak of the check before it. The file has no ``test_`` prefix, so
pytest does not collect it.

Run from the repository root, one width per process for clean RSS::

    python tests/width_ladder.py 8 9 10
    python tests/width_ladder.py --check-only 12
"""

import hashlib
import os
import resource
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from cli_overhead import package_caches  # noqa: E402
from dynwalk import walk_engine  # noqa: E402
from dynwalk.gate_compiler import Circuit, Gate, circuit_distance, compile_circuit, mixing_pairs  # noqa: E402
from dynwalk.graph_model import format_angle, serialize_dynamic_graph  # noqa: E402
from dynwalk.rewrite_optimizer import optimize  # noqa: E402

GATES = (
    Gate("H", target=0),
    Gate("CNOT", control=0, target=1),
    Gate("X", target=2),
    Gate("T", target=1),
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def compile_check(circuit: Circuit, walk) -> float:
    """The check of ``dynwalk compile``: the circuit undone on the walk's laid-out unitary."""
    return circuit_distance(circuit, walk_engine.laid_out_unitary(walk, mixing_pairs(circuit)))


def equiv_check(circuit: Circuit, walk) -> float:
    """The check of ``dynwalk equiv`` of the walk against itself, from empty caches."""
    for cache in package_caches():
        cache.cache_clear()
    return walk_engine.run_distance(walk.n_vertices, walk.steps, walk.steps)


def check_rung(label: str, check, circuit: Circuit, walk) -> str:
    start = time.perf_counter()
    distance = check(circuit, walk)
    seconds = time.perf_counter() - start
    rss_mb = peak_rss_mb()
    tracemalloc.start()
    check(circuit, walk)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return (
        f"{label}: {seconds * 1e3:.1f} ms, peak RSS {rss_mb:.0f} MB,"
        f" tracemalloc peak {peak / 2**20:.2f} MiB, phase distance {distance!r}"
    )


def optimize_rung(n_qubits: int, walk) -> str:
    start = time.perf_counter()
    final, report = optimize(walk)
    seconds = time.perf_counter() - start
    rss_mb = peak_rss_mb()
    tracemalloc.start()
    optimize(walk)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    output = hashlib.sha256(serialize_dynamic_graph(final).encode()).hexdigest()[:16]
    return (
        f"{n_qubits} qubits: {seconds:.3f} s, peak RSS {rss_mb:.0f} MB,"
        f" tracemalloc peak {peak / 2**20:.1f} MiB,"
        f" {report.final_count} graphs at {format_angle(report.final_time)},"
        f" phase distance {report.phase_distance!r}, output {output}"
    )


def main(argv) -> None:
    check_only = "--check-only" in argv
    widths = [arg for arg in argv if arg != "--check-only"]
    if not widths:
        raise SystemExit("usage: python tests/width_ladder.py [--check-only] N_QUBITS [N_QUBITS ...]")
    for n_qubits in map(int, widths):
        circuit = Circuit(n_qubits, GATES)
        walk = compile_circuit(circuit)
        print(check_rung(f"{n_qubits} qubits compile check", compile_check, circuit, walk), flush=True)
        if not check_only:
            print(optimize_rung(n_qubits, walk), flush=True)
            continue
        circuit = Circuit(n_qubits, tuple(Gate("H", target=q) for q in range(n_qubits)))
        walk = compile_circuit(circuit)
        for name, check in (("compile check", compile_check), ("equiv", equiv_check)):
            print(check_rung(f"{n_qubits} qubits, one H per qubit, {name}", check, circuit, walk), flush=True)
        if n_qubits > 3:
            circuit = Circuit(n_qubits, (Gate("HLAYER", targets=tuple(range(n_qubits - 3))),))
            walk = compile_circuit(circuit)
            label = f"{n_qubits} qubits, one HLAYER on {n_qubits - 3} targets, compile check"
            rungs = (check_rung(label, compile_check, circuit, walk), check_rung("equiv", equiv_check, circuit, walk))
            print("; ".join(rungs), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
