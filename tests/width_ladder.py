"""Time ``optimize`` on the width ladder: H(0), CNOT(0->1), X(2), T(1) compiled at each width.

For each qubit count on the command line (3 or more), in that order, the
script compiles the four-gate circuit and runs ``optimize`` on it twice:
once untimed by anything but the clock, once under ``tracemalloc``. It
prints one line per width with the wall time of the first run, the
process's peak RSS after it (``ru_maxrss``, the peak so far, so only the
first width of a process reads that width alone), the ``tracemalloc``
peak of the second run, the final graph count and time, the ``repr`` of
the report's phase distance, and a short sha256 of the serialized output
walk, so that two trees can be compared line by line. The file has no
``test_`` prefix, so pytest does not collect it.

Run from the repository root, one width per process for clean RSS::

    python tests/width_ladder.py 8 9 10
"""

import hashlib
import os
import resource
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src")]

from dynwalk.gate_compiler import Circuit, Gate, compile_circuit  # noqa: E402
from dynwalk.graph_model import format_angle, serialize_dynamic_graph  # noqa: E402
from dynwalk.rewrite_optimizer import optimize  # noqa: E402

GATES = (
    Gate("H", target=0),
    Gate("CNOT", control=0, target=1),
    Gate("X", target=2),
    Gate("T", target=1),
)


def rung(n_qubits: int) -> str:
    walk = compile_circuit(Circuit(n_qubits, GATES))
    start = time.perf_counter()
    final, report = optimize(walk)
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
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
    if not argv:
        raise SystemExit("usage: python tests/width_ladder.py N_QUBITS [N_QUBITS ...]")
    for n_qubits in map(int, argv):
        print(rung(n_qubits), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
