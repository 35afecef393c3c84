"""Time ``optimize`` on the length ladder: random 3-qubit circuits of a given gate count.

For each gate count on the command line, in that order, and each seed
(``--seeds``, 1 by default), the script draws a circuit of that many
gates from X, Y, Z, S, T, H and CNOT on 3 qubits with
``random.Random(seed)``, compiles it and runs ``optimize`` on the walk
once. It prints one line per circuit: the gate count and seed, the
compiled step count, the output's graph count and total time, a short
sha256 of the serialized output walk, so that two trees can be compared
line by line, and the wall time of the ``optimize`` call. Every cache of
the package (``cli_overhead.package_caches``) is emptied before each
call, as in a fresh process. The file has no ``test_`` prefix, so pytest
does not collect it.

Run from the repository root::

    python tests/length_ladder.py 20 40
    python tests/length_ladder.py 80 --seeds 1 2 3
"""

import hashlib
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from cli_overhead import package_caches  # noqa: E402
from dynwalk.gate_compiler import Circuit, Gate, compile_circuit  # noqa: E402
from dynwalk.graph_model import format_angle, serialize_dynamic_graph  # noqa: E402
from dynwalk.rewrite_optimizer import optimize  # noqa: E402

N_QUBITS = 3
KINDS = ("X", "Y", "Z", "S", "T", "H", "CNOT")


def random_circuit(n_gates: int, seed: int) -> Circuit:
    """n_gates gates on N_QUBITS qubits, each kind and its qubits drawn by random.Random(seed)."""
    rng = random.Random(seed)
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(KINDS)
        if kind == "CNOT":
            control, target = rng.sample(range(N_QUBITS), 2)
            gates.append(Gate("CNOT", control=control, target=target))
        else:
            gates.append(Gate(kind, target=rng.randrange(N_QUBITS)))
    return Circuit(N_QUBITS, tuple(gates))


def rung(n_gates: int, seed: int) -> str:
    walk = compile_circuit(random_circuit(n_gates, seed))
    for cache in package_caches():
        cache.cache_clear()
    start = time.perf_counter()
    final, report = optimize(walk)
    seconds = time.perf_counter() - start
    output = hashlib.sha256(serialize_dynamic_graph(final).encode()).hexdigest()[:16]
    return (
        f"{n_gates} gates, seed {seed}: {walk.graph_count} steps -> {report.final_count} graphs"
        f" at {format_angle(report.final_time)}, output {output}, optimize {seconds:.3f} s"
    )


def main(argv) -> None:
    argv = list(argv)
    split = argv.index("--seeds") if "--seeds" in argv else len(argv)
    counts, seeds = argv[:split], argv[split + 1 :] or ["1"]
    if not counts:
        raise SystemExit("usage: python tests/length_ladder.py N_GATES [N_GATES ...] [--seeds SEED [SEED ...]]")
    for n_gates in map(int, counts):
        for seed in map(int, seeds):
            print(rung(n_gates, seed), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
