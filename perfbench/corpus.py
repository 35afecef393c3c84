"""Seeded input corpora for the three benchmark workloads.

Every workload has a fixed-shape base corpus: program ``i`` is drawn from a
generator seeded with the workload name and ``i`` alone, and its size class
(qubits and gate count, or vertex count and planted pattern) is fixed by
``i``. The run seed and the round index then draw, per program, a
relabeling that keeps the program's structure: a qubit permutation for
circuits, a bit permutation plus XOR translation for walks on a
power-of-two vertex count, and any vertex permutation otherwise. They also
draw the order the programs run in and, for ``wide_sim``, the basis state
each simulation starts from.

Why the seed relabels instead of redrawing: the optimizer's per-program
cost is heavy-tailed (coefficient of variation 1.2 to 2 across random
circuits of one size class), so independently drawn corpora of the size
that fits one run differ by 20-35% in total cost from seed to seed.
Relabeling changes every input byte while keeping the size classes fixed.
It still moves single programs' cost by up to 3x, because the optimizer
breaks ties by vertex order, so each round of a run uses its own
relabeling.

Inputs are plain JSON dictionaries built here without importing the
package under test, so the program only ever sees the generated files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

GATE_KINDS = ("X", "Y", "Z", "S", "T", "PHASE", "H", "CNOT", "HLAYER")

# Base corpus strata, cycled in order: (qubits, gates) for circuits.
# circuit_opt: 2-qubit circuits with 3-6 gates, 3- and 4-qubit circuits
# with 2, which already reach 3-5 s per program. On a 2-vCPU x86 machine
# with one BLAS thread, optimize on 3 qubits with 3 gates averages 2.6 s
# with single circuits at 9-18 s, 3 qubits with 6 gates 4 s, and 4 qubits
# with 6 gates runs for minutes: a few such circuits would fill a run.
CIRCUIT_OPT_STRATA = (
    (2, 3), (2, 4), (2, 5), (2, 6),
    (2, 3), (2, 4), (2, 5), (2, 6),
    (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 2), (4, 2),
)
# wide_sim: 9-qubit circuits with 1-3 gates and 10-qubit with 1. Each
# compiled step costs two dense eigh of a 512x512 or 1024x1024 matrix
# (compile check and simulate): about 0.15 s at 9 qubits and 1.1 s at 10.
WIDE_SIM_STRATA = ((9, 1), (9, 2), (9, 3), (9, 1), (9, 2), (10, 1))
WIDE_SIM_HLAYER_MAX = 3
# random_opt: every vertex count from 2 to 8 crossed with five planted
# patterns; the random part has 3-6 steps.
RANDOM_OPT_VERTICES = (2, 3, 4, 5, 6, 7, 8)
RANDOM_OPT_PATTERNS = ("repeat", "flips", "singletons", "edge_loops", "sandwich")

# Programs per second of --seconds. Every program runs once per round and
# the launcher runs three rounds, so a run takes about 0.8 * --seconds on
# a 2-core x86 machine.
NOMINAL_RATE = {"circuit_opt": 1.0, "random_opt": 3.4, "wide_sim": 0.4}
MIN_PROGRAMS = 4


@dataclass(frozen=True)
class Program:
    """One corpus entry: its input document and how to run it."""

    index: int
    stratum: str
    kind: str  # "circuit" or "walk"
    document: dict
    state: Optional[str] = None  # basis label for simulate


def corpus_size(workload: str, seconds: float) -> int:
    return max(MIN_PROGRAMS, round(NOMINAL_RATE[workload] * seconds))


def _angle(num: int, den: int) -> dict:
    return {"pi_num": num, "pi_den": den}


# ---------------------------------------------------------------------------
# Circuits


def _random_gate(rng: random.Random, n_qubits: int, hlayer_max: int) -> dict:
    kinds = GATE_KINDS if n_qubits > 1 else tuple(k for k in GATE_KINDS if k != "CNOT")
    kind = rng.choice(kinds)
    if kind == "CNOT":
        control, target = rng.sample(range(n_qubits), 2)
        return {"kind": "CNOT", "control": control, "target": target}
    if kind == "HLAYER":
        size = rng.randint(1, min(n_qubits, hlayer_max))
        return {"kind": "HLAYER", "targets": sorted(rng.sample(range(n_qubits), size))}
    if kind == "PHASE":
        return {"kind": "PHASE", "target": rng.randrange(n_qubits), "theta": _angle(rng.randint(1, 7), 4)}
    return {"kind": kind, "target": rng.randrange(n_qubits)}


def _relabel_circuit(circuit: dict, perm: Sequence[int]) -> dict:
    gates = []
    for gate in circuit["gates"]:
        moved = dict(gate)
        for key in ("target", "control"):
            if key in moved:
                moved[key] = perm[moved[key]]
        if "targets" in moved:
            moved["targets"] = sorted(perm[q] for q in moved["targets"])
        gates.append(moved)
    return {"n_qubits": circuit["n_qubits"], "gates": gates}


def _circuit_corpus(workload: str, run: str, count: int, strata, hlayer_max: int) -> List[Program]:
    programs = []
    for index in range(count):
        n_qubits, n_gates = strata[index % len(strata)]
        base_rng = random.Random(f"perfbench:{workload}:{index}")
        base = {
            "n_qubits": n_qubits,
            "gates": [_random_gate(base_rng, n_qubits, hlayer_max) for _ in range(n_gates)],
        }
        run_rng = random.Random(f"perfbench:{workload}:{run}:{index}")
        perm = list(range(n_qubits))
        run_rng.shuffle(perm)
        state = None
        if workload == "wide_sim":
            state = "".join(run_rng.choice("01") for _ in range(n_qubits))
        programs.append(
            Program(index, f"q{n_qubits}g{n_gates}", "circuit", _relabel_circuit(base, perm), state)
        )
    return programs


# ---------------------------------------------------------------------------
# Random walk programs


def _step(edges=(), loops=(), quarters: int = 2) -> dict:
    return {
        "edges": sorted(sorted(pair) for pair in edges),
        "loops": sorted(loops),
        "time": _angle(quarters, 4),
    }


def _random_step(rng: random.Random, n: int) -> dict:
    quarters = rng.randint(1, 7)
    shape = rng.randrange(3)
    if shape == 0:
        return _step(loops=rng.sample(range(n), rng.randint(1, n)), quarters=quarters)
    if shape == 1:
        ends = rng.sample(range(n), 2 * rng.randint(1, n // 2))
        return _step(edges=[ends[k : k + 2] for k in range(0, len(ends), 2)], quarters=quarters)
    wanted = min(rng.randint(1, n), n * (n - 1) // 2)
    edges = set()
    while len(edges) < wanted:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return _step(edges=edges, quarters=quarters)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _planted(rng: random.Random, n: int, pattern: str) -> List[dict]:
    """Steps that give one rule something to do."""
    power = _is_power_of_two(n) and n >= 2
    if pattern == "repeat" or (pattern == "sandwich" and not power and n < 4):
        step = _random_step(rng, n)
        return [step, dict(step)]
    if pattern == "flips":
        out = []
        for _ in range(2):
            if power:
                mask = 1 << rng.randrange(n.bit_length() - 1)
                pairs = [(v, v ^ mask) for v in range(n) if v < v ^ mask]
            else:
                ends = rng.sample(range(n), 2 * (n // 2))
                pairs = [ends[k : k + 2] for k in range(0, len(ends), 2)]
            out.append(_step(edges=pairs, quarters=2))
            out.append(_step(loops=range(n), quarters=6))
        return out
    if pattern == "singletons":
        a, b = rng.sample(range(n), 2)
        return [_step(loops=[a], quarters=rng.randint(1, 7)), _step(loops=[b], quarters=rng.randint(1, 7))]
    if pattern == "edge_loops":
        a, b = rng.sample(range(n), 2)
        return [
            _step(edges=[(a, b)], quarters=2),
            _step(loops=range(n), quarters=4),
            _step(loops=[b], quarters=rng.randint(1, 7)),
        ]
    if power:  # sandwich: phase, quarter flip, phase on one bit
        mask = 1 << rng.randrange(n.bit_length() - 1)
        loops = [v for v in range(n) if v & mask]
        pairs = [(v, v ^ mask) for v in range(n) if v < v ^ mask]
        return [_step(loops=loops, quarters=6), _step(edges=pairs, quarters=1), _step(loops=loops, quarters=6)]
    a, b, c, d = rng.sample(range(n), 4)  # two support-disjoint edges
    return [_step(edges=[(a, b)], quarters=rng.randint(1, 7)), _step(edges=[(c, d)], quarters=rng.randint(1, 7))]


def _vertex_relabeling(rng: random.Random, n: int) -> List[int]:
    """A relabeling that keeps XOR structure when n is a power of two."""
    if _is_power_of_two(n):
        bits = list(range(n.bit_length() - 1))
        rng.shuffle(bits)
        shift = rng.randrange(n)
        return [sum(((v >> k) & 1) << bits[k] for k in range(len(bits))) ^ shift for v in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabel_walk(walk: dict, perm: Sequence[int]) -> dict:
    return {
        "n_vertices": walk["n_vertices"],
        "sequence": [
            {
                "edges": sorted(sorted((perm[a], perm[b])) for a, b in step["edges"]),
                "loops": sorted(perm[v] for v in step["loops"]),
                "time": dict(step["time"]),
            }
            for step in walk["sequence"]
        ],
    }


def _walk_corpus(run: str, count: int) -> List[Program]:
    programs = []
    for index in range(count):
        n = RANDOM_OPT_VERTICES[index % len(RANDOM_OPT_VERTICES)]
        pattern = RANDOM_OPT_PATTERNS[(index // len(RANDOM_OPT_VERTICES)) % len(RANDOM_OPT_PATTERNS)]
        base_rng = random.Random(f"perfbench:random_opt:{index}")
        steps = [_random_step(base_rng, n) for _ in range(base_rng.randint(3, 6))]
        at = base_rng.randint(0, len(steps))
        steps[at:at] = _planted(base_rng, n, pattern)
        run_rng = random.Random(f"perfbench:random_opt:{run}:{index}")
        walk = _relabel_walk({"n_vertices": n, "sequence": steps}, _vertex_relabeling(run_rng, n))
        programs.append(Program(index, f"v{n}-{pattern}", "walk", walk))
    return programs


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, seconds: float, round_index: int = 0) -> List[Program]:
    """The corpus of one round of a run, in the order it runs."""
    count = corpus_size(workload, seconds)
    run = f"seed{seed}:round{round_index}"
    if workload == "circuit_opt":
        programs = _circuit_corpus(workload, run, count, CIRCUIT_OPT_STRATA, hlayer_max=4)
    elif workload == "wide_sim":
        programs = _circuit_corpus(workload, run, count, WIDE_SIM_STRATA, WIDE_SIM_HLAYER_MAX)
    elif workload == "random_opt":
        programs = _walk_corpus(run, count)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"perfbench:{workload}:order:{run}").shuffle(programs)
    return programs


def walk_cost(walk: dict) -> Tuple[int, Fraction]:
    """(graph count, total time in units of pi) of a walk document."""
    total = sum((Fraction(s["time"]["pi_num"], s["time"]["pi_den"]) for s in walk["sequence"]), Fraction(0))
    return len(walk["sequence"]), total

