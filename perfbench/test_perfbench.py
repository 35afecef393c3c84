"""Tests of the benchmark itself: determinism and the reference check.

Run from the root of a checkout with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import reference  # noqa: E402


def _run(workload: str, seed: int, seconds: float = 1) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.splitlines()
    rows = [json.loads(line[4:]) for line in lines if line.startswith("row ")]
    return {"rows": rows, "result": json.loads(lines[-1])}


@pytest.mark.parametrize("workload", ["circuit_opt", "random_opt", "wide_sim"])
def test_same_seed_gives_byte_identical_inputs_and_outputs(workload):
    first, second = _run(workload, 3), _run(workload, 3)
    assert first["result"]["correct"] and first["result"]["failed"] == 0
    assert [row["sha256"] for row in first["rows"]] == [row["sha256"] for row in second["rows"]]
    for name in ("final_time_pi", "final_graphs"):
        assert first["result"]["metrics"][name] == second["result"]["metrics"][name]


def test_corpus_depends_on_the_seed_only():
    for workload in ("circuit_opt", "random_opt", "wide_sim"):
        a = [p.document for p in corpus.build(workload, 5, 4)]
        assert a == [p.document for p in corpus.build(workload, 5, 4)]
        assert a != [p.document for p in corpus.build(workload, 6, 4)]


def test_relabeling_keeps_the_size_class():
    base = sorted((p.index, p.stratum) for p in corpus.build("random_opt", 1, 3))
    assert base == sorted((p.index, p.stratum) for p in corpus.build("random_opt", 2, 3))


def _bell() -> dict:
    return {"n_qubits": 2, "gates": [{"kind": "H", "target": 0}, {"kind": "CNOT", "control": 0, "target": 1}]}


def test_reference_circuit_matrix_matches_hand_computed_bell_circuit():
    r = 1 / math.sqrt(2)
    expected = np.array([[r, 0, r, 0], [0, r, 0, r], [0, r, 0, -r], [r, 0, -r, 0]])
    assert reference.aligned_distance(expected, reference.circuit_matrix(_bell())) < 1e-15


def test_reference_walk_matrix_ignores_global_phase_but_not_a_small_phase_error():
    flip = {"edges": [[v, v + 1] for v in range(0, 8, 2)], "loops": [], "time": {"pi_num": 1, "pi_den": 2}}
    u = reference.walk_matrix({"n_vertices": 8, "sequence": [flip]})
    x = np.eye(8)[[v ^ 1 for v in range(8)]]
    assert reference.aligned_distance(x, u) < 1e-12  # -i X on the last bit
    skewed = u.copy()
    skewed[:, 5] *= np.exp(1e-4j)  # 1e-4 rad on one of 8 vertices
    assert reference.aligned_distance(u, skewed) > reference.TOLERANCE


def test_parse_amplitudes_reads_simulate_output():
    lines = ["|00>  1e-05+2e-06i", "|01>  -0.5-0.5i", "|10>  0+0i", "|11>  0.7-1.2e-16i", "norm 1 (deviation 0)"]
    psi = reference.parse_amplitudes(lines, 4)
    assert psi[0] == complex(1e-5, 2e-6) and psi[1] == complex(-0.5, -0.5) and psi[3].real == 0.7
    with pytest.raises(ValueError):
        reference.parse_amplitudes(lines[:2], 4)
