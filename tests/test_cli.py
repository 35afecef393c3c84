"""End-to-end command tests driving main() with real files."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynwalk.cli as cli
from dynwalk.cli import main
from dynwalk.gate_compiler import (
    Circuit,
    Gate,
    _matching,
    _pairs,
    circuit_unitary,
    compile_circuit,
    compile_hadamard_layer,
    parse_circuit,
)
from dynwalk.graph_model import (
    DynamicGraph,
    Graph,
    TimedGraph,
    parse_dynamic_graph,
    serialize_dynamic_graph,
)
from dynwalk.numerics import phase_distance
from dynwalk.walk_engine import evolve_state, total_unitary

AMPLITUDE = re.compile(r"([+-]?[\d.]+(?:[eE][+-]?\d+)?)([+-][\d.]+(?:[eE][+-]?\d+)?)i")


def parse_amplitude(text):
    m = AMPLITUDE.fullmatch(text.strip())
    assert m, f"not an amplitude: {text!r}"
    return complex(float(m.group(1)), float(m.group(2)))


def write_walk(path, walk):
    path.write_text(serialize_dynamic_graph(walk))
    return str(path)


def bit_flip_walk(n_vertices=2):
    mask = 1
    return DynamicGraph(
        n_vertices,
        (
            TimedGraph(_matching(n_vertices, _pairs(n_vertices, mask)), Fraction(1, 2)),
            TimedGraph(Graph(n_vertices, loops=frozenset(range(n_vertices))), Fraction(3, 2)),
        ),
    )


def double_flip_walk():
    return DynamicGraph(
        4,
        (
            TimedGraph(_matching(4, _pairs(4, 2)), Fraction(1, 2)),
            TimedGraph(Graph(4, loops=frozenset(range(4))), Fraction(3, 2)),
            TimedGraph(_matching(4, _pairs(4, 1)), Fraction(1, 2)),
            TimedGraph(Graph(4, loops=frozenset(range(4))), Fraction(3, 2)),
        ),
    )


def identity_walk(n_vertices=2):
    return DynamicGraph(n_vertices, ())


# -- simulate -------------------------------------------------------------------


def test_simulate_default_state(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "x.json", bit_flip_walk())
    assert main(["simulate", walk_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("|0>")
    assert lines[1].startswith("|1>")
    amp0 = parse_amplitude(lines[0].split(maxsplit=1)[1])
    amp1 = parse_amplitude(lines[1].split(maxsplit=1)[1])
    assert abs(amp0) < 1e-9
    assert abs(amp1 - 1.0) < 1e-9
    assert lines[2].startswith("norm 1 (deviation")


def test_simulate_bitstring_state(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "hold.json", identity_walk(4))
    assert main(["simulate", walk_file, "--state", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "|10>  1+0i"


def test_simulate_bra_ket_state(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "hold.json", identity_walk(2))
    assert main(["simulate", walk_file, "--state", "|1>"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "|1>  1+0i"


def test_simulate_index_state(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "hold.json", identity_walk(3))
    assert main(["simulate", walk_file, "--state", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "|2>  1+0i"


def test_simulate_amplitude_file(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "hold.json", identity_walk(2))
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps([[0.6, 0.0], [0.0, 0.8]]))
    assert main(["simulate", walk_file, "--state", str(state_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert parse_amplitude(lines[0].split(maxsplit=1)[1]) == pytest.approx(0.6)
    assert parse_amplitude(lines[1].split(maxsplit=1)[1]) == pytest.approx(0.8j)


@pytest.mark.parametrize(
    "state",
    ["nope", "9", "101",],
)
def test_simulate_bad_state_exits_2(tmp_path, capsys, state):
    walk_file = write_walk(tmp_path / "hold.json", identity_walk(2))
    assert main(["simulate", walk_file, "--state", state]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_bad_amplitude_file(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "hold.json", identity_walk(2))
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps([[0.6, 0.0]]))
    assert main(["simulate", walk_file, "--state", str(state_file)]) == 2
    assert "expected a list of 2" in capsys.readouterr().err


# json reads all of these; an int past the float range is no amplitude either
@pytest.mark.parametrize(
    "spelling", ["NaN", "Infinity", "1e400", "1" + "0" * 400], ids=["NaN", "Infinity", "1e400", "10**400"]
)
def test_simulate_refuses_non_finite_amplitudes(tmp_path, capsys, spelling):
    walk_file = write_walk(tmp_path / "hold.json", identity_walk(2))
    state_file = tmp_path / "state.json"
    state_file.write_text(f"[[1, 0], [{spelling}, 0]]")
    assert main(["simulate", walk_file, "--state", str(state_file)]) == 2
    assert "entry 1 is not an [re, im] pair of finite numbers" in capsys.readouterr().err


def reference_simulate_stdout(walk, state):
    """What simulate printed one f-string line at a time: the reference for its single formatted chunk."""
    n = walk.n_vertices

    def label(index):
        if n >= 2 and n & (n - 1) == 0:
            return format(index, f"0{n.bit_length() - 1}b")
        return str(index)

    final = evolve_state(walk, state)
    lines = [f"|{label(i)}>  {amp.real:.12g}{amp.imag:+.12g}i" for i, amp in enumerate(final)]
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(final))
    if norm == np.inf:
        # the squares overflow: scale by the largest part, then scale back
        scale = max(abs(part) for amp in final.tolist() for part in (amp.real, amp.imag))
        norm = scale * float(np.linalg.norm(final / scale))
    lines.append(f"norm {norm:.12g} (deviation {abs(norm - 1.0):.3e})")
    return "".join(line + "\n" for line in lines)


# signed zeros, the smallest subnormal, a huge value, and values that round
# at the 12th significant digit, in either part and either sign
EDGE_AMPLITUDES = [
    [-0.0, 0.0],
    [5e-324, -0.0],
    [1e300, -5e-324],
    [0.99999999999951, -1 / 3],
    [0.1234567890125, 1.0000000000005],
    [-2.5e-13, 9.9999999999995e-05],
    [1 / 3, -0.99999999999951],
    [0.0, -1e-300],
]


@pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
def test_simulate_prints_the_reference_bytes_for_an_amplitude_file(tmp_path, capsys, n):
    pairs = EDGE_AMPLITUDES[:n]
    walk_file = write_walk(tmp_path / "hold.json", identity_walk(n))
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(pairs))
    assert main(["simulate", walk_file, "--state", str(state_file)]) == 0
    out = capsys.readouterr().out
    state = np.array([complex(re, im) for re, im in pairs])
    assert out == reference_simulate_stdout(identity_walk(n), state)
    first_label = {1: "0", 2: "0", 4: "00", 6: "0", 8: "000"}[n]
    assert out.startswith(f"|{first_label}>  -0+0i\n")
    if n >= 3:
        assert "  4.94065645841e-324-0i\n" in out and "  1e+300-4.94065645841e-324i\n" in out
        # the squared modulus of 1e300 overflows, but the norm does not
        assert out.endswith("\nnorm 1e+300 (deviation 1.000e+300)\n")


@pytest.mark.parametrize("q", range(1, 13))
def test_basis_labels_are_the_formatted_bits(q):
    n = 2**q
    assert cli._basis_labels(n) == [format(index, f"0{q}b") for index in range(n)]


@pytest.mark.parametrize("n", [0, 1, 3, 5, 6, 7, 12, 100, 513])
def test_basis_labels_of_other_sizes_are_indices(n):
    assert cli._basis_labels(n) == [str(index) for index in range(n)]


@pytest.mark.parametrize(
    "pairs, norm_line",
    [
        ([[1e200, 0.0], [0.0, -1e200]], "norm 1.41421356237e+200 (deviation 1.414e+200)"),
        ([[1.7e308, 1.7e308]], "norm inf (deviation inf)"),
    ],
)
def test_simulate_norm_overflows_only_past_the_float_range(tmp_path, capsys, pairs, norm_line):
    walk_file = write_walk(tmp_path / "hold.json", identity_walk(len(pairs)))
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(pairs))
    assert main(["simulate", walk_file, "--state", str(state_file)]) == 0
    assert capsys.readouterr().out.endswith(f"\n{norm_line}\n")


@pytest.mark.parametrize(
    "walk, state",
    [
        (bit_flip_walk(), "0"),
        (double_flip_walk(), "01"),
        (bit_flip_walk(6), "5"),
        (compile_hadamard_layer((0, 2), 3), "0"),
        (compile_circuit(Circuit(4, (Gate("H", 0), Gate("CNOT", 1, control=0), Gate("T", 3)))), "0110"),
    ],
    ids=["2", "4", "6", "8-hlayer", "16-circuit"],
)
def test_simulate_prints_the_reference_bytes_for_a_basis_state(tmp_path, capsys, walk, state):
    walk_file = write_walk(tmp_path / "walk.json", walk)
    assert main(["simulate", walk_file, "--state", state]) == 0
    basis = np.zeros(walk.n_vertices, dtype=np.complex128)
    basis[int(state, 2) if walk.n_vertices == 2 ** len(state) else int(state)] = 1.0
    assert capsys.readouterr().out == reference_simulate_stdout(walk, basis)


# -- unitary --------------------------------------------------------------------


CELL = re.compile(r"(-?\d+\.\d{12})([+-]\d+\.\d{12})i")


def parse_matrix(rows):
    out = []
    for row in rows:
        cells = []
        for cell in row.split(","):
            m = CELL.fullmatch(cell)
            assert m, f"bad cell {cell!r}"
            cells.append(complex(float(m.group(1)), float(m.group(2))))
        out.append(cells)
    return np.array(out)


def test_unitary_stdout(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "x.json", bit_flip_walk())
    assert main(["unitary", walk_file]) == 0
    rows = capsys.readouterr().out.splitlines()
    u = parse_matrix(rows)
    assert np.abs(u - np.array([[0, 1], [1, 0]])).max() < 1e-9


def test_unitary_csv(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "x.json", bit_flip_walk())
    csv_file = tmp_path / "u.csv"
    assert main(["unitary", walk_file, "--csv", str(csv_file)]) == 0
    out = capsys.readouterr().out
    assert f"wrote 2x2 unitary to {csv_file}" in out
    u = parse_matrix(csv_file.read_text().splitlines())
    assert np.abs(u - np.array([[0, 1], [1, 0]])).max() < 1e-9


def test_unitary_csv_matches_the_formatted_matrix_byte_for_byte(tmp_path, capsys):
    # three qubits: a Hadamard layer on qubits 0 and 2, then a path walk
    walk = DynamicGraph(
        8,
        compile_hadamard_layer((0, 2), 3).steps
        + (TimedGraph(Graph.make(8, edges=[(0, 1), (1, 2), (2, 3)]), Fraction(1, 3)),),
    )
    walk_file = write_walk(tmp_path / "w.json", walk)
    csv_file = tmp_path / "u.csv"
    assert main(["unitary", walk_file, "--csv", str(csv_file)]) == 0
    assert capsys.readouterr().out == f"wrote 8x8 unitary to {csv_file}\n"
    expected = "".join(
        ",".join(f"{cell.real:.12f}{cell.imag:+.12f}i" for cell in row) + "\n"
        for row in total_unitary(walk)
    )
    assert csv_file.read_bytes() == expected.encode("utf-8")
    assert main(["unitary", walk_file]) == 0
    assert capsys.readouterr().out == expected


class NullWriter(io.TextIOBase):
    """A text stream that keeps nothing it is given."""

    def write(self, text):
        return len(text)


def test_unitary_streams_its_rows_to_stdout(tmp_path, monkeypatch):
    """At 1024 vertices the formatted rows take about 32 MiB, twice the 16 MiB unitary: none is held past its print."""
    walk = compile_circuit(Circuit(10, (Gate("H", target=0), Gate("CNOT", control=0, target=1))))
    walk_file = write_walk(tmp_path / "wide.json", walk)
    monkeypatch.setattr(sys, "stdout", NullWriter())
    tracemalloc.start()
    try:
        assert main(["unitary", walk_file]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * walk.n_vertices**2 * np.dtype(np.complex128).itemsize


def test_unitary_rows_format_signed_zeros_and_tiny_entries_like_the_f_string():
    parts = [0.0, -0.0, 1e-13, -1e-13, 0.5, -0.7071067811865476, 1.0]
    square = np.empty((len(parts), len(parts)), dtype=np.complex128)
    square.real = np.array(parts)[:, None]
    square.imag = np.array(parts)[None, :]
    # the transpose is not C-contiguous
    for matrix in (square, square.T):
        expected = [",".join(f"{cell.real:.12f}{cell.imag:+.12f}i" for cell in row) for row in matrix]
        assert list(cli._unitary_rows(matrix)) == expected
    row = next(cli._unitary_rows(square[1:]))
    assert row.startswith("-0.000000000000+0.000000000000i,-0.000000000000-0.000000000000i,")


# -- optimize -------------------------------------------------------------------


def test_optimize_writes_output_and_report(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "in.json", double_flip_walk())
    out_file = tmp_path / "out.json"
    report_file = tmp_path / "report.json"
    code = main(
        ["optimize", walk_file, "-o", str(out_file), "--report", str(report_file)]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "graphs 4 -> 2"
    assert lines[1].startswith("time 4π -> 2π")
    assert lines[2] == "rewrites applied: 1"
    assert lines[3].startswith("phase distance to input:")
    assert lines[4] == f"wrote {out_file}"

    simplified = parse_dynamic_graph(out_file.read_text())
    assert simplified.graph_count == 2
    assert simplified.total_time() == Fraction(2, 1)

    report = json.loads(report_file.read_text())
    assert report["verified"] is True
    assert report["rejected"] == []
    assert report["initial"]["graphs"] == 4
    assert report["final"]["graphs"] == 2
    assert report["input"] == walk_file
    assert report["output"] == str(out_file)
    assert report["phase_distance"] < 1e-9
    assert [r["rule"] for r in report["rewrites"]] == ["COMBINE_PST"]


def test_optimize_pass_subset(tmp_path, capsys):
    walk = DynamicGraph(
        4,
        (
            TimedGraph(_matching(4, _pairs(4, 1)), Fraction(1, 2)),
            TimedGraph(_matching(4, _pairs(4, 1)), Fraction(1, 2)),
        ),
    )
    walk_file = write_walk(tmp_path / "in.json", walk)
    out_file = tmp_path / "out.json"
    assert main(["optimize", walk_file, "-o", str(out_file), "--passes", "MERGE_IDENTICAL"]) == 0
    simplified = parse_dynamic_graph(out_file.read_text())
    assert simplified.graph_count == 1


def test_optimize_empty_pass_list_exits_2(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "in.json", bit_flip_walk())
    out_file = tmp_path / "out.json"
    assert main(["optimize", walk_file, "-o", str(out_file), "--passes", ","]) == 2
    assert "--passes needs at least one rule name" in capsys.readouterr().err
    assert not out_file.exists()


def test_optimize_unwritable_output_exits_2(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "in.json", bit_flip_walk())
    out_file = tmp_path / "missing" / "out.json"
    assert main(["optimize", walk_file, "-o", str(out_file)]) == 2
    assert f"cannot write {out_file}" in capsys.readouterr().err


def test_optimize_unknown_pass_exits_2(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "in.json", bit_flip_walk())
    out_file = tmp_path / "out.json"
    assert main(["optimize", walk_file, "-o", str(out_file), "--passes", "BOGUS"]) == 2
    err = capsys.readouterr().err
    assert "unknown passes BOGUS" in err
    assert not out_file.exists()


def test_optimize_max_iter_caps_rewrites(tmp_path, capsys):
    steps = tuple(
        TimedGraph(Graph.make(2, loops=[0]), Fraction(1, 2)) for _ in range(4)
    )
    walk_file = write_walk(tmp_path / "in.json", DynamicGraph(2, steps))
    out_file = tmp_path / "out.json"
    assert main(["optimize", walk_file, "-o", str(out_file), "--max-iter", "1"]) == 0
    assert parse_dynamic_graph(out_file.read_text()).graph_count == 3


def test_optimize_negative_max_iter_exits_2(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "in.json", bit_flip_walk())
    out_file = tmp_path / "out.json"
    report_file = tmp_path / "report.json"
    argv = ["optimize", walk_file, "-o", str(out_file), "--report", str(report_file)]
    assert main(argv + ["--max-iter", "-3"]) == 2
    assert "--max-iter must be 0 or more" in capsys.readouterr().err
    assert not out_file.exists() and not report_file.exists()
    assert main(argv + ["--max-iter", "0"]) == 0
    assert parse_dynamic_graph(out_file.read_text()).graph_count == bit_flip_walk().graph_count


def test_optimize_reports_stop_reason(tmp_path, capsys):
    steps = tuple(
        TimedGraph(Graph.make(2, loops=[0]), Fraction(1, 2)) for _ in range(4)
    )
    walk_file = write_walk(tmp_path / "in.json", DynamicGraph(2, steps))
    out_file = tmp_path / "out.json"
    report_file = tmp_path / "report.json"
    argv = ["optimize", walk_file, "-o", str(out_file), "--report", str(report_file)]
    assert main(argv + ["--max-iter", "1"]) == 0
    assert "stop reason: iteration cap" in capsys.readouterr().out.splitlines()
    assert json.loads(report_file.read_text())["stop_reason"] == "iteration cap"
    assert main(argv) == 0
    assert "stop reason: fixpoint" in capsys.readouterr().out.splitlines()
    assert json.loads(report_file.read_text())["stop_reason"] == "fixpoint"


def test_optimize_verification_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dynwalk.rewrite_optimizer.run_distance", lambda n, first, second: 1.0)
    walk_file = write_walk(tmp_path / "in.json", double_flip_walk())
    out_file = tmp_path / "out.json"
    assert main(["optimize", walk_file, "-o", str(out_file)]) == 1
    out = capsys.readouterr().out
    assert "verification FAILED" in out


def test_optimize_verification_failure_writes_no_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dynwalk.rewrite_optimizer.run_distance", lambda n, first, second: 1.0)
    walk_file = write_walk(tmp_path / "in.json", double_flip_walk())
    out_file = tmp_path / "out.json"
    report_file = tmp_path / "report.json"
    argv = ["optimize", walk_file, "-o", str(out_file), "--report", str(report_file)]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verification FAILED, not writing output"
    assert f"wrote {out_file}" not in lines
    assert not out_file.exists()
    report = json.loads(report_file.read_text())
    assert report["verified"] is False
    assert report["output"] is None
    assert report["phase_distance"] == 1.0


# -- compile --------------------------------------------------------------------


def write_circuit(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_compile_single_gate(tmp_path, capsys):
    circuit_file = write_circuit(
        tmp_path / "c.json", {"n_qubits": 1, "gates": [{"kind": "X", "target": 0}]}
    )
    out_file = tmp_path / "walk.json"
    assert main(["compile", circuit_file, "-o", str(out_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 gates -> 2 graphs, total time 2π (6.2832)"
    assert lines[1].startswith("phase distance to circuit unitary:")
    assert lines[2] == f"wrote {out_file}"
    walk = parse_dynamic_graph(out_file.read_text())
    assert walk.graph_count == 2


def test_compile_empty_circuit_writes_an_empty_walk(tmp_path, capsys):
    circuit_file = write_circuit(tmp_path / "c.json", {"n_qubits": 2, "gates": []})
    out_file = tmp_path / "walk.json"
    assert main(["compile", circuit_file, "-o", str(out_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0 gates -> 0 graphs, total time 0 (0.0000)"
    assert lines[1] == "phase distance to circuit unitary: 0.000e+00"
    walk = parse_dynamic_graph(out_file.read_text())
    assert (walk.n_vertices, walk.graph_count) == (4, 0)


def test_compile_parallel_h_flag(tmp_path, capsys):
    payload = {
        "n_qubits": 2,
        "gates": [{"kind": "H", "target": 0}, {"kind": "H", "target": 1}],
    }
    circuit_file = write_circuit(tmp_path / "c.json", payload)
    plain_out = tmp_path / "plain.json"
    fused_out = tmp_path / "fused.json"
    assert main(["compile", circuit_file, "-o", str(plain_out)]) == 0
    assert main(["compile", circuit_file, "-o", str(fused_out), "--parallel-h"]) == 0
    capsys.readouterr()
    assert parse_dynamic_graph(plain_out.read_text()).graph_count == 6
    assert parse_dynamic_graph(fused_out.read_text()).graph_count == 5
    assert main(["equiv", str(plain_out), str(fused_out)]) == 0


def test_compile_from_128_vertices_prints_the_dense_distance(tmp_path, capsys):
    # the check runs on an n x c layout here; its distance is the dense one's
    payload = {
        "n_qubits": 8,
        "gates": [
            {"kind": "H", "target": 0},
            {"kind": "CNOT", "control": 0, "target": 5},
            {"kind": "T", "target": 5},
            {"kind": "Y", "target": 7},
        ],
    }
    circuit_file = write_circuit(tmp_path / "c.json", payload)
    out_file = tmp_path / "walk.json"
    assert main(["compile", circuit_file, "-o", str(out_file)]) == 0
    printed = float(capsys.readouterr().out.splitlines()[1].rsplit(" ", 1)[1])
    walk = parse_dynamic_graph(out_file.read_text())
    circuit = parse_circuit(json.dumps(payload))
    expected = phase_distance(total_unitary(walk), circuit_unitary(circuit))
    assert abs(printed - expected) < 1e-13


def test_no_command_checks_a_graph_twice(tmp_path, capsys, monkeypatch):
    """The parser, the compiler and the optimizer build their graphs unchecked, so Graph.__post_init__ never runs."""
    payload = {
        "n_qubits": 3,
        "gates": [
            {"kind": "H", "target": 0},
            {"kind": "CNOT", "control": 0, "target": 2},
            {"kind": "X", "target": 1},
            {"kind": "S", "target": 2},
            {"kind": "Y", "target": 0},
            {"kind": "HLAYER", "targets": [1, 2]},
            {"kind": "X", "target": 1},
        ],
    }
    circuit_file = write_circuit(tmp_path / "c.json", payload)
    walk_file, optimized_file = str(tmp_path / "w.json"), str(tmp_path / "o.json")
    checks = []
    monkeypatch.setattr(Graph, "__post_init__", lambda graph: checks.append(graph))
    for argv in (
        ["compile", circuit_file, "-o", walk_file],
        ["compile", circuit_file, "-o", walk_file, "--parallel-h"],
        ["simulate", walk_file],
        ["optimize", walk_file, "-o", optimized_file],
        ["equiv", walk_file, optimized_file],
        ["unitary", optimized_file],
        ["stats", optimized_file],
    ):
        assert main(argv) == 0
    assert "rewrites" in capsys.readouterr().out
    assert checks == []


def test_compile_bad_circuit_exits_2(tmp_path, capsys):
    circuit_file = tmp_path / "c.json"
    circuit_file.write_text('{"n_qubits": 1, "gates": [{"kind": "WAT", "target": 0}]}')
    out_file = tmp_path / "walk.json"
    assert main(["compile", str(circuit_file), "-o", str(out_file)]) == 2
    assert "gates[0].kind" in capsys.readouterr().err
    assert not out_file.exists()


def test_oversized_inputs_exit_2(tmp_path, capsys):
    circuit_file = tmp_path / "c.json"
    circuit_file.write_text('{"n_qubits": 40, "gates": [{"kind": "H", "target": 0}]}')
    assert main(["compile", str(circuit_file), "-o", str(tmp_path / "walk.json")]) == 2
    assert "n_qubits: must be at most" in capsys.readouterr().err
    walk_file = tmp_path / "w.json"
    walk_file.write_text('{"n_vertices": 1099511627776, "sequence": []}')
    assert main(["simulate", str(walk_file)]) == 2
    assert "n_vertices: must be at most" in capsys.readouterr().err


def huge_time_walk(tmp_path, pi_num, pi_den):
    step = {"edges": [[0, 1]], "loops": [], "time": {"pi_num": pi_num, "pi_den": pi_den}}
    walk_file = tmp_path / "w.json"
    walk_file.write_text(json.dumps({"n_vertices": 2, "sequence": [step]}))
    return str(walk_file)


@pytest.mark.parametrize("command", ["stats", "simulate"])
def test_a_time_too_large_for_a_float_exits_2(tmp_path, capsys, command):
    walk_file = huge_time_walk(tmp_path, 2**1100, 1)
    assert main([command, walk_file]) == 2
    assert "sequence[0].time: time in radians is not a finite float" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "simulate"])
def test_a_denominator_beyond_the_float_range_runs(tmp_path, capsys, command):
    # pi / 2^1100 is a tiny but finite angle, so the walk is well formed
    walk_file = huge_time_walk(tmp_path, 1, 2**1100)
    assert main([command, walk_file]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["stats", "optimize"])
def test_a_total_time_too_large_for_a_float_exits_2(tmp_path, capsys, command):
    # each step of 5 10^307 pi is a finite angle, their sum of about 3.1e308 radians is not
    step = {"edges": [[0, 1]], "loops": [], "time": {"pi_num": 5 * 10**307, "pi_den": 1}}
    walk_file = tmp_path / "w.json"
    walk_file.write_text(json.dumps({"n_vertices": 2, "sequence": [step, step]}))
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    extra = ["-o", str(out), "--report", str(report)] if command == "optimize" else []
    assert main([command, str(walk_file), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {walk_file}: sequence: the total time in radians is not a finite float\n"
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("command", ["stats", "optimize"])
def test_a_total_time_just_inside_the_float_range_runs(tmp_path, capsys, command):
    # two steps of 2.5 10^307 pi sum to about 1.6e308 radians, under the largest float
    step = {"edges": [[0, 1]], "loops": [], "time": {"pi_num": 25 * 10**306, "pi_den": 1}}
    walk_file = tmp_path / "w.json"
    walk_file.write_text(json.dumps({"n_vertices": 2, "sequence": [step, step]}))
    report = tmp_path / "report.json"
    extra = ["-o", str(tmp_path / "out.json"), "--report", str(report)] if command == "optimize" else []
    assert main([command, str(walk_file), *extra]) == 0
    assert capsys.readouterr().err == ""
    if command == "optimize":
        # Infinity or NaN would not be JSON: parse_constant fails on either
        assert json.loads(report.read_text(), parse_constant=pytest.fail)["initial"]["time"]["radians"] > 1.5e308


def two_edge_steps_walk(tmp_path, *pi_dens):
    steps = [{"edges": [[0, 1]], "loops": [], "time": {"pi_num": 1, "pi_den": den}} for den in pi_dens]
    walk_file = tmp_path / "w.json"
    walk_file.write_text(json.dumps({"n_vertices": 2, "sequence": steps}))
    return str(walk_file)


@pytest.mark.parametrize("command", ["stats", "optimize"])
def test_durations_past_the_digit_bound_exit_2(tmp_path, capsys, command):
    # the summed time would need about 4,400 digits over its denominator
    walk_file = two_edge_steps_walk(tmp_path, 10**2200 + 1, 10**2200 + 3)
    extra = ["-o", str(tmp_path / "out.json")] if command == "optimize" else []
    assert main([command, walk_file, *extra]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {walk_file}: sequence: the durations need more than 1000 digits over a common denominator\n"


@pytest.mark.parametrize("command", ["stats", "optimize"])
def test_durations_just_under_the_digit_bound_run(tmp_path, capsys, command):
    # a common denominator of 999 digits
    walk_file = two_edge_steps_walk(tmp_path, 10**498 + 1, 10**500 + 3)
    out = tmp_path / "out.json"
    extra = ["-o", str(out)] if command == "optimize" else []
    assert main([command, walk_file, *extra]) == 0
    assert capsys.readouterr().err == ""
    if command == "optimize":
        (merged,) = parse_dynamic_graph(out.read_text()).steps
        assert merged.duration == Fraction(1, 10**498 + 1) + Fraction(1, 10**500 + 3)


def phase_circuit(tmp_path, *pi_dens):
    gates = [{"kind": "PHASE", "target": 0, "theta": {"pi_num": 1, "pi_den": den}} for den in pi_dens]
    return write_circuit(tmp_path / "c.json", {"n_qubits": 1, "gates": gates})


@pytest.mark.parametrize(
    "pi_dens",
    [
        # the summed time would need about 8,000 digits, past the int-to-str limit
        (10**3999 + 1, 10**3999 + 3),
        # printable, but a walk no other command would read
        (10**1500 + 1,),
    ],
)
def test_compile_refuses_a_walk_past_the_digit_bound(tmp_path, capsys, pi_dens):
    circuit_file = phase_circuit(tmp_path, *pi_dens)
    out = tmp_path / "out.json"
    assert main(["compile", circuit_file, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {circuit_file}: compiled walk: sequence: the durations need more than 1000 digits"
        " over a common denominator\n"
    )
    assert not out.exists()


def test_compile_writes_a_walk_just_under_the_digit_bound(tmp_path, capsys):
    circuit_file = phase_circuit(tmp_path, 10**998 + 1)
    out = tmp_path / "out.json"
    assert main(["compile", circuit_file, "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["stats", str(out)]) == 0


def test_a_long_periodic_step_runs_as_its_reduced_duration(tmp_path, capsys):
    # one edge has period 2pi, so (10^12 + 1/2)pi acts as pi/2: a full swap
    walk_file = huge_time_walk(tmp_path, 2 * 10**12 + 1, 2)
    out = tmp_path / "out.json"
    assert main(["optimize", walk_file, "-o", str(out)]) == 0
    (step,) = parse_dynamic_graph(out.read_text()).steps
    assert step.duration == Fraction(1, 2)
    assert float(capsys.readouterr().out.splitlines()[3].split(":")[1]) < 1e-12
    assert main(["simulate", walk_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert abs(parse_amplitude(lines[0].split(maxsplit=1)[1])) < 1e-12
    assert abs(parse_amplitude(lines[1].split(maxsplit=1)[1]) + 1j) < 1e-12


def test_compile_verification_failure_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "circuit_distance", lambda circuit, blocks: 1.0)
    circuit_file = write_circuit(
        tmp_path / "c.json", {"n_qubits": 1, "gates": [{"kind": "X", "target": 0}]}
    )
    out_file = tmp_path / "walk.json"
    assert main(["compile", circuit_file, "-o", str(out_file)]) == 1
    assert "verification FAILED, not writing output" in capsys.readouterr().out
    assert not out_file.exists()


# -- equiv ----------------------------------------------------------------------


def test_equiv_same_program(tmp_path, capsys):
    a = write_walk(tmp_path / "a.json", bit_flip_walk())
    b = write_walk(tmp_path / "b.json", bit_flip_walk())
    assert main(["equiv", a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("phase distance")
    assert lines[1] == "equivalent"


def test_equiv_up_to_global_phase(tmp_path, capsys):
    minus_identity = DynamicGraph(
        2, (TimedGraph(Graph(2, loops=frozenset(range(2))), Fraction(1, 1)),)
    )
    a = write_walk(tmp_path / "a.json", minus_identity)
    b = write_walk(tmp_path / "b.json", identity_walk(2))
    assert main(["equiv", a, b]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "equivalent"


def test_equiv_different_programs(tmp_path, capsys):
    a = write_walk(tmp_path / "a.json", bit_flip_walk())
    b = write_walk(tmp_path / "b.json", identity_walk(2))
    assert main(["equiv", a, b]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "NOT equivalent"


def test_equiv_vertex_mismatch_exits_2(tmp_path, capsys):
    a = write_walk(tmp_path / "a.json", identity_walk(2))
    b = write_walk(tmp_path / "b.json", identity_walk(3))
    assert main(["equiv", a, b]) == 2
    assert "vertex counts differ" in capsys.readouterr().err


# -- stats ----------------------------------------------------------------------


def test_stats_output(tmp_path, capsys):
    walk = DynamicGraph(
        3,
        (
            TimedGraph(Graph.make(3, edges=[(0, 1)]), Fraction(1, 2)),
            TimedGraph(Graph.make(3, loops=[0, 2]), Fraction(3, 2)),
        ),
    )
    walk_file = write_walk(tmp_path / "w.json", walk)
    assert main(["stats", walk_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "vertices: 3"
    assert lines[1] == "graphs: 2"
    assert lines[2] == "total time: 2π (6.2832)"
    assert lines[3] == "step 0: 1 edges, 0 loops, time π/2 (1.5708), norm 1.000000, period 2π"
    assert lines[4] == "step 1: 0 edges, 2 loops, time 3π/2 (4.7124), norm 1.000000, period 2π"


def test_stats_reports_infinite_period(tmp_path, capsys):
    walk = DynamicGraph(
        5,
        (TimedGraph(Graph.make(5, edges=[(0, 1), (2, 3), (3, 4)]), Fraction(1, 4)),),
    )
    walk_file = write_walk(tmp_path / "w.json", walk)
    assert main(["stats", walk_file]) == 0
    line = capsys.readouterr().out.splitlines()[3]
    assert "norm 1.414214" in line
    assert line.endswith("period infinite")


def test_stats_reports_the_zero_period_of_an_empty_step(tmp_path, capsys):
    walk = DynamicGraph(2, (TimedGraph(Graph.make(2), Fraction(1, 2)),))
    walk_file = write_walk(tmp_path / "w.json", walk)
    assert main(["stats", walk_file]) == 0
    line = capsys.readouterr().out.splitlines()[3]
    assert line == "step 0: 0 edges, 0 loops, time π/2 (1.5708), norm 0.000000, period 0"


# -- shared error handling --------------------------------------------------------


def test_missing_walk_file_exits_2(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_walk_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_vertices": 2, "sequence": [{"edges": [], "loops": [9]}]}')
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "missing field" in err or "out of range" in err


# json.loads raises ValueError on an int literal past Python's int-to-str
# digit limit, and RecursionError on nesting deeper than its stack
UNDECODABLE = {
    "5000-digit int": '{"n_vertices": ' + "1" * 5000 + ', "sequence": []}',
    "200000-deep arrays": "[" * 200_000 + "]" * 200_000,
}


@pytest.mark.parametrize("body", list(UNDECODABLE.values()), ids=list(UNDECODABLE))
@pytest.mark.parametrize(
    "command", ["stats", "unitary", "optimize", "equiv", "compile", "simulate", "simulate --state"]
)
def test_undecodable_json_exits_2(tmp_path, capsys, command, body):
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    bad = str(bad)
    good = write_walk(tmp_path / "good.json", identity_walk(2))
    out = str(tmp_path / "out.json")
    argv = {
        "stats": ["stats", bad],
        "unitary": ["unitary", bad],
        "optimize": ["optimize", bad, "-o", out],
        "equiv": ["equiv", good, bad],
        "compile": ["compile", bad, "-o", out],
        "simulate": ["simulate", bad],
        "simulate --state": ["simulate", good, "--state", bad],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: invalid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["stats", "compile", "simulate --state"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    bad = str(bad)
    good = write_walk(tmp_path / "good.json", identity_walk(2))
    argv = {
        "stats": ["stats", bad],
        "compile": ["compile", bad, "-o", str(tmp_path / "x.json")],
        "simulate --state": ["simulate", good, "--state", bad],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {bad}: not UTF-8 text (invalid start byte at byte 0)\n"


def test_a_basis_index_with_more_digits_than_the_vertex_count_is_out_of_range(tmp_path, capsys):
    walk_file = write_walk(tmp_path / "hold.json", identity_walk(3))
    assert main(["simulate", walk_file, "--state", "1" * 5000]) == 2
    assert "out of range 0..2" in capsys.readouterr().err
    # leading zeros are not digits of the index
    assert main(["simulate", walk_file, "--state", "0" * 5000 + "2"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "|2>  1+0i"


def test_no_command_raises_system_exit():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command_raises_system_exit():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# -- the parser -----------------------------------------------------------------

COMMANDS = ["simulate", "unitary", "optimize", "compile", "equiv", "stats"]

# argvs that reach argparse's help, usage errors, abbreviations and "--";
# w.json and c.json exist, a, b and x do not
PARSER_TEXT_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["-x", "optimize"],
    *[[command, "-h"] for command in COMMANDS],
    ["simulate"],
    ["unitary"],
    ["optimize"],
    ["compile"],
    ["equiv", "a"],
    ["stats"],
    ["optimize", "w.json"],
    ["compile", "c.json"],
    ["optimize", "w.json", "-o", "o.json", "--max-iter", "zz"],
    ["optimize", "w.json", "-o", "o.json", "--rep", "r.json"],
    ["stats", "w.json", "extra"],
    ["equiv", "w.json", "w.json", "w.json"],
    ["stats", "w.json", "--bogus"],
    ["optimize", "w.json", "-o", "o.json", "--bogus"],
    ["equiv", "--", "a", "b"],
    ["--", "stats", "x"],
    ["stats", "x", "--", "y"],
    # refused by the plain reader, so argparse reads them
    ["optimize", "w.json", "--output=o.json"],
    ["optimize", "w.json", "-oo.json"],
    ["optimize", "w.json", "-o"],
    ["compile", "c.json", "-o", "-x"],
    ["compile", "c.json", "-o", "o.json", "--par"],
    ["stats", "w.json", "w.json"],
    ["optimize", "w.json", "-o", "o.json", "--max-iter", "-1"],
    ["optimize", "w.json", "-o", "o.json", "--max-iter", ""],
    ["simulate", "w.json", "--state", "-5"],
    ["stats", "-"],
    ["stats", "-5"],
    ["stats", "--", "w.json"],
]


def run_main(argv, capsys):
    """Exit code, stdout and stderr of main(argv), whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the top-level usage, which lists every command, and argparse's error for
# the calls that name no command or give words their command does not take
# (those with "--" are left out: argparse's reading of it differs across
# Python versions)
TOP_LEVEL_USAGE = "usage: dynwalk [-h] {simulate,unitary,optimize,compile,equiv,stats} ...\n"
TOP_LEVEL_ERRORS = {
    "": "the following arguments are required: command",
    "frobnicate": "argument command: invalid choice: 'frobnicate'",
    "stats w.json extra": "unrecognized arguments: extra",
    "equiv w.json w.json w.json": "unrecognized arguments: w.json",
    "stats w.json --bogus": "unrecognized arguments: --bogus",
    "optimize w.json -o o.json --bogus": "unrecognized arguments: --bogus",
    "stats w.json w.json": "unrecognized arguments: w.json",
}


@pytest.mark.parametrize("argv", PARSER_TEXT_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_text_matches_the_all_commands_parser(argv, tmp_path, capsys, monkeypatch):
    """main exits 0 or 2; an unknown command or extra words get the top-level usage on stderr."""
    monkeypatch.chdir(tmp_path)
    write_walk(tmp_path / "w.json", bit_flip_walk())
    write_circuit(tmp_path / "c.json", {"n_qubits": 1, "gates": [{"kind": "X", "target": 0}]})
    code, out, err = run_main(list(argv), capsys)
    assert code in (0, 2)
    error = TOP_LEVEL_ERRORS.get(" ".join(argv))
    if error is not None:
        assert (code, out) == (2, "")
        assert err.startswith(TOP_LEVEL_USAGE)
        assert err.splitlines()[-1].startswith(f"dynwalk: error: {error}")


def count_subparsers(monkeypatch):
    """The name of every subparser added from now on, in order."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return names


def test_a_plain_call_builds_no_subparser(tmp_path, capsys, monkeypatch):
    names = count_subparsers(monkeypatch)
    assert main(["stats", str(tmp_path / "absent.json")]) == 2
    assert names == []


def test_main_reads_the_command_from_sys_argv_and_builds_no_subparser(tmp_path, capsys, monkeypatch):
    names = count_subparsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["dynwalk", "stats", str(tmp_path / "absent.json")])
    assert main() == 2
    assert names == []
    assert "absent.json" in capsys.readouterr().err


def test_a_refused_call_builds_every_subparser(capsys, monkeypatch):
    names = count_subparsers(monkeypatch)
    with pytest.raises(SystemExit) as stop:
        main(["stats"])
    assert stop.value.code == 2
    assert names == COMMANDS


def test_help_builds_every_subparser(capsys, monkeypatch):
    names = count_subparsers(monkeypatch)
    with pytest.raises(SystemExit) as stop:
        main(["-h"])
    assert stop.value.code == 0
    assert names == COMMANDS


def test_each_call_builds_its_own_parser(tmp_path, capsys, monkeypatch):
    """Two refused calls build all six subparsers each: no parser is kept between calls."""
    names = count_subparsers(monkeypatch)
    call = ["stats", "--", str(tmp_path / "absent.json")]
    assert main(call) == 2
    assert names == COMMANDS
    assert main(call) == 2
    assert names == COMMANDS * 2


def argparse_namespace(argv):
    """vars() of the namespace the parser builds, or None where it errors."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


# every word a call may hold: option strings, values, positionals and the
# spellings only argparse reads
SPECIAL_WORDS = ["-h", "--help", "--", "--rep", "--output=o.json", "-5", "-", ""]
VALUE_WORDS = ["w.json", "o.json", "0", "3", "12", "zz", "-1", "", "a b", " 7"]


def option_strings(command):
    return [name for names, _ in cli._COMMANDS[command][1] for name in names if name.startswith("-")]


def command_words(command):
    """Lists of words for the command: option-value pairs and single words, repeats included.

    Half the lists also hold the command's positionals and required options,
    in any order among the other words, so that many of them are plain calls.
    """
    options = option_strings(command) or ["--bogus"]
    value = st.sampled_from(VALUE_WORDS)
    word = st.sampled_from(options + VALUE_WORDS + SPECIAL_WORDS)
    chunks = st.lists(st.one_of(st.tuples(st.sampled_from(options), value), st.tuples(word)), max_size=6)
    needed = st.tuples(*(
        st.tuples(st.sampled_from(names), value) if names[0].startswith("-") else st.tuples(value)
        for names, spec in cli._COMMANDS[command][1]
        if spec.get("required") or not names[0].startswith("-")
    ))
    mixed = st.tuples(needed, chunks).flatmap(lambda parts: st.permutations([*parts[0], *parts[1]]))
    return st.one_of(chunks, mixed).map(lambda chunks: [w for chunk in chunks for w in chunk])


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_plain_reader_builds_the_namespace_argparse_builds(command, data):
    words = data.draw(command_words(command))
    plain = cli._plain_namespace(command, words)
    if plain is not None:
        assert vars(plain) == argparse_namespace([command, *words])


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "w.json", "--state", "0101"],
        ["unitary", "w.json", "--csv", "u.csv"],
        ["optimize", "w.json", "-o", "o.json", "--report", "r.json"],
        ["optimize", "--max-iter", "3", "w.json", "--output", "a.json", "--passes", "x", "-o", "o.json"],
        ["compile", "c.json", "-o", "o.json"],
        ["compile", "--parallel-h", "-o", "o.json", "c.json", "--parallel-h"],
        ["equiv", "a.json", "b.json"],
        ["stats", ""],
    ],
    ids=" ".join,
)
def test_the_plain_reader_reads_every_plain_call(argv):
    plain = cli._plain_namespace(argv[0], argv[1:])
    assert plain is not None
    assert vars(plain) == argparse_namespace(argv)
    assert plain.func is getattr(cli, f"cmd_{argv[0]}")


def test_main_calls_the_handler_bound_when_it_runs(tmp_path, capsys, monkeypatch):
    seen = []
    cmd_stats = cli.cmd_stats

    def wrapper(args):
        seen.append(args.walk)
        return cmd_stats(args)

    monkeypatch.setattr(cli, "cmd_stats", wrapper)
    walk_file = write_walk(tmp_path / "w.json", bit_flip_walk())
    assert main(["stats", walk_file]) == 0
    assert seen == [walk_file]
    assert capsys.readouterr().out.splitlines()[0] == "vertices: 2"


def module_env():
    """The environment in which ``python -m dynwalk.cli`` imports this package and prints UTF-8."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="utf-8")


def run_module(*argv):
    """``python -m dynwalk.cli`` with these arguments: main reads them from sys.argv."""
    return subprocess.run(
        [sys.executable, "-m", "dynwalk.cli", *argv], capture_output=True, env=module_env(), timeout=120
    )


def test_the_module_lists_every_command_in_its_help():
    done = run_module("-h")
    assert done.returncode == 0
    assert b"{simulate,unitary,optimize,compile,equiv,stats}" in done.stdout
    assert done.stderr == b""


def test_the_module_runs_a_command_from_its_arguments(tmp_path):
    walk = DynamicGraph(
        3,
        (
            TimedGraph(Graph.make(3, edges=[(0, 1)]), Fraction(1, 2)),
            TimedGraph(Graph.make(3, loops=[0, 2]), Fraction(3, 2)),
        ),
    )
    done = run_module("stats", write_walk(tmp_path / "w.json", walk))
    assert done.returncode == 0
    assert done.stdout.decode("utf-8") == (
        "vertices: 3\n"
        "graphs: 2\n"
        "total time: 2π (6.2832)\n"
        "step 0: 1 edges, 0 loops, time π/2 (1.5708), norm 1.000000, period 2π\n"
        "step 1: 0 edges, 2 loops, time 3π/2 (4.7124), norm 1.000000, period 2π\n"
    )
    assert done.stderr == b""


def test_a_reader_that_closes_early_ends_the_output_quietly(tmp_path):
    """``dynwalk unitary w.json | head -n 1`` on 128 vertices: the rows outrun any pipe buffer."""
    walk_file = write_walk(tmp_path / "w.json", identity_walk(128))
    with subprocess.Popen(
        [sys.executable, "-m", "dynwalk.cli", "unitary", walk_file],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    ) as process:
        assert process.stdout.readline().startswith(b"1.000000000000+0.000000000000i,")
        process.stdout.close()
        err = process.stderr.read()
        assert process.wait(timeout=120) == 0
    assert err == b""


def test_the_overhead_script_times_every_command(tmp_path, capsys, monkeypatch):
    """tests/cli_overhead.py still runs against the module's helpers: a header, one line per command and one per wide circuit."""
    import cli_overhead

    monkeypatch.chdir(tmp_path)
    cli_overhead.main(["2", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert lines[0].endswith("median of 2 samples")
    for command, line in zip(COMMANDS, lines[1:7]):
        assert re.fullmatch(
            rf"{command}: every-command parser \d+\.\d{{3}} ms,"
            r" main \d+\.\d{3} ms, main through argparse \d+\.\d{3} ms",
            line,
        )
    for gate, line in zip(["X", "Y", "S", "CNOT", "H"], lines[7:]):
        assert re.fullmatch(rf"{gate} on 3 qubits: compile \d+\.\d{{3}} ms, simulate \d+\.\d{{3}} ms", line)
    with pytest.raises(SystemExit, match="at least 2"):
        cli_overhead.main(["2", "1"])
