"""Command-line front end.

Subcommands:

* ``simulate``: run a walk file on a basis state or an amplitude file and
  print the final amplitudes, one line per basis state, all formatted in
  one ``%`` call and printed as one chunk.
* ``unitary``: print (or dump to CSV) the walk's total unitary.
* ``optimize``: simplify a walk file under the rewrite rules and write the
  result, optionally with a JSON report of every accepted rewrite; like
  ``compile`` it writes no result that fails the check against its input.
* ``compile``: turn a circuit file into a walk file, verifying the result
  against the circuit's reference unitary before writing: the circuit's
  gates are undone in place on the walk's unitary, which must leave a
  global phase times the identity. The unitary comes in the blocks of
  ``walk_engine.laid_out_unitary``, over the union of the walk's graphs
  and the pairs of vertices the gates mix.
* ``equiv``: compare two walk files up to global phase.
* ``stats``: per-step structure, norms, periods and totals of a walk file.

Exit codes: 0 success, 1 verification or equivalence failure, 2 malformed
input (bad file, bad JSON, bad flag values).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .gate_compiler import circuit_distance, compile_circuit, mixing_pairs, parse_circuit
from .graph_model import (
    DynamicGraph,
    ParseError,
    _decode_json,
    format_angle,
    parse_dynamic_graph,
    period,
    radians,
    serialize_dynamic_graph,
    spectrum,
)
from .numerics import VERIFY_TOLERANCE
from .rewrite_optimizer import ALL_RULES, optimize
from .walk_engine import evolve_state, laid_out_unitary, run_distance, total_unitary

__all__ = [
    "CommandResult",
    "cmd_simulate",
    "cmd_unitary",
    "cmd_optimize",
    "cmd_compile",
    "cmd_equiv",
    "cmd_stats",
    "main",
]


@dataclass(frozen=True)
class CommandResult:
    """Exit code plus the lines to print on stdout, printed in turn, so a generator is never held whole."""

    exit_code: int
    lines: Iterable[str]


class CliInputError(Exception):
    """Anything wrong with the user's files or flags; maps to exit 2."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise CliInputError(f"cannot read {path}: {err.strerror or err}") from err


def _load_walk(path: str) -> DynamicGraph:
    try:
        return parse_dynamic_graph(_read_text(path))
    except ParseError as err:
        raise CliInputError(f"{path}: {err}") from err


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks in turn, so a generator is never held whole."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as err:
        raise CliInputError(f"cannot write {path}: {err.strerror or err}") from err


def _basis_labels(n_vertices: int) -> List[str]:
    """Every basis state's label: its bits when n_vertices is a power of two from 2 on, else its index."""
    if n_vertices >= 2 and n_vertices & (n_vertices - 1) == 0:
        spec = f"0{n_vertices.bit_length() - 1}b"
        return [format(index, spec) for index in range(n_vertices)]
    return list(map(str, range(n_vertices)))


def _is_finite_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _initial_state(text: str, n_vertices: int) -> np.ndarray:
    """Decode --state: a bitstring label, an integer index, or a JSON file."""
    state = np.zeros(n_vertices, dtype=np.complex128)
    label = text.strip()
    bits = re.fullmatch(r"\|?([01]+)>?", label)
    if bits and n_vertices == 2 ** len(bits.group(1)):
        state[int(bits.group(1), 2)] = 1.0
        return state
    if re.fullmatch(r"\d+", label):
        # an index with more digits than n_vertices is out of range; int() refuses more than 4,300
        digits = label.lstrip("0") or "0"
        if len(digits) > len(str(n_vertices)) or int(digits) >= n_vertices:
            raise CliInputError(f"basis index {digits} out of range 0..{n_vertices - 1}")
        state[int(digits)] = 1.0
        return state
    if os.path.exists(label):
        try:
            data = _decode_json(_read_text(label))
        except ParseError as err:
            raise CliInputError(f"{label}: {err}") from err
        if not isinstance(data, list) or len(data) != n_vertices:
            raise CliInputError(f"{label}: expected a list of {n_vertices} [re, im] pairs")
        for k, pair in enumerate(data):
            # json reads NaN, Infinity and 1e400 as floats; an int past the
            # float range cannot become an amplitude either
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(_is_finite_number(x) for x in pair)
            ):
                raise CliInputError(f"{label}: entry {k} is not an [re, im] pair of finite numbers")
            state[k] = complex(pair[0], pair[1])
        return state
    raise CliInputError(f"--state {text!r} is neither a basis label nor a readable file")


def _amplitude_lines(final: np.ndarray) -> str:
    """One line per basis state, label and amplitude to 12 significant digits, formatted in one % call."""
    n = final.size
    values = [None] * (3 * n)
    values[0::3] = _basis_labels(n)
    values[1::3] = final.real.tolist()
    values[2::3] = final.imag.tolist()
    return "|%s>  %.12g%+.12gi\n" * n % tuple(values)


def cmd_simulate(args: argparse.Namespace) -> CommandResult:
    walk = _load_walk(args.walk)
    state = _initial_state(args.state, walk.n_vertices)
    final = evolve_state(walk, state)
    norm = float(np.linalg.norm(final))
    summary = f"norm {norm:.12g} (deviation {abs(norm - 1.0):.3e})"
    return CommandResult(0, (_amplitude_lines(final) + summary,))


def _unitary_rows(u: np.ndarray) -> Iterator[str]:
    """Each row as real+imag pairs to 12 places, formatted in one % call."""
    line = ",".join(["%.12f%+.12fi"] * u.shape[1])
    for row in np.ascontiguousarray(u, dtype=np.complex128):
        yield line % tuple(row.view(np.float64).tolist())


def cmd_unitary(args: argparse.Namespace) -> CommandResult:
    walk = _load_walk(args.walk)
    u = total_unitary(walk)
    if args.csv:
        _write_text(args.csv, (row + "\n" for row in _unitary_rows(u)))
        return CommandResult(0, (f"wrote {u.shape[0]}x{u.shape[1]} unitary to {args.csv}",))
    return CommandResult(0, _unitary_rows(u))


def _parse_passes(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    names = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [name for name in names if name not in ALL_RULES]
    if unknown:
        raise CliInputError(
            f"unknown passes {', '.join(unknown)}; available: {', '.join(ALL_RULES)}"
        )
    if not names:
        raise CliInputError("--passes needs at least one rule name")
    return names


def cmd_optimize(args: argparse.Namespace) -> CommandResult:
    if args.max_iter is not None and args.max_iter < 0:
        raise CliInputError(f"--max-iter must be 0 or more, got {args.max_iter}")
    walk = _load_walk(args.walk)
    passes = _parse_passes(args.passes)
    simplified, report = optimize(walk, passes=passes, max_iterations=args.max_iter)
    distance = report.phase_distance
    # like compile, write no output that fails the output-against-input check
    written = distance < VERIFY_TOLERANCE
    if written:
        _write_text(args.output, (serialize_dynamic_graph(simplified),))
    if args.report:
        payload = report.to_dict()
        payload["input"] = args.walk
        payload["output"] = args.output if written else None
        payload["phase_distance"] = distance
        _write_text(args.report, (json.dumps(payload, indent=2) + "\n",))
    lines = [
        f"graphs {report.initial_count} -> {report.final_count}",
        f"time {format_angle(report.initial_time)} -> {format_angle(report.final_time)}"
        f" ({radians(report.initial_time):.4f} -> {radians(report.final_time):.4f})",
        f"rewrites applied: {len(report.rewrites)}",
        f"phase distance to input: {distance:.3e}",
        *([f"wrote {args.output}"] if written else []),
        f"stop reason: {report.stop_reason}",
    ]
    if not report.verified:
        lines.extend(f"rejected: {item}" for item in report.rejected)
        lines.append("verification FAILED" if written else "verification FAILED, not writing output")
        return CommandResult(1, tuple(lines))
    return CommandResult(0, tuple(lines))


def cmd_compile(args: argparse.Namespace) -> CommandResult:
    try:
        circuit = parse_circuit(_read_text(args.circuit))
    except ParseError as err:
        raise CliInputError(f"{args.circuit}: {err}") from err
    walk = compile_circuit(circuit, parallel_hadamards=args.parallel_h)
    # the distance of W from C, read off C^dag W in blocks of W's layout
    # over the union of its graphs and the pairs the gates mix
    distance = circuit_distance(circuit, laid_out_unitary(walk, mixing_pairs(circuit)))
    total = walk.total_time()
    lines = [
        f"{len(circuit.gates)} gates -> {walk.graph_count} graphs,"
        f" total time {format_angle(total)} ({radians(total):.4f})",
        f"phase distance to circuit unitary: {distance:.3e}",
    ]
    if distance >= VERIFY_TOLERANCE:
        return CommandResult(1, tuple(lines) + ("verification FAILED, not writing output",))
    _write_text(args.output, (serialize_dynamic_graph(walk),))
    return CommandResult(0, tuple(lines) + (f"wrote {args.output}",))


def cmd_equiv(args: argparse.Namespace) -> CommandResult:
    first = _load_walk(args.first)
    second = _load_walk(args.second)
    if first.n_vertices != second.n_vertices:
        raise CliInputError(
            f"vertex counts differ: {first.n_vertices} vs {second.n_vertices}"
        )
    distance = run_distance(first.n_vertices, first.steps, second.steps)
    verdict = "equivalent" if distance < VERIFY_TOLERANCE else "NOT equivalent"
    lines = (f"phase distance {distance:.3e}", verdict)
    return CommandResult(0 if distance < VERIFY_TOLERANCE else 1, lines)


def cmd_stats(args: argparse.Namespace) -> CommandResult:
    walk = _load_walk(args.walk)
    lines = [f"vertices: {walk.n_vertices}", f"graphs: {walk.graph_count}"]
    total = walk.total_time()
    lines.append(f"total time: {format_angle(total)} ({radians(total):.4f})")
    for index, step in enumerate(walk.steps):
        norm = spectrum(step.graph).norm
        cycle = period(step.graph)
        lines.append(
            f"step {index}: {len(step.graph.edges)} edges, {len(step.graph.loops)} loops,"
            f" time {format_angle(step.duration)} ({radians(step.duration):.4f}),"
            f" norm {norm:.6f}, period {'infinite' if cycle is None else format_angle(cycle)}"
        )
    return CommandResult(0, tuple(lines))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynwalk",
        description="Simulate, compile and simplify continuous-time walk programs on dynamic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a walk on an initial state")
    p.add_argument("walk", help="walk JSON file")
    p.add_argument(
        "--state",
        default="0",
        help="basis label (bits or index) or JSON amplitude file; default vertex 0",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("unitary", help="print or dump the total unitary")
    p.add_argument("walk", help="walk JSON file")
    p.add_argument("--csv", help="write the matrix to this CSV file instead of stdout")
    p.set_defaults(func=cmd_unitary)

    p = sub.add_parser("optimize", help="simplify a walk under the rewrite rules")
    p.add_argument("walk", help="walk JSON file")
    p.add_argument("-o", "--output", required=True, help="output walk JSON file")
    p.add_argument("--passes", help="comma-separated rule subset (default: all)")
    p.add_argument("--max-iter", type=int, help="cap on rewrites tried, accepted or rejected")
    p.add_argument("--report", help="write a JSON rewrite report here")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compile", help="compile a circuit file into a walk")
    p.add_argument("circuit", help="circuit JSON file")
    p.add_argument("-o", "--output", required=True, help="output walk JSON file")
    p.add_argument(
        "--parallel-h",
        action="store_true",
        help="fuse adjacent H gates on distinct qubits into combined layers",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("equiv", help="compare two walks up to global phase")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("stats", help="describe a walk file")
    p.add_argument("walk", help="walk JSON file")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result: CommandResult = args.func(args)
    except CliInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for line in result.lines:
        print(line)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
