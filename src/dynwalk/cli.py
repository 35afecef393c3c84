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

Every command's help text and arguments are written once, in
``_COMMANDS``, and a call reads them afresh; nothing is kept between calls.
A call takes one of two routes. A call that names a command first and then
gives only that command's positionals and exact option strings, each
option but a flag followed by a value, none of those words starting with
``-``, is read straight from the table (``_plain_namespace``) and builds
no parser. Any other call (help, an abbreviation, ``--opt=value``, ``--``,
a negative number, a missing or extra argument, a value its type refuses,
no command or an unknown one) builds the parser with all six commands and
parses the call once, so its help, usage and errors are argparse's own.

Every input file, a walk, a circuit or a ``--state`` amplitude file, has
one reader, ``_load``: it reads the file as UTF-8 text and parses it, and
a file that cannot be read, is not UTF-8 or does not parse ends the call
with one ``error:`` line naming the file. A reader that closes standard
output early (``| head``) ends the output quietly, with the command's own
exit code and no traceback.

Exit codes: 0 success, 1 verification or equivalence failure, 2 malformed
input (bad file, bad JSON, bad flag values).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .gate_compiler import circuit_distance, compile_circuit, mixing_pairs, parse_circuit
from .graph_model import (
    ParseError,
    _check_time_digits,
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
    except UnicodeDecodeError as err:
        raise CliInputError(f"cannot read {path}: not UTF-8 text ({err.reason} at byte {err.start})") from err


def _load(path: str, parse: Callable[[str], Any]) -> Any:
    """The file's text read by ``parse``: every input file and document of a command comes through here."""
    try:
        return parse(_read_text(path))
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
    """Every basis state's label: its bits when n_vertices is a power of two from 2 on, else its index.

    The bit labels come from ``itertools.product``, whose strings are those
    of ``format(index, "0qb")`` in index order.
    """
    if n_vertices >= 2 and n_vertices & (n_vertices - 1) == 0:
        return list(map("".join, itertools.product("01", repeat=n_vertices.bit_length() - 1)))
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
        data = _load(label, _decode_json)
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


def _state_norm(final: np.ndarray) -> float:
    """The 2-norm of the state, also where the sum of its squared moduli passes the float range.

    The plain norm stands whenever it is finite. An infinite one from
    finite entries is taken again on the state divided by its largest
    real or imaginary part, which, unlike a modulus, cannot itself
    overflow; that norm times the scale is inf only when the norm is.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(final))
    if np.isinf(norm) and np.isfinite(final).all():
        scale = float(np.abs(final.view(np.float64)).max())
        norm = scale * float(np.linalg.norm(final / scale))
    return norm


def cmd_simulate(args: argparse.Namespace) -> CommandResult:
    walk = _load(args.walk, parse_dynamic_graph)
    state = _initial_state(args.state, walk.n_vertices)
    final = evolve_state(walk, state)
    norm = _state_norm(final)
    summary = f"norm {norm:.12g} (deviation {abs(norm - 1.0):.3e})"
    return CommandResult(0, (_amplitude_lines(final) + summary,))


def _unitary_rows(u: np.ndarray) -> Iterator[str]:
    """Each row as real+imag pairs to 12 places, formatted in one % call."""
    line = ",".join(["%.12f%+.12fi"] * u.shape[1])
    for row in np.ascontiguousarray(u, dtype=np.complex128):
        yield line % tuple(row.view(np.float64).tolist())


def cmd_unitary(args: argparse.Namespace) -> CommandResult:
    walk = _load(args.walk, parse_dynamic_graph)
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
    walk = _load(args.walk, parse_dynamic_graph)
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
    circuit = _load(args.circuit, parse_circuit)
    walk = compile_circuit(circuit, parallel_hadamards=args.parallel_h)
    try:
        _check_time_digits(walk.steps)
    except ParseError as err:
        raise CliInputError(f"{args.circuit}: compiled walk: {err}") from err
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
    first = _load(args.first, parse_dynamic_graph)
    second = _load(args.second, parse_dynamic_graph)
    if first.n_vertices != second.n_vertices:
        raise CliInputError(
            f"vertex counts differ: {first.n_vertices} vs {second.n_vertices}"
        )
    distance = run_distance(first.n_vertices, first.steps, second.steps)
    verdict = "equivalent" if distance < VERIFY_TOLERANCE else "NOT equivalent"
    lines = (f"phase distance {distance:.3e}", verdict)
    return CommandResult(0 if distance < VERIFY_TOLERANCE else 1, lines)


def cmd_stats(args: argparse.Namespace) -> CommandResult:
    walk = _load(args.walk, parse_dynamic_graph)
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


# Every subcommand once: its help and its arguments, each as (names,
# options) for ``add_argument``, which ``_plain_namespace`` reads too (it
# knows the options used here: required, default, type and store_true).
# Its handler is ``cmd_<name>``, looked up in the module's globals on each
# call, so a later rebinding of ``cmd_<name>`` (a wrapper, say) is the
# function called.
_WALK = (("walk",), {"help": "walk JSON file"})
_OUTPUT = (("-o", "--output"), {"required": True, "help": "output walk JSON file"})
_COMMANDS = {
    "simulate": ("run a walk on an initial state", (
        _WALK,
        (("--state",), {
            "default": "0", "help": "basis label (bits or index) or JSON amplitude file; default vertex 0"}),
    )),
    "unitary": ("print or dump the total unitary", (
        _WALK,
        (("--csv",), {"help": "write the matrix to this CSV file instead of stdout"}),
    )),
    "optimize": ("simplify a walk under the rewrite rules", (
        _WALK,
        _OUTPUT,
        (("--passes",), {"help": "comma-separated rule subset (default: all)"}),
        (("--max-iter",), {"type": int, "help": "cap on rewrites tried, accepted or rejected"}),
        (("--report",), {"help": "write a JSON rewrite report here"}),
    )),
    "compile": ("compile a circuit file into a walk", (
        (("circuit",), {"help": "circuit JSON file"}),
        _OUTPUT,
        (("--parallel-h",), {
            "action": "store_true", "help": "fuse adjacent H gates on distinct qubits into combined layers"}),
    )),
    "equiv": ("compare two walks up to global phase", ((("first",), {}), (("second",), {}))),
    "stats": ("describe a walk file", (_WALK,)),
}


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every subcommand, which reads each call the plain reader refuses."""
    parser = argparse.ArgumentParser(
        prog="dynwalk",
        description="Simulate, compile and simplify continuous-time walk programs on dynamic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def _plain_namespace(command: str, words: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse builds for ``command`` and ``words``, or None where argparse is needed.

    The words may be the command's exact option strings, each but a flag
    followed by a value, and its positionals, exactly as many as it takes;
    no positional or value may start with "-", every required option must
    be given and every value must convert to its type. A dest is the first
    long option string with "-" as "_"; an option not given holds its
    default (None, False for a flag), and a repeated one its last value.
    """
    values = {"command": command, "func": globals()[f"cmd_{command}"]}
    options, positionals, required = {}, [], set()
    for names, spec in _COMMANDS[command][1]:
        if not names[0].startswith("-"):
            positionals.append(names[0])
            continue
        dest = next((name for name in names if name.startswith("--")), names[0]).lstrip("-").replace("-", "_")
        flag = spec.get("action") == "store_true"
        values[dest] = False if flag else spec.get("default")
        options.update(dict.fromkeys(names, (dest, flag, spec.get("type", str))))
        if spec.get("required"):
            required.add(dest)
    given = []
    words = iter(words)
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        if word not in options:
            return None
        dest, flag, convert = options[word]
        required.discard(dest)
        if flag:
            values[dest] = True
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        try:
            values[dest] = convert(value)
        except (TypeError, ValueError):
            return None
    if len(given) != len(positionals) or required:
        return None
    values.update(zip(positionals, given))
    return argparse.Namespace(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_namespace(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        result: CommandResult = args.func(args)
    except CliInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        for line in result.lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send the interpreter's final flush to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
