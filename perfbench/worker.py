"""One benchmark process: set up the corpus, run one pass, check outputs.

Started by ``run.py`` in a fresh interpreter, so the package's caches start
cold as they do for a command-line user. The process

1. imports the package from ``--src``, builds the corpus from the seed and
   writes every input file under ``--workdir``; then it prints ``ready``;
2. with ``--mode setup`` it stops there;
3. otherwise it runs every program through ``dynwalk.cli.main`` in process
   (one client, closed loop) and times each program and the whole pass,
   optionally recording spans (``--trace 1``);
4. after the timed pass it checks every output against ``reference`` and
   writes one JSON result file.

A failing program counts as failed and never stops the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import corpus  # noqa: E402
import reference  # noqa: E402

STAGES = {
    "circuit_opt": (
        ("compile", "{d}/circuit.json", "-o", "{d}/walk.json"),
        ("optimize", "{d}/walk.json", "-o", "{d}/opt.json", "--report", "{d}/report.json"),
        ("equiv", "{d}/walk.json", "{d}/opt.json"),
    ),
    "random_opt": (
        ("optimize", "{d}/walk.json", "-o", "{d}/opt.json", "--report", "{d}/report.json"),
        ("equiv", "{d}/walk.json", "{d}/opt.json"),
    ),
    "wide_sim": (
        ("compile", "{d}/circuit.json", "-o", "{d}/walk.json"),
        ("simulate", "{d}/walk.json", "--state", "{state}"),
    ),
}
# the file whose walk is the workload's output program
OUTPUT_WALK = {"circuit_opt": "opt.json", "random_opt": "opt.json", "wide_sim": "walk.json"}
# kernels on each side of a program that set its speed factor: one sample
# is noisy, and a program of several seconds outlasts its neighbours
KERNEL_WINDOW = 3
RULES = ("SWAP_COMMUTING", "MERGE_IDENTICAL", "COMBINE_PST", "MERGE_COMPLEMENTARY", "MOVE_SINGLETON", "HYPERCUBE_HADAMARD")


def _import_package(src: str):
    sys.path.insert(0, src)
    import dynwalk
    import dynwalk.cli

    location = os.path.realpath(os.path.dirname(dynwalk.__file__))
    if os.path.commonpath([location, os.path.realpath(src)]) != os.path.realpath(src):
        raise SystemExit(f"dynwalk was imported from {location}, not from {src}")
    return dynwalk.cli


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def setup(workload: str, seed: int, seconds: float, round_index: int, workdir: str) -> List[corpus.Program]:
    programs = corpus.build(workload, seed, seconds, round_index)
    os.makedirs(workdir, exist_ok=True)
    for program in programs:
        folder = os.path.join(workdir, f"p{program.index:04d}")
        os.makedirs(folder, exist_ok=True)
        name = "circuit.json" if program.kind == "circuit" else "walk.json"
        _write(os.path.join(folder, name), json.dumps(program.document, indent=1) + "\n")
    return programs


def _package_caches() -> list:
    """Every lru_cache in the package, to empty before each CLI call."""
    return [
        value
        for name, module in sorted(sys.modules.items())
        if name == "dynwalk" or name.startswith("dynwalk.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]


def run_pass(cli, workload: str, programs: List[corpus.Program], tracer) -> Dict[str, object]:
    """Time every program through the CLI; return raw per-program records.

    Each CLI call starts with empty package caches, as a command-line call
    does, so a program's time does not depend on the programs before it.
    The calibration kernel runs between programs, outside their timing; a
    program's speed factor comes from the kernels run within
    ``KERNEL_WINDOW`` programs of it.
    """
    caches = _package_caches()
    records, kernel_s = [], [calibrate.kernel()]
    pass_start = time.perf_counter()
    for program in programs:
        folder = f"p{program.index:04d}"
        if tracer is not None:
            tracer.program_id = program.index
        codes, outputs, error, wall = [], [], None, 0.0
        for stage in STAGES[workload]:
            argv = [part.format(d=folder, state=program.state) for part in stage]
            out = io.StringIO()
            for cache in caches:
                cache.cache_clear()
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 2
            except Exception:  # a crash is one failed program, not a failed run
                code, error = None, traceback.format_exc()
            wall += time.perf_counter() - started
            codes.append(code)
            outputs.append(out.getvalue())
            if code not in (0, 1):
                break
        kernel_s.append(calibrate.kernel())
        records.append({"program": program, "codes": codes, "outputs": outputs, "error": error, "wall_s": wall})
    for i, record in enumerate(records):
        record["speed_factor"] = calibrate.speed_factor(kernel_s[max(i - KERNEL_WINDOW, 0) : i + KERNEL_WINDOW + 2])
    return {
        "records": records,
        "pass_s": time.perf_counter() - pass_start - sum(kernel_s[1:]),
        "speed_factor": calibrate.speed_factor(kernel_s),
    }


def check(workload: str, seed: int, round_index: int, record: dict) -> dict:
    """Compare one program's outputs with the reference; build its row."""
    program: corpus.Program = record["program"]
    folder = f"p{program.index:04d}"
    row = {
        "workload": workload, "seed": seed, "round": round_index, "program": program.index, "stratum": program.stratum,
        "exit_codes": record["codes"], "wall_s": record["wall_s"], "speed_factor": record["speed_factor"],
    }
    problems = []
    if record["error"]:
        problems.append(record["error"].strip().splitlines()[-1])
    if any(code != 0 for code in record["codes"]) or len(record["codes"]) < len(STAGES[workload]):
        problems.append(f"exit codes {record['codes']}")
    if workload == "wide_sim":
        _write(os.path.join(folder, "simulate.txt"), record["outputs"][-1] if len(record["outputs"]) > 1 else "")
    try:
        if program.kind == "circuit":
            row["qubits"] = program.document["n_qubits"]
            row["gates"] = len(program.document["gates"])
        input_walk = json.loads(_read(os.path.join(folder, "walk.json")))
        output_walk = json.loads(_read(os.path.join(folder, OUTPUT_WALK[workload])))
        row["vertices"] = input_walk["n_vertices"]
        for side, walk in (("input", input_walk), ("output", output_walk)):
            graphs, total = corpus.walk_cost(walk)
            row[f"{side}_graphs"], row[f"{side}_time_pi"] = graphs, str(total)
        if workload == "wide_sim":
            expected = reference.circuit_states(program.document, reference.basis_state(program.state))[:, 0]
            lines = record["outputs"][-1].splitlines()
            residual = reference.aligned_distance(expected, reference.parse_amplitudes(lines, expected.size))
        else:
            if program.kind == "circuit":
                expected = reference.circuit_matrix(program.document)
                residual = max(
                    reference.aligned_distance(expected, reference.walk_matrix(input_walk)),
                    reference.aligned_distance(expected, reference.walk_matrix(output_walk)),
                )
            else:
                expected = reference.walk_matrix(input_walk)
                residual = reference.aligned_distance(expected, reference.walk_matrix(output_walk))
            report = json.loads(_read(os.path.join(folder, "report.json")))
            counts = Counter(step["rule"] for step in report["rewrites"])
            row["accepted"] = {rule: counts.get(rule, 0) for rule in RULES}
            row["rejected"] = len(report["rejected"])
            row["report_verified"] = report["verified"]
            row["report_phase_distance"] = report["phase_distance"]
            if not report["verified"]:
                problems.append("report says verified: false")
        row["residual"] = residual
        if not residual < reference.TOLERANCE:
            problems.append(f"reference residual {residual:.3e}")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
        problems.append(f"output unreadable: {err!r}")
    row["sha256"] = {name: _digest(os.path.join(folder, name)) for name in sorted(os.listdir(folder))}
    row["ok"] = not problems
    if problems:
        row["problems"] = problems
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STAGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()

    cli = _import_package(args.src)
    programs = setup(args.workload, args.seed, args.seconds, args.round, args.workdir)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    os.chdir(args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    timed = run_pass(cli, args.workload, programs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    rows = [check(args.workload, args.seed, args.round, record) for record in timed["records"]]
    rows.sort(key=lambda row: row["program"])
    outputs = hashlib.sha256()
    for row in rows:
        for name, value in sorted(row["sha256"].items()):
            outputs.update(f"{row['program']}/{name}:{value}\n".encode())
    result = {
        "pass_s": timed["pass_s"],
        "speed_factor": timed["speed_factor"],
        "peak_rss_mb": peak_rss_mb,
        "final_time_pi": str(sum((Fraction(row.get("output_time_pi", "0")) for row in rows), Fraction(0))),
        "final_graphs": sum(row.get("output_graphs", 0) for row in rows),
        "outputs_sha256": outputs.hexdigest(),
        "rows": rows,
    }
    if tracer is not None:
        tracer.save("spans.npz")
        result["trace"] = {**tracer.summary(), "pass_s": timed["pass_s"]}
    _write(args.result, json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
