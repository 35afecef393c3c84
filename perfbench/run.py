"""dynwalk benchmark: the compile -> optimize -> equiv pipeline and wide simulation.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload circuit_opt --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``circuit_opt``: small random circuits; ``compile``, ``optimize --report``,
  ``equiv`` of the compiled walk against the optimized one;
* ``random_opt``: random walk programs on 2-8 vertices with planted rewrite
  patterns; ``optimize --report`` then ``equiv``;
* ``wide_sim``: random circuits on 9-10 qubits; ``compile`` (with its
  dense check) then ``simulate`` from a basis state.

The launcher fixes the environment (one BLAS/OpenMP thread, fixed hash
seed, the package imported from ``src`` of this checkout) and runs the
workload in three rounds, each a fresh interpreter (``worker.py``) with one
client in a closed loop; the worker also empties the package's caches
before every CLI call, as a separate command-line process would start.
Each round runs the same base corpus under its own seeded relabeling
(``corpus.py``), ``--seconds`` times a per-workload rate programs, so the
inputs depend only on the workload, the seed and ``--seconds``.

Timings are calibrated. On a shared 2-vCPU machine the speed of one
process drifts by up to 1.7x over tens of seconds, so the worker runs a
fixed calibration kernel (``calibrate.py``) between programs and every
time is divided by the speed factor measured around it: program times by
the kernels run within three programs of it, a round's pass time by the
round's mean, a set-up time by ten kernels run just before it. Values are
seconds on a machine that runs the kernel in ``calibrate.REFERENCE_S``;
the uncalibrated values and the factors are printed beside them. Rounds
of different relabelings average out the optimizer's tie-breaking, which
moves single programs' cost by up to 3x.

``--trace 0`` prints the end-to-end metrics over all rounds: programs per
second of pass time, the median and the tail latency of single programs
(the highest percentile with at least ten programs above it; its
percentile and sample count are printed beside it), total output time
and graph count, pass rate, and peak resident memory. Set-up time is the
median of five fresh interpreters, each timed from start until its corpus
is written. ``--trace 1`` runs round 0 untraced and then traced and prints
per-layer metrics from the spans (``tracer.py``), in uncalibrated
seconds, plus the calibrated tracing overhead.

Before the final JSON line the launcher prints the environment, one JSON
row per program and a summary. Every output is checked against an
independent reference (``reference.py``); a program fails if a CLI call
exits nonzero, its report says ``"verified": false`` or the check fails.
Exit status is 0 with a result, or nonzero without one when the run itself
could not be made (for example when ``src/dynwalk`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from tracer import LAYERS  # noqa: E402
from worker import RULES, STAGES  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_SAMPLES = 5
SETUP_KERNELS = 10
ROUNDS = 3
THREADS = 1
RUN_DEADLINE_S = 170.0
# rule name -> the public pass function that tries it
RULE_PASSES = {
    "MERGE_IDENTICAL": "pass_merge_identical",
    "COMBINE_PST": "pass_combine_pst",
    "MERGE_COMPLEMENTARY": "pass_merge_complementary",
    "MOVE_SINGLETON": "pass_move_singleton",
    "HYPERCUBE_HADAMARD": "pass_hypercube_hadamard",
}


class RunFailed(Exception):
    """The run cannot produce a result."""


def _environment() -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = str(THREADS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _describe_environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "machine": platform.machine(),
    }


class Worker:
    """One fresh interpreter running ``worker.py``."""

    def __init__(self, args: argparse.Namespace, mode: str, workdir: str, round_index: int, trace: int) -> None:
        self.result_path = os.path.join(workdir, "result.json")
        command = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--round", str(round_index),
            "--workdir", workdir, "--src", SRC, "--mode", mode, "--trace", str(trace),
            "--result", self.result_path,
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=_environment(), cwd=ROOT)

    def wait_ready(self, deadline: float) -> float:
        """Seconds from process start until the worker printed ``ready``."""
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        buffered = b""
        try:
            while b"\n" not in buffered:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise RunFailed("worker did not finish set-up in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RunFailed(f"worker exited during set-up (status {self.proc.wait()})")
                buffered += chunk
        finally:
            selector.close()
        ready = time.perf_counter() - self.started
        if buffered.strip() != b"ready":
            raise RunFailed(f"unexpected worker output {buffered[:200]!r}")
        return ready

    def finish(self, deadline: float) -> Optional[dict]:
        try:
            status = self.proc.wait(timeout=max(deadline - time.perf_counter(), 0.1))
        except subprocess.TimeoutExpired:
            raise RunFailed("worker ran past the run's deadline")
        finally:
            self.stop()
        if status != 0:
            raise RunFailed(f"worker exited with status {status}")
        if not os.path.exists(self.result_path):
            return None
        with open(self.result_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _run_worker(args, mode: str, workdir: str, deadline: float, round_index: int = 0, trace: int = 0):
    """Set-up seconds, the machine's speed factor just before, and the result."""
    factor = calibrate.speed_factor([calibrate.kernel() for _ in range(SETUP_KERNELS)])
    worker = Worker(args, mode, workdir, round_index, trace)
    try:
        ready = worker.wait_ready(deadline)
        return ready, factor, worker.finish(deadline)
    finally:
        worker.stop()


def tail_latency(values: List[float]) -> Dict[str, float]:
    """Highest percentile with at least ten samples above it (max if n < 11)."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n >= 11 else n - 1
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / n, "samples": n}


def merge_rounds(rounds: List[dict]) -> dict:
    """Rows, pass times and output totals of every round of a run."""
    rows = [row for result in rounds for row in result["rows"]]
    outputs = hashlib.sha256("".join(result["outputs_sha256"] for result in rounds).encode())
    return {
        "rows": rows,
        "pass_s": [result["pass_s"] for result in rounds],
        "speed_factor": [result["speed_factor"] for result in rounds],
        "peak_rss_mb": [result["peak_rss_mb"] for result in rounds],
        "final_time_pi": sum((Fraction(result["final_time_pi"]) for result in rounds), Fraction(0)),
        "final_graphs": sum(result["final_graphs"] for result in rounds),
        "outputs_sha256": outputs.hexdigest(),
    }


def timings(merged: dict, setups: List[tuple], calibrated: bool) -> Dict[str, float]:
    """The timing metrics, in calibrated or in raw wall-clock seconds."""
    rows = merged["rows"]
    scale = (lambda factor: factor) if calibrated else (lambda factor: 1.0)
    walls = [row["wall_s"] / scale(row["speed_factor"]) for row in rows]
    passes = sum(p / scale(f) for p, f in zip(merged["pass_s"], merged["speed_factor"]))
    return {
        "setup_s": statistics.median(ready / scale(factor) for ready, factor in setups),
        "programs_per_s": len(rows) / passes,
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_latency(walls)["value"],
    }


def end_to_end(merged: dict, setups: List[tuple]) -> Dict[str, dict]:
    rows = merged["rows"]
    failed = sum(1 for row in rows if not row["ok"])
    units = {"setup_s": "s", "programs_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s"}
    return {
        **{name: {"value": value, "unit": units[name]} for name, value in timings(merged, setups, True).items()},
        "final_time_pi": {"value": float(merged["final_time_pi"]), "unit": "pi"},
        "final_graphs": {"value": merged["final_graphs"], "unit": "count"},
        "pass_rate": {"value": 1.0 - failed / len(rows), "unit": "ratio"},
        "peak_rss_mb": {"value": statistics.median(merged["peak_rss_mb"]), "unit": "MB"},
    }


def per_layer(traced: dict, untraced: dict) -> Dict[str, dict]:
    trace = traced["trace"]
    names = trace["per_name"]

    def fn(name: str) -> dict:
        return names.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0})

    metrics: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    accepted = {rule: 0 for rule in RULES}
    rejected = 0
    for row in traced["rows"]:
        for rule, count in row.get("accepted", {}).items():
            accepted[rule] += count
        rejected += row.get("rejected", 0)
    for rule, function in RULE_PASSES.items():
        span = fn(f"rewrite_optimizer.{function}")
        put(f"rewrite_optimizer.{rule}.tried", span["calls"], "count")
        put(f"rewrite_optimizer.{rule}.applied", span["calls"] - span["raised"], "count")
        put(f"rewrite_optimizer.{rule}.s", span["s"], "s")
    tried = fn("rewrite_optimizer.pass_hypercube_hadamard")["calls"]
    applied = metrics["rewrite_optimizer.HYPERCUBE_HADAMARD.applied"]["value"]
    put("rewrite_optimizer.HYPERCUBE_HADAMARD.hit_ratio", applied / tried if tried else 0.0, "ratio")
    for rule in RULES:
        put(f"rewrite_optimizer.{rule}.accepted", accepted[rule], "count")
    put("rewrite_optimizer.rejected", rejected, "count")
    put("rewrite_optimizer.optimize.s", fn("rewrite_optimizer.optimize")["s"], "s")
    put("rewrite_optimizer.self_s", fn("rewrite_optimizer.optimize")["self_s"], "s")
    put("rewrite_optimizer.verify_s", trace["verify"]["s"], "s")
    put("rewrite_optimizer.verify_calls", trace["verify"]["calls"], "count")

    for name in ("walk_engine.step_unitary", "numerics.evolve_unitary", "walk_engine.classify_phased_bitflip",
                 "numerics.phase_distance", "numerics.spectral_norm"):
        put(f"{name}.calls", fn(name)["calls"], "count")
        put(f"{name}.s", fn(name)["s"], "s")
    for name in ("walk_engine.evolve_state", "walk_engine.total_unitary", "gate_compiler.parse_circuit",
                 "gate_compiler.compile_circuit", "gate_compiler.circuit_unitary",
                 "graph_model.parse_dynamic_graph", "graph_model.serialize_dynamic_graph"):
        put(f"{name}.s", fn(name)["s"], "s")
    for name in ("gate_compiler.schedule_phases", "graph_model.adjacency_matrix", "graph_model.period"):
        put(f"{name}.calls", fn(name)["calls"], "count")
    put("graph_model.json_bytes", trace["json_bytes"], "bytes")
    put("cli.self_s", sum(v["self_s"] for k, v in names.items() if k.startswith("cli.")), "s")

    # self times partition the traced pass: six layers plus the harness
    layer_total = 0.0
    for layer in LAYERS:
        own = sum(v["self_s"] for k, v in names.items() if k.startswith(layer + "."))
        layer_total += own
        put(f"layer.{layer}.self_s", own, "s")
    put("layer.bench.self_s", trace["pass_s"] - trace["top_level_s"], "s")
    put("trace.layer_share", layer_total / trace["pass_s"], "ratio")
    put("trace.pass_s", trace["pass_s"], "s")
    put("trace.untraced_pass_s", untraced["pass_s"], "s")
    calibrated = (trace["pass_s"] / traced["speed_factor"]) / (untraced["pass_s"] / untraced["speed_factor"])
    put("trace.overhead_share", calibrated - 1.0, "ratio")
    put("trace.spans", trace["spans"], "count")
    return metrics


def _print_rows(result: dict) -> None:
    for row in result["rows"]:
        print("row " + json.dumps(row, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="dynwalk benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(STAGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        if not os.path.isfile(os.path.join(SRC, "dynwalk", "cli.py")):
            raise RunFailed(f"no package source at {SRC}/dynwalk")
        run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
        shutil.rmtree(run_dir, ignore_errors=True)
        print("env " + json.dumps(_describe_environment(), sort_keys=True))
        deterministic = True
        if args.trace:
            _, _, untraced = _run_worker(args, "pass", os.path.join(run_dir, "untraced"), deadline)
            _, _, traced = _run_worker(args, "pass", os.path.join(run_dir, "traced"), deadline, trace=1)
            deterministic = traced["outputs_sha256"] == untraced["outputs_sha256"]
            merged = merge_rounds([traced])
            metrics = per_layer(traced, untraced)
            print("note: step_unitary, classify_phased_bitflip, spectral_norm and period calls made"
                  " under optimize go through lru_cache helpers, so they count cache misses")
        else:
            setups, rounds = [], []
            for k in range(SETUP_SAMPLES - ROUNDS):
                setup_dir = os.path.join(run_dir, f"setup{k}")
                ready, factor, _ = _run_worker(args, "setup", setup_dir, deadline)
                setups.append((ready, factor))
                shutil.rmtree(setup_dir)
            for k in range(ROUNDS):
                ready, factor, result = _run_worker(args, "pass", os.path.join(run_dir, f"round{k}"), deadline, k)
                setups.append((ready, factor))
                rounds.append(result)
            merged = merge_rounds(rounds)
            metrics = end_to_end(merged, setups)
            tail = tail_latency([row["wall_s"] for row in merged["rows"]])
            print(f"rounds pass_s {merged['pass_s']} speed factors {merged['speed_factor']}")
            print(f"set-up speed factors {[factor for _, factor in setups]}")
            print("uncalibrated " + json.dumps(timings(merged, setups, False)))
            print(f"latency_tail_s is p{tail['percentile']:.1f} of {tail['samples']} programs")
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _print_rows(merged)
    failed = sum(1 for row in merged["rows"] if not row["ok"])
    print(f"outputs sha256 {merged['outputs_sha256']}")
    if not deterministic:
        print("error: the traced and untraced passes wrote different outputs", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    correct = failed == 0 and deterministic
    print(json.dumps({"correct": correct, "attempted": len(merged["rows"]), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
