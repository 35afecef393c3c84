"""In-memory span recording around the package's public functions.

``Tracer.install`` replaces every module-level binding of each public
function defined in the traced modules with a wrapper that records one
span: name, start, end, parent span, program id and whether the call
raised. The package imports functions by name (``rewrite_optimizer`` holds
its own ``phase_distance``), so every binding of the same function object
is replaced, in every traced module and in the package itself. Private
helpers are not wrapped; an ``lru_cache`` helper in ``rewrite_optimizer``
only reaches a wrapped function on a cache miss, so counts under
``optimize`` are miss counts.

Spans live in flat arrays until ``save`` writes them out at the end of the
run. ``summary`` derives per-function calls, inclusive time, self time
(duration minus the time covered by child spans) and failures.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

LAYERS = ("cli", "graph_model", "gate_compiler", "numerics", "walk_engine", "rewrite_optimizer")


class Tracer:
    def __init__(self, package: str = "dynwalk") -> None:
        self.package = package
        self.names: List[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.program = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.program_id = -1
        self.json_bytes = 0
        self._stack = [-1]
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, measure_json: str = "") -> Callable:
        nid = len(self.names)
        self.names.append(name)
        stack, name_of, parent, program = self._stack, self.name_of, self.parent, self.program
        start, end, raised, clock = self.start, self.end, self.raised, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            program.append(tracer.program_id)
            raised.append(1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            raised[idx] = 0
            if measure_json == "argument":
                tracer.json_bytes += len(args[0])
            elif measure_json == "result":
                tracer.json_bytes += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer, at every binding."""
        modules = {layer: importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS}
        holders = list(modules.values()) + [importlib.import_module(self.package)]
        measure = {"graph_model.parse_dynamic_graph": "argument", "graph_model.serialize_dynamic_graph": "result"}
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj, measure.get(name, ""))
                for holder in holders:
                    for bound, value in list(vars(holder).items()):
                        if value is obj:
                            self._patched.append((holder, bound, obj))
                            setattr(holder, bound, wrapper)

    def uninstall(self) -> None:
        for holder, bound, original in reversed(self._patched):
            setattr(holder, bound, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name_of, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.raised, dtype=np.int8),
        )

    def summary(self) -> Dict[str, object]:
        """Per-name totals, self times, and span-level facts the metrics need."""
        name_of, parent, start, end, raised = self._arrays()
        k = len(self.names)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - covered
        calls = np.bincount(name_of, minlength=k)
        total = np.bincount(name_of, weights=duration, minlength=k)
        own = np.bincount(name_of, weights=self_time, minlength=k)
        failed = np.bincount(name_of, weights=raised.astype(np.float64), minlength=k)
        per_name = {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i]), "raised": int(failed[i])}
            for i, name in enumerate(self.names)
        }
        # phase_distance called by optimize itself: its own verification
        parent_name = np.where(has_parent, name_of[np.where(has_parent, parent, 0)], -1)
        verify = (name_of == self.names.index("numerics.phase_distance")) & (
            parent_name == self.names.index("rewrite_optimizer.optimize")
        )
        return {
            "per_name": per_name,
            "verify": {"calls": int(verify.sum()), "s": float(duration[verify].sum())},
            "top_level_s": float(duration[~has_parent].sum()),
            "spans": int(len(duration)),
            "json_bytes": self.json_bytes,
        }

    def save(self, path: str) -> None:
        name_of, parent, start, end, raised = self._arrays()
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=name_of,
            parent=parent,
            program=np.frombuffer(self.program, dtype=np.int32),
            start=start,
            end=end,
            raised=raised,
        )
