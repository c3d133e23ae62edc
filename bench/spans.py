"""In-memory span tracer that wraps ghzprotect functions from outside the package.

Each traced function is replaced, in every ``ghzprotect`` module that holds
it by name, with a wrapper recording one span per call: an id, the id of the
span that was open when it started (its parent), the function name, the unit
of work it belongs to, and its start and end times.  A span's self time is
its duration minus the time its child spans cover.  Counters that a layer can
only report from its arguments or result (grid points, masked points, dense
branches, raised degeneracies) are gathered by per-function hooks at the same
boundary.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

from ghzprotect.params import DegeneracyError


def _grid_hook(args, kwargs, result, error, counters) -> None:
    if error is not None:
        return
    prob = result[0]
    counters["points"] += prob.size
    counters["nan_points"] += int(np.count_nonzero(np.isnan(prob)))
    counters["point_classes"] += prob.size * (args[0] + 1)


def _scalar_hook(args, kwargs, result, error, counters) -> None:
    if isinstance(error, DegeneracyError):
        counters["degenerate"] += 1
    elif error is not None:
        counters["failed"] += 1


def _dense_hook(args, kwargs, result, error, counters) -> None:
    counters["branches"] += 2 ** args[0].n_qubits


#: (module, function, hook) for every traced boundary.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("cli", "main", None),
    ("optimize", "sweep_r", None),
    ("optimize", "maximize_metric", None),
    ("optimize", "maximize_fidelity_at_unit_probability", None),
    ("structured", "metrics_grid", _grid_hook),
    ("structured", "aggregate_metrics", _scalar_hook),
    ("closedform", "eta_opt_probability", None),
    ("closedform", "prob_total", None),
    ("closedform", "metrics_closedform", None),
    ("dense", "aggregate_metrics_dense", _dense_hook),
    ("dense", "do_nothing_baseline", None),
    ("validate", "run_validation", None),
)


class Tracer:
    """Records spans and per-function totals while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.unit = 0
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, self_s, counters = self.calls, self.self_s, self.counters[name]

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the id; filled in when the call ends
            frame = [span_id, 0.0]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                spans[span_id] = (span_id, parent, name, self.unit, start, end)
                if hook is not None:
                    hook(args, kwargs, result, error, counters)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every traced function wherever a ghzprotect module binds it."""
        modules = [m for k, m in sys.modules.items() if k == "ghzprotect" or k.startswith("ghzprotect.")]
        for module_name, func_name, hook in TARGETS:
            original = getattr(sys.modules[f"ghzprotect.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def total_self_s(self) -> float:
        return math.fsum(self.self_s.values())

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, unit, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
