"""Per-layer tracing of octalg, installed from outside the package.

`Tracer.install()` wraps the public functions of each octalg module and
rebinds every module-level name (and every module-level dict value) that
refers to the original, so a call is seen wherever the caller looks the
name up: `cli`'s imported `associator_matrix`, `checks`' imported
`evaluate`, the bracket dispatch table, and so on.

Two kinds of wrapper share one stack of open calls:

* hot scalar methods of `Octonion` (`__mul__`, `inverse`, `__init__`,
  `equals`) only add to aggregated counters, because a span per call would
  cost more than an exact multiply;
* layer-level and request-level calls also record a span
  ``(id, parent_id, request, name, start, end, self_s)`` in memory.

Self time is a call's duration minus the time spent in the wrapped calls
it made.  The program's own code is not modified.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

perf_counter = time.perf_counter

# Prefix of the stderr line on which a traced child process writes its summary.
TRACE_MARKER = "octbench-trace "

# Metric prefix -> Octonion method counted but not spanned.
HOT_METHODS = {
    "core.mul": "__mul__",
    "core.inverse": "inverse",
    "core.new": "__init__",
    "core.equals": "equals",
}

# Module -> public functions recorded as spans.
SPAN_FUNCTIONS = {
    "brackets": (
        "multiplicative_associator",
        "multiplicative_commutator",
        "schafer_residual",
        "expand_word",
    ),
    "trees": ("evaluate", "enumerate_trees", "associator_matrix", "format_matrix_machine"),
    "kernels": ("multiply", "inverse"),
    "checks": ("run_checks",),
    "textform": ("parse_octonion", "format_coefficients", "format_octonion"),
    "exprs": ("parse_with_info", "eval_expr"),
    "cli": ("main",),
}

# Results whose exact denominators feed core.max_denominator_bits.
_DENOMINATOR_SOURCES = {
    "trees.evaluate",
    "brackets.multiplicative_associator",
    "brackets.multiplicative_commutator",
    "brackets.schafer_residual",
}

# Results whose row count feeds kernels.<name>.rows.
_ROW_SOURCES = {"kernels.multiply", "kernels.inverse"}


class Tracer:
    """Counters and spans for one process; disabled until `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.request = None
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.rows = defaultdict(int)
        self.max_denominator_bits = 0
        self.spans = []
        self._stack = []  # one [child_seconds, span_id, parent_id] frame per open call
        self._next_id = 0
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _enter(self, span: bool):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        if span:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent
        frame = [0.0, span_id, parent]
        stack.append(frame)
        return frame

    def _exit(self, name: str, frame, start: float, end: float, span: bool) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[0]
        if span:
            self.spans.append(
                (frame[1], frame[2], self.request, name, start, end, duration - frame[0])
            )

    def _observe(self, name: str, result) -> None:
        if name in _DENOMINATOR_SOURCES:
            coefficients = result.c
            if type(coefficients[0]) is Fraction:
                bits = max(v.denominator.bit_length() for v in coefficients)
                if bits > self.max_denominator_bits:
                    self.max_denominator_bits = bits
        elif name in _ROW_SOURCES:
            self.rows[name] += len(result)

    def wrap(self, name: str, func, span: bool = True):
        observe = name in _DENOMINATOR_SOURCES or name in _ROW_SOURCES

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            frame = self._enter(span)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(name, frame, start, perf_counter(), span)
            if observe:
                self._observe(name, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record a span around a block, e.g. one benchmark request."""
        if not self.enabled:
            yield
            return
        frame = self._enter(True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, perf_counter(), True)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the listed octalg functions; the modules must be importable."""
        from octalg import brackets, checks, cli, core, exprs, kernels, textform, trees

        modules = {
            "brackets": brackets, "checks": checks, "cli": cli, "core": core,
            "exprs": exprs, "kernels": kernels, "textform": textform, "trees": trees,
        }
        for name, attribute in HOT_METHODS.items():
            original = getattr(core.Octonion, attribute)
            setattr(core.Octonion, attribute, self.wrap(name, original, span=False))
            self._patches.append((core.Octonion, attribute, original))
        octalg_modules = [
            m for key, m in sys.modules.items() if key == "octalg" or key.startswith("octalg.")
        ]
        for module_name, functions in SPAN_FUNCTIONS.items():
            for function in functions:
                original = getattr(modules[module_name], function)
                self._rebind(original, self.wrap(f"{module_name}.{function}", original),
                             octalg_modules)

    def _rebind(self, original, wrapper, modules) -> None:
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._patches.append((value, dkey, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregated counters and all spans, as plain JSON data."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "rows": dict(self.rows),
            "max_denominator_bits": self.max_denominator_bits,
            "spans": self.spans,
        }

    def merge(self, summary: dict, request) -> None:
        """Fold a summary written by a traced child process into this one; the
        child's top-level spans become children of the currently open span."""
        for key in ("calls", "rows"):
            target = getattr(self, key)
            for name, value in summary[key].items():
                target[name] += value
        for key in ("total_s", "self_s"):
            target = getattr(self, key)
            for name, value in summary[key].items():
                target[name] += value
        self.max_denominator_bits = max(
            self.max_denominator_bits, summary["max_denominator_bits"]
        )
        offset = self._next_id
        frame = self._stack[-1] if self._stack else None
        for span_id, parent, _, name, start, end, self_s in summary["spans"]:
            if parent is None and frame is not None:
                frame[0] += end - start
            self.spans.append((
                span_id + offset,
                (frame[1] if frame else None) if parent is None else parent + offset,
                request, name, start, end, self_s,
            ))
            self._next_id = max(self._next_id, span_id + offset + 1)

    def write_spans(self, path) -> None:
        fields = ["id", "parent", "request", "name", "start", "end", "self_s"]
        with open(path, "w") as out:
            json.dump({"fields": fields, "spans": self.spans}, out)
