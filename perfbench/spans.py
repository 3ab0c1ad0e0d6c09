"""Run-time spans around the calls into each module of ``ponte``.

Each target is a module-level name, wrapped in the namespace where the
caller looks it up: a name imported with ``from x import y`` is wrapped
in the importer (``ponte.cli.tension_only_analyze``), not where it is
defined. A target missing at some commit is skipped and reports 0 calls,
so the benchmark keeps running after internals are renamed.

Spans are kept in memory; self time (a span's duration minus the time
its child spans cover) and counters are summed as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter


def _matrix_order(args, kwargs, key: str) -> tuple[int, int]:
    a = args[0] if args else kwargs.get(key)
    shape = getattr(a, "shape", ())
    return (shape[0], shape[1]) if len(shape) == 2 else (0, 0)


def _solve_linear(args, kwargs, result, exc, add) -> None:
    n, _ = _matrix_order(args, kwargs, "K")
    # Computed from the order n, not measured: dense Cholesky plus two
    # triangular solves, and the bytes of one dense n x n float64 matrix.
    add("solver.solve_linear.flops", n**3 / 3 + 2 * n**2)
    add("solver.solve_linear.bytes", 8 * n**2)
    if exc is not None and type(exc).__name__ == "SingularSystem":
        add("solver.solve_linear.singular", 1)


def _lstsq(args, kwargs, result, exc, add) -> None:
    m, n = _matrix_order(args, kwargs, "a")
    m, n = max(m, n), min(m, n)
    # Computed: the Householder bidiagonalization that dominates LAPACK gelsd.
    add("numpy.lstsq.flops", 4 * m * n**2 - 4 * n**3 / 3)


def _iterations(args, kwargs, result, exc, add) -> None:
    add("solver.iterations", getattr(result, "iterations_used", 0))


def _text_in(counter: str):
    def count(args, kwargs, result, exc, add) -> None:
        if args and isinstance(args[0], str):
            add(counter, len(args[0].encode()))
    return count


def _text_out(counter: str):
    def count(args, kwargs, result, exc, add) -> None:
        if isinstance(result, str):
            add(counter, len(result.encode()))
    return count


# (module, name looked up there, layer, counter callback or None)
TARGETS = (
    ("ponte.cli", "main", "cli.main", None),
    ("ponte.catalog", "generate", "catalog.generate", None),
    ("ponte.cli", "serialize_model", "textio.serialize_model", _text_out("textio.bytes")),
    ("ponte.cli", "parse_model_file", "textio.parse_model_file", _text_in("textio.bytes")),
    ("ponte.cli", "parse_plan_file", "textio.parse_plan_file", _text_in("textio.bytes")),
    ("ponte.cli", "validate", "model.validate", None),
    ("ponte.solver", "validate", "model.validate", None),
    ("ponte.solver", "dof_map", "model.dof_map", None),
    ("ponte.cli", "tension_only_analyze", "solver.tension_only_analyze", _iterations),
    ("ponte.solver", "tension_only_analyze", "solver.tension_only_analyze", _iterations),
    ("ponte.solver", "solve_linear", "solver.solve_linear", _solve_linear),
    ("numpy.linalg", "lstsq", "numpy.lstsq", _lstsq),
    ("ponte.solver", "member_end_forces", "solver.member_end_forces", None),
    ("ponte.solver", "reactions", "solver.reactions", None),
    ("ponte.cli", "write_report", "reporting.write_report", _text_out("reporting.bytes")),
    ("ponte.cli", "build_diagram", "reporting.build_diagram", None),
    ("ponte.cli", "render_svg", "reporting.render_svg", _text_out("reporting.bytes")),
    ("ponte.erection", "expand_plan", "erection.expand_plan", None),
    ("ponte.erection", "analyze", "erection.analyze", None),
    ("ponte.cli", "run_plan", "erection.run_plan", None),
)

# Per-layer metrics, in the order they are reported.
SELF_TIME_LAYERS = (
    "cli.main",
    "catalog.generate",
    "textio.serialize_model",
    "textio.parse_model_file",
    "textio.parse_plan_file",
    "model.validate",
    "model.dof_map",
    "solver.tension_only_analyze",
    "solver.solve_linear",
    "numpy.lstsq",
    "solver.member_end_forces",
    "solver.reactions",
    "reporting.write_report",
    "reporting.build_diagram",
    "reporting.render_svg",
    "erection.expand_plan",
    "erection.run_plan",
)
CALL_LAYERS = (
    "model.validate",
    "model.dof_map",
    "solver.solve_linear",
    "numpy.lstsq",
    "erection.expand_plan",
    "erection.analyze",
)
COUNTERS = (
    ("textio.bytes", "B"),
    ("reporting.bytes", "B"),
    ("solver.iterations", "count"),
    ("solver.solve_linear.flops", "flop_computed"),
    ("solver.solve_linear.bytes", "B_computed"),
    ("numpy.lstsq.flops", "flop_computed"),
)


class Tracer:
    """Collects spans while ``recording`` is true; a pass-through otherwise."""

    def __init__(self):
        self.recording = False
        self.op = -1
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []  # op, name, parent, start, end
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, child seconds]

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; returns the ``module.name`` of
        those that do not."""
        missing = []
        for module_name, attr, layer, count in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(fn, layer, count))
            else:
                missing.append(f"{module_name}.{attr}")
        return missing

    def _wrap(self, fn, layer: str, count):
        if layer not in self.names:
            self.names.append(layer)
        name_id = self.names.index(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((self.op, name_id, parent, 0.0, 0.0))
            frame = [index, 0.0]
            self._stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[index] = (self.op, name_id, parent, start, end)
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                if count is not None:
                    count(args, kwargs, result, exc, self.add)

        return traced

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value per traced op, unit)."""
        per_op = 1.0 / max(ops, 1)
        out = {f"{layer}.self_s": (self.self_s[layer] * per_op, "s") for layer in SELF_TIME_LAYERS}
        out.update({f"{layer}.calls": (self.calls[layer] * per_op, "count") for layer in CALL_LAYERS})
        out.update({name: (self.counters[name] * per_op, unit) for name, unit in COUNTERS})
        solves = self.calls["solver.solve_linear"]
        out["solver.solve_linear.fail_ratio"] = (
            self.counters["solver.solve_linear.singular"] / solves if solves else 0.0, "ratio")
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: a header with the layer names, then one
        ``[op, layer index, parent span, start, end]`` per span."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"layers": self.names}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
