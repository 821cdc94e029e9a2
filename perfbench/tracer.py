"""Spans around calls into the package's public functions.

The tracer replaces each traced function under its name in every
``nicholson`` module that holds it, so calls between modules are seen too
(``hopf`` binds ``solve_steady_state`` at import, ``normalform`` binds
``characteristic_matrix``).  Nothing in the package is edited; ``uninstall``
puts the original functions back.

A span records its name, start, end, the enclosing span and the op it
belongs to, plus a few counts read off the call's result.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import statistics
import time
from dataclasses import dataclass, field

# (layer, module, function) for every traced public function; the io layer
# is every public write_*_csv function, wherever it lives.
TARGETS = (
    ("cli", "cli", "main"),
    ("config", "config", "load_config"),
    ("steady", "steady", "solve_steady_state"),
    ("hopf", "hopf", "continue_hopf"),
    ("hopf", "hopf", "solve_poisson_meanzero"),
    ("hopf", "hopf", "characteristic_matrix"),
    ("normalform", "normalform", "normal_form_report"),
    ("normalform", "normalform", "second_harmonic_correction"),
    ("normalform", "normalform", "zero_mode_correction"),
    ("simulate", "simulate", "simulate_pde"),
    ("simulate", "simulate", "default_history"),
    ("simulate", "simulate", "simulate_average_dde"),
    ("simulate", "simulate", "estimate_period"),
)


@dataclass
class Span:
    name: str
    parent: "Span | None"
    op_id: str | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _steady_info(span, args, result, exc):
    if exc is None:
        span.info["newton_iters"] = result.newton_iterations
    else:
        span.info["failed"] = 1
        span.info["newton_iters"] = getattr(exc, "iterations", 0)


def _steps_info(span, args, result, exc):
    if exc is None:
        span.info["steps"] = len(result.times) - 1


def _dense_info(span, args, result, exc):
    if exc is None:
        span.info["dense_bytes"] = result.nbytes


def _file_info(span, args, result, exc):
    if exc is None:
        span.info["bytes"] = os.path.getsize(args[0])


INSPECT = {
    "steady.solve_steady_state": _steady_info,
    "simulate.simulate_pde": _steps_info,
    "simulate.simulate_average_dde": _steps_info,
    "hopf.characteristic_matrix": _dense_info,
}


class Tracer:
    """Collects spans while installed; ``op_id`` tags the spans of an op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id: str | None = None
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        inspect = INSPECT.get(name, _file_info if name.startswith("io.") else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.op_id)
            self._stack.append(span)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                if inspect:
                    inspect(span, args, None, exc)
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter()
            if inspect:
                inspect(span, args, result, None)
            return result

        return traced

    def install(self) -> None:
        import nicholson

        modules = [importlib.import_module(f"nicholson.{info.name}")
                   for info in pkgutil.iter_modules(nicholson.__path__)]
        targets = []
        for layer, module_name, func in TARGETS:
            fn = getattr(importlib.import_module(f"nicholson.{module_name}"),
                         func, None)
            if fn is None:
                self.missing.append(f"{module_name}.{func}")
            else:
                targets.append((f"{layer}.{func}", fn))
        for module in modules:
            for attr, value in vars(module).items():
                if (attr.startswith("write_") and attr.endswith("_csv")
                        and callable(value) and value.__module__ == module.__name__):
                    targets.append((f"io.{attr}", value))
        wrappers = {id(fn): (fn, self.wrap(name, fn)) for name, fn in targets}
        for module in [nicholson] + modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {id(span): span.seconds for span in spans}
    for span in spans:
        if span.parent is not None and id(span.parent) in own:
            own[id(span.parent)] -= span.seconds
    return own


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one pass from its spans (see README.md)."""
    own = self_seconds(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def busy(name):
        return sum(span.seconds for span in by_name.get(name, ()))

    def self_s(name):
        return sum(own[id(span)] for span in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, key):
        return sum(span.info.get(key, 0) for span in by_name.get(name, ()))

    steady = "steady.solve_steady_state"
    hopf = "hopf.continue_hopf"
    pde = "simulate.simulate_pde"
    dde = "simulate.simulate_average_dde"
    io_names = [name for name in by_name if name.startswith("io.")]
    io_busy = sum(busy(name) for name in io_names)
    io_bytes = sum(total(name, "bytes") for name in io_names)
    steady_in_hopf = sum(1 for span in by_name.get(steady, ())
                         if span.parent is not None and span.parent.name == hopf)
    failures = total(steady, "failed")

    def per(value, count):
        return value / count if count else 0.0

    return {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "config.load_config.busy_s": busy("config.load_config"),
        "steady.solve_steady_state.calls": calls(steady),
        "steady.solve_steady_state.busy_s": busy(steady),
        "steady.solve_steady_state.newton_iters": total(steady, "newton_iters"),
        "steady.solve_steady_state.failures": failures,
        "steady.solve_steady_state.ok_ratio": per(calls(steady) - failures, calls(steady)),
        "hopf.continue_hopf.calls": calls(hopf),
        "hopf.continue_hopf.self_s": self_s(hopf),
        "hopf.continue_hopf.steady_calls_per_call": per(steady_in_hopf, calls(hopf)),
        "hopf.solve_poisson_meanzero.busy_s": busy("hopf.solve_poisson_meanzero"),
        "hopf.characteristic_matrix.calls": calls("hopf.characteristic_matrix"),
        "hopf.characteristic_matrix.busy_s": busy("hopf.characteristic_matrix"),
        "hopf.characteristic_matrix.dense_bytes_computed":
            total("hopf.characteristic_matrix", "dense_bytes"),
        "normalform.normal_form_report.self_s": self_s("normalform.normal_form_report"),
        "normalform.second_harmonic_correction.self_s":
            self_s("normalform.second_harmonic_correction"),
        "normalform.zero_mode_correction.self_s":
            self_s("normalform.zero_mode_correction"),
        "simulate.simulate_pde.self_s": self_s(pde),
        "simulate.simulate_pde.steps": total(pde, "steps"),
        "simulate.simulate_pde.us_per_step": 1e6 * per(self_s(pde), total(pde, "steps")),
        "simulate.simulate_average_dde.busy_s": busy(dde),
        "simulate.simulate_average_dde.steps": total(dde, "steps"),
        "simulate.simulate_average_dde.us_per_step":
            1e6 * per(busy(dde), total(dde, "steps")),
        "simulate.default_history.busy_s": busy("simulate.default_history"),
        "simulate.estimate_period.busy_s": busy("simulate.estimate_period"),
        "io.write_csv.calls": sum(calls(name) for name in io_names),
        "io.write_csv.busy_s": io_busy,
        "io.write_csv.bytes": io_bytes,
        "io.write_csv.mb_per_s": per(io_bytes / 1e6, io_busy),
    }


def median_metrics(per_pass: list[dict]) -> dict:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready records; ``parent`` is an index into the list."""
    index = {id(span): k for k, span in enumerate(spans)}
    return [
        {"name": span.name, "op": span.op_id, "start": span.start,
         "end": span.end,
         "parent": None if span.parent is None else index.get(id(span.parent)),
         **span.info}
        for span in spans
    ]


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    quantity = name.rsplit(".", 1)[-1]
    if quantity in ("calls", "steps", "newton_iters", "failures", "fine_grid_ok"):
        return "count"
    if quantity in ("ok_ratio", "steady_calls_per_call"):
        return "ratio"
    return {"us_per_step": "us", "bytes": "B", "dense_bytes_computed": "B",
            "mb_per_s": "MB/s"}.get(quantity, "s")
