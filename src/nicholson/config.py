"""Run configuration: flat sectioned key=value files plus overrides.

A run is described by a ``[model]`` section (domain, grid, kinetic
parameters, coefficient specs) and a ``[task]`` section (what to do with
the model).  Values are plain text; ``--set section.key=value`` overrides
from the command line take precedence over the file, so a run can also be
assembled entirely from overrides.  Example::

    [model]
    length = 3.0
    n_points = 301
    a = 2.5
    d = 0.1
    tau_hat = 2.0
    p = 30 + 1*sin(1*x + 0)
    delta = 2 + 1*cos(0.2*x + 0)

    [task]
    name = simulate
    t_end = 400
    dt = 5e-3

Exactly one of ``d``/``r`` must be given (the other is derived by
d * r = 1) and at most one of ``tau_hat``/``tau`` (delay defaults to 0,
which the delay-free tasks never read).  Every model number must be
finite.  The ``[task]`` keys follow the rules of the one table
:data:`OPTIONS`, which :func:`load_config` applies before any output or
solve.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D
from .model import CoefficientError, ModelParams, build_coefficients, coefficient_values
from .simulate import snap_step

TASKS = ("steady", "hopf", "normalform", "simulate", "average-dde", "sweep")
_REQUIRED = object()  # the default of a key its task cannot run without


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


def _finite_positive(value: float) -> bool:
    return 0 < value < math.inf


_NOUNS = {float: "a number", int: "an integer", _floats: "a list of numbers"}
# Each [task] key: how its text is read, the test its value must pass, the
# condition that finishes "task.<key> ..." for a value that fails it, and
# its default for each task that reads it (a value, a function of the
# model, or _REQUIRED).  A history of None is 90% of the steady state.
OPTIONS = {
    "n_max": (int, lambda n: n >= 0, "must be nonnegative",
              {"hopf": 3, "normalform": 0}),
    "r_cap": (float, lambda cap: cap > 0, "must be positive",
              {"hopf": 0.5, "normalform": 0.5, "sweep": 0.5}),
    "r_list": (_floats, lambda rs: all(map(_finite_positive, rs))
               and all(a > b for a, b in zip(rs, rs[1:])),
               "entries must be positive and finite, in descending order",
               {"sweep": _REQUIRED}),
    "tau_check": (float, lambda tau: 0 <= tau < math.inf,
                  "is a delay, and a delay must be nonnegative and finite",
                  {"average-dde": lambda model: model.tau_hat}),
    "t_end": (float, _finite_positive, "must be positive and finite",
              {"simulate": 400.0, "average-dde": 400.0}),
    "dt": (float, _finite_positive, "must be positive and finite",
           {"simulate": 5e-3, "average-dde": 1e-3}),
    "snapshot_stride": (int, lambda k: k >= 0, "must be nonnegative",
                        {"simulate": 0}),
    "history": (float, _finite_positive, "must be positive and finite",
                {"simulate": None, "average-dde": None}),
}


def task_keys(task: str) -> list[str]:
    """The ``[task]`` keys ``task`` reads besides ``name``."""
    return [key for key, rule in OPTIONS.items() if task in rule[3]]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (exit code 1)."""


@dataclass(frozen=True)
class RunConfig:
    """A validated model plus one task with its typed, checked options."""

    model: ModelParams
    task: str
    options: dict


def parse_overrides(pairs) -> dict[tuple[str, str], str]:
    """Turn ``section.key=value`` strings into an override mapping."""
    overrides: dict[tuple[str, str], str] = {}
    for pair in pairs or ():
        head, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"override {pair!r} is not of the form section.key=value")
        section, dot, key = head.partition(".")
        if not dot or not section or not key:
            raise ConfigError(f"override {pair!r} is not of the form section.key=value")
        overrides[(section.strip(), key.strip())] = value.strip()
    return overrides


def _read_sections(path, overrides) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
    sections = {name: dict(parser[name]) for name in parser.sections()}
    for (section, key), value in (overrides or {}).items():
        sections.setdefault(section, {})[key] = value
    return sections


def _read(raw: str, name: str, read, accepts, condition: str):
    """``read(raw)`` if ``accepts`` it, else a ConfigError naming ``name``."""
    try:
        value = read(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} = {raw!r} is not {_NOUNS[read]}") from exc
    if not accepts(value):
        raise ConfigError(f"{name} {condition}, got {raw}")
    return value


def _pop_model_number(table: dict, key: str, kind=float):
    raw = table.pop(key, None)
    return None if raw is None else _read(
        raw, f"model.{key}", kind, lambda x: -math.inf < x < math.inf,
        "must be finite")


def read_coefficient_csv(path, grid: Grid1D) -> np.ndarray:
    """Nodal values from a two-column CSV with header ``x,value``.

    The x column must match the grid nodes in order.
    """
    raw = np.genfromtxt(path, delimiter=",", names=True)
    names = raw.dtype.names
    if names is None or len(names) != 2 or names[0] != "x":
        raise ValueError(f"{path}: expected CSV header 'x,value'")
    x = np.atleast_1d(raw[names[0]])
    if x.size != grid.n_points:
        raise ValueError(f"{path}: {x.size} rows but grid has {grid.n_points} nodes")
    if not np.allclose(x, grid.nodes, atol=1e-9 * max(1.0, grid.length)):
        raise ValueError(f"{path}: x column does not match the grid nodes")
    return np.atleast_1d(raw[names[1]])


def _coefficient(table: dict, name: str, grid: Grid1D) -> np.ndarray:
    inline = table.pop(name, None)
    csv_path = table.pop(f"{name}_csv", None)
    if (inline is None) == (csv_path is None):
        raise ConfigError(
            f"model needs exactly one of {name!r} (inline spec) or "
            f"{name}_csv (sampled file)"
        )
    try:
        if inline is not None:
            return coefficient_values(inline, grid)
        return read_coefficient_csv(csv_path, grid)
    except ValueError as exc:
        raise ConfigError(f"model.{name}: {exc}") from exc


def load_config(path=None, overrides=None, grid_override: int | None = None) -> RunConfig:
    """Build a :class:`RunConfig` from a file and/or override pairs.

    ``grid_override`` replaces ``model.n_points`` (the --grid flag).

    Raises
    ------
    ConfigError
        On any missing, duplicated, unknown or invalid entry.
    """
    sections = _read_sections(path, overrides)
    known = {"model", "task"}
    unknown = set(sections) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "model" not in sections:
        raise ConfigError("config is missing the [model] section")
    if "task" not in sections:
        raise ConfigError("config is missing the [task] section")
    model_table = dict(sections["model"])
    task_table = dict(sections["task"])

    length = _pop_model_number(model_table, "length")
    if length is None:
        raise ConfigError("model.length is required")
    n_points = _pop_model_number(model_table, "n_points", int)
    if grid_override is not None:
        n_points = grid_override
    if n_points is None:
        n_points = 301
    try:
        grid = Grid1D(length=length, n_points=n_points)
    except ValueError as exc:
        raise ConfigError(f"model grid: {exc}") from exc

    a = _pop_model_number(model_table, "a")
    if a is None:
        raise ConfigError("model.a is required")
    if a <= 0:
        raise ConfigError(f"model.a must be positive, got {a:.6g}")

    d = _pop_model_number(model_table, "d")
    r = _pop_model_number(model_table, "r")
    if (d is None) == (r is None):
        raise ConfigError("model needs exactly one of d or r (d * r = 1)")
    if d is not None:
        if d <= 0:
            raise ConfigError(f"model.d must be positive, got {d:.6g}")
        r = 1.0 / d
    if not 0 < r < math.inf:  # 1/d overflows for a subnormal d
        raise ConfigError(f"model.r must be positive and finite, got {r:.6g}")

    tau_hat = _pop_model_number(model_table, "tau_hat")
    tau = _pop_model_number(model_table, "tau")
    if tau_hat is not None and tau is not None:
        raise ConfigError("model accepts at most one of tau_hat or tau")
    if tau is None:
        tau = (tau_hat / r) if tau_hat is not None else 0.0
    if not 0 <= tau < math.inf:  # tau_hat / r overflows for a tiny r
        raise ConfigError(f"delay must be nonnegative and finite, got tau = {tau:.6g}")

    p = _coefficient(model_table, "p", grid)
    delta = _coefficient(model_table, "delta", grid)
    if model_table:
        raise ConfigError(f"unknown model keys: {sorted(model_table)}")
    try:
        coeffs = build_coefficients(p, delta, grid)
        model = ModelParams(r=r, a=a, tau=tau, grid=grid, coeffs=coeffs)
    except CoefficientError as exc:
        raise ConfigError(f"model.{exc.name}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    task = task_table.pop("name", None)
    if task is None:
        raise ConfigError(f"task.name is required; one of {', '.join(TASKS)}")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {', '.join(TASKS)}")
    return RunConfig(model=model, task=task,
                     options=_task_options(task, task_table, model))


def _task_options(task: str, table: dict, model: ModelParams) -> dict:
    """Read, check and default the ``[task]`` keys by :data:`OPTIONS`."""
    keys = task_keys(task)
    unread = sorted(set(table) - set(keys))
    if unread:
        raise ConfigError(f"task {task!r} does not read "
                          + ", ".join(f"task.{key}" for key in unread))
    options = {}
    for key in keys:
        *rule, defaults = OPTIONS[key]
        default = defaults[task]
        if key in table:
            options[key] = _read(table[key], f"task.{key}", *rule)
        elif default is _REQUIRED:
            raise ConfigError(f"task.{key} is required for task {task!r}")
        else:
            options[key] = default(model) if callable(default) else default
    # hopf and normalform solve at model.r, sweep at each r of its list
    name, targets = (("task.r_list entry", options.get("r_list", []))
                     if task == "sweep" else ("model.r =", [model.r]))
    if max(targets, default=0) > options.get("r_cap", math.inf):
        raise ConfigError(
            f"{name} {max(targets):.6g} exceeds the working cap "
            f"{options['r_cap']:.6g}; the asymptotic theory degrades away "
            "from r = 0. Set task.r_cap to opt in explicitly."
        )
    # the simulators' own step snap, tried before any output
    if "dt" in options:
        name = "task.tau_check" if "tau_check" in table else "model.tau_hat"
        delay = options.get("tau_check", model.tau_hat)
        try:
            snap_step(delay, options["dt"], options["t_end"])
        except ValueError as exc:
            raise ConfigError(f"{name} = {delay:.6g} with task.dt = "
                              f"{options['dt']:.6g}: {exc}") from exc
    # the steady state, which is also the simulators' default start
    if (task in ("steady", "simulate", "average-dde") and model.coeffs.c0 <= 0
            and options.get("history") is None):
        raise ConfigError(f"model.p and model.delta give c0 = {model.coeffs.c0:.6g}"
                          " <= 0: no positive steady state exists")
    return options


def echo_lines(config: RunConfig) -> list[str]:
    """Resolved configuration as key=value lines for the run manifest."""
    model = config.model
    lines = [
        "[model]",
        f"length = {model.grid.length:.12g}",
        f"n_points = {model.grid.n_points}",
        f"a = {model.a:.12g}",
        f"r = {model.r:.12g}",
        f"d = {model.d:.12g}",
        f"tau = {model.tau:.12g}",
        f"tau_hat = {model.tau_hat:.12g}",
        f"p_bar = {model.coeffs.p_bar:.12g}",
        f"delta_bar = {model.coeffs.delta_bar:.12g}",
        f"c0 = {model.coeffs.c0:.12g}",
        "[task]",
        f"name = {config.task}",
    ]
    for key, value in sorted(config.options.items()):
        text = ",".join(map(str, value)) if isinstance(value, list) else value
        lines.append(f"{key} = {'default' if value is None else text}")
    return lines
