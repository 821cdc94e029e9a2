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
which the delay-free tasks never read).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .grid import Grid1D
from .model import CoefficientSpec, ModelParams, build_coefficients

# Each task and the [task] keys it reads besides ``name``.
TASKS = {
    "steady": (),
    "hopf": ("n_max", "r_cap"),
    "normalform": ("n_max", "r_cap"),
    "simulate": ("t_end", "dt", "tail_fraction", "snapshot_stride", "history"),
    "average-dde": ("tau_check", "t_end", "dt", "tail_fraction", "history"),
    "sweep": ("r_list", "r_cap"),
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (exit code 1)."""


@dataclass(frozen=True)
class RunConfig:
    """A validated model plus one task with its raw option strings."""

    model: ModelParams
    task: str
    options: dict = field(default_factory=dict)


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


def _number(raw: str, kind, name: str):
    """``kind(raw)``, or a ConfigError naming ``name``."""
    try:
        return kind(raw)
    except ValueError as exc:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{name} = {raw!r} is not {noun}") from exc


def _pop_model_number(table: dict, key: str, kind=float):
    raw = table.pop(key, None)
    return None if raw is None else _number(raw, kind, f"model.{key}")


def _coefficient(table: dict, name: str, grid: Grid1D) -> CoefficientSpec:
    inline = table.pop(name, None)
    csv_path = table.pop(f"{name}_csv", None)
    if (inline is None) == (csv_path is None):
        raise ConfigError(
            f"model needs exactly one of {name!r} (inline spec) or "
            f"{name}_csv (sampled file)"
        )
    try:
        if inline is not None:
            return CoefficientSpec.parse(inline)
        return CoefficientSpec.from_csv(csv_path, grid)
    except ValueError as exc:
        raise ConfigError(f"model.{name}: {exc}") from exc


def load_config(path=None, overrides=None, grid_override: int | None = None) -> RunConfig:
    """Build a :class:`RunConfig` from a file and/or override pairs.

    ``grid_override`` replaces ``model.n_points`` (the --grid flag).

    Raises
    ------
    ConfigError
        On any missing, duplicated, unknown, or ill-typed entry.
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

    d = _pop_model_number(model_table, "d")
    r = _pop_model_number(model_table, "r")
    if (d is None) == (r is None):
        raise ConfigError("model needs exactly one of d or r (d * r = 1)")
    if d is not None:
        if d <= 0:
            raise ConfigError(f"model.d must be positive, got {d:.6g}")
        r = 1.0 / d
    if r <= 0 or not math.isfinite(r):
        raise ConfigError(f"model.r must be positive and finite, got {r:.6g}")

    tau_hat = _pop_model_number(model_table, "tau_hat")
    tau = _pop_model_number(model_table, "tau")
    if tau_hat is not None and tau is not None:
        raise ConfigError("model accepts at most one of tau_hat or tau")
    if tau is None:
        tau = (tau_hat / r) if tau_hat is not None else 0.0
    if tau < 0:
        raise ConfigError(f"delay must be nonnegative, got {tau:.6g}")

    p_spec = _coefficient(model_table, "p", grid)
    delta_spec = _coefficient(model_table, "delta", grid)
    if model_table:
        raise ConfigError(f"unknown model keys: {sorted(model_table)}")
    try:
        coeffs = build_coefficients(p_spec, delta_spec, grid)
        model = ModelParams(r=r, a=a, tau=tau, grid=grid, coeffs=coeffs)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    task = task_table.pop("name", None)
    if task is None:
        raise ConfigError(f"task.name is required; one of {', '.join(TASKS)}")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {', '.join(TASKS)}")
    return RunConfig(model=model, task=task, options=task_table)


def _option(config: RunConfig, key: str, kind, default):
    raw = config.options.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"task.{key} is required for task {config.task!r}")
        return default
    return _number(raw, kind, f"task.{key}")


def option_float(config: RunConfig, key: str, default: float | None = None) -> float:
    return _option(config, key, float, default)


def option_int(config: RunConfig, key: str, default: int | None = None) -> int:
    return _option(config, key, int, default)


def option_float_list(config: RunConfig, key: str) -> list[float]:
    raw = config.options.get(key)
    if raw is None or not raw.strip():
        raise ConfigError(f"task.{key} (comma-separated list) is required")
    try:
        return [float(part) for part in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"task.{key} = {raw!r} is not a list of numbers") from exc


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
    lines.extend(f"{key} = {value}" for key, value in sorted(config.options.items()))
    return lines
