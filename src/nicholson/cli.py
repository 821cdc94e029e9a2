"""Command-line workbench orchestrating the solver modules.

Subcommands: ``steady``, ``hopf``, ``normalform``, ``simulate``,
``average-dde``, ``sweep`` and ``reproduce {fig1,fig2}``.  Each run reads a
config file and/or ``--set section.key=value`` overrides, writes CSV files
plus a ``summary.txt`` with the headline scalars into the output directory,
and records every produced file in a ``manifest.txt`` whose timestamped
header is the only non-deterministic byte in the run.

Exit codes: 0 success (including a NoHopf verdict, which is a result, not a
failure), 1 configuration error, 2 solver failure, 3 simulation blow-up.
Failure messages name the responsible module and operation.  The verdict
is decided from c0 by :func:`hopf.limit_phase` alone; :func:`run_task`
writes its text after ``NoHopf: `` as the whole summary, with no files.
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .config import (
    TASKS,
    ConfigError,
    RunConfig,
    echo_lines,
    load_config,
    parse_overrides,
)
from .hopf import (
    CrossingError,
    NoHopfError,
    SolvabilityError,
    continue_hopf,
    limit_nondegeneracy_integral,
    limit_transversality_real,
    nondegeneracy_integral,
    transversality,
    write_hopf_csv,
)
from .model import ModelParams
from .normalform import (
    ResonanceError,
    limit_lyapunov_real,
    normal_form_report,
    write_normalform_csv,
)
from .simulate import (
    BlowUpError,
    estimate_period,
    simulate_average_dde,
    simulate_pde,
    write_snapshot_csv,
    write_spacetime_csv,
    write_trace_csv,
)
from .steady import NewtonConvergenceError, solve_steady_state, write_steady_csv
from .table import BLANK, write_table

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_BLOWUP = 3

_SOLVER_ERRORS = (
    NewtonConvergenceError,
    CrossingError,
    ResonanceError,
    SolvabilityError,
)


class TaskFailure(Exception):
    """Carries an exit code and a module-qualified message."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code

    def __reduce__(self):
        # pickled whole, so a failure in a worker process keeps its code
        return type(self), (self.exit_code, str(self))


def _call(fn, *args, **kwargs):
    """Run ``fn``, mapping failures to exit codes labeled ``module.function``."""
    label = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
    try:
        return fn(*args, **kwargs)
    except _SOLVER_ERRORS as exc:
        raise TaskFailure(EXIT_SOLVER, f"{label}: {exc}") from exc
    except BlowUpError as exc:
        raise TaskFailure(EXIT_BLOWUP, f"{label}: {exc}") from exc


def _prepare_out(out_dir: str) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _continuation(config: RunConfig):
    return _call(continue_hopf, config.model, r_cap=config.options["r_cap"])


def _task_steady(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    steady = _call(solve_steady_state, model)
    path = out / "steady.csv"
    write_steady_csv(path, model.grid, steady)
    mean_u = float(model.grid.integrate(steady.u) / model.grid.length)
    summary = [
        f"c0 = {model.coeffs.c0:.12g}",
        f"newton_iterations = {steady.newton_iterations}",
        f"residual_norm = {steady.residual_norm:.12g}",
        f"min_u = {steady.u.min():.12g}",
        f"max_u = {steady.u.max():.12g}",
        f"mean_u = {mean_u:.12g}",
        f"mean_density = {mean_u / model.a:.12g}",
    ]
    return summary, [path.name]


def _task_hopf(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    sol = _continuation(config)
    n_max = config.options["n_max"]
    path = out / "hopf.csv"
    write_hopf_csv(path, sol, n_max)
    integral = _call(nondegeneracy_integral, sol, 0)
    crossing = _call(transversality, sol, 0)
    summary = [
        f"c0 = {model.coeffs.c0:.12g}",
        f"r = {sol.r:.12g}",
        f"d = {model.d:.12g}",
        f"theta = {sol.theta:.12g}",
        f"omega = {sol.omega:.12g}",
        f"nu = {sol.nu:.12g}",
        f"beta = {sol.beta:.12g}",
        f"residual_norm = {sol.residual_norm:.12g}",
    ]
    summary.extend(f"tau_hat_{k} = {sol.tau_hat_n(k):.12g}"
                   for k in range(n_max + 1))
    summary.extend([
        f"Re_S0 = {integral.real:.12g}",
        f"Im_S0 = {integral.imag:.12g}",
        f"Re_dmu_dtau = {crossing.real:.12g}",
        f"transversality_scaled = {crossing.real / sol.r**2:.12g}",
    ])
    return summary, [path.name]


def _task_normalform(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    sol = _continuation(config)
    reports = _call(normal_form_report, sol, n_max=config.options["n_max"])
    path = out / "normalform.csv"
    write_normalform_csv(path, sol, reports)
    summary = [f"c0 = {model.coeffs.c0:.12g}", f"r = {sol.r:.12g}"]
    for report in reports:
        summary.extend([
            f"n{report.n}_tau_hat = {report.tau_hat_n:.12g}",
            f"n{report.n}_Re_C1 = {report.c1.real:.12g}",
            f"n{report.n}_mu2 = {report.mu2:.12g}",
            f"n{report.n}_direction = {report.direction}",
            f"n{report.n}_orbit_stability = {report.orbit_stability}",
        ])
    summary.append(
        f"limit_Re_C1_n0 = {limit_lyapunov_real(model.coeffs.c0, 0):.12g}"
    )
    return summary, [path.name]


def _verdict_lines(prefix: str, trace) -> list[str]:
    lines = [
        f"{prefix}dt = {trace.dt:.12g}",
        f"{prefix}final_mean = {trace.mean_series[-1]:.12g}",
    ]
    half_idx = len(trace.mean_series) // 2
    drift = abs(trace.mean_series[-1] - trace.mean_series[half_idx])
    lines.append(f"{prefix}halfway_drift = {drift:.12g}")
    try:
        estimate = estimate_period(trace)
    except ValueError as exc:
        lines.append(f"{prefix}verdict = too-short ({exc})")
        return lines
    if estimate.oscillating:
        lines.extend([
            f"{prefix}verdict = oscillating",
            f"{prefix}period = {estimate.period:.12g}",
            f"{prefix}amplitude = {estimate.amplitude:.12g}",
        ])
    else:
        lines.append(f"{prefix}verdict = settled")
    lines.append(f"{prefix}trend_ratio = {estimate.trend_ratio:.12g}")
    return lines


def _simulate(config: RunConfig):
    options = config.options
    return _call(simulate_pde, config.model, history=options["history"],
                 t_end=options["t_end"], dt=options["dt"],
                 snapshot_stride=options["snapshot_stride"])


def _task_simulate(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    trace = _simulate(config)
    files = []
    path = out / "trace.csv"
    write_trace_csv(path, trace)
    files.append(path.name)
    if trace.snapshots:
        for t, field in trace.snapshots:
            snap_path = out / f"snapshot_{t:.12g}.csv"
            write_snapshot_csv(snap_path, model.grid, field)
            files.append(snap_path.name)
        spacetime = out / "spacetime.csv"
        write_spacetime_csv(spacetime, model.grid, trace)
        files.append(spacetime.name)
    summary = [
        f"c0 = {model.coeffs.c0:.12g}",
        f"tau_hat = {trace.tau_hat:.12g}",
    ]
    summary.extend(_verdict_lines("", trace))
    return summary, files


def _task_average_dde(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    coeffs = model.coeffs
    options = config.options
    trace = _call(
        simulate_average_dde,
        coeffs.p_bar, coeffs.delta_bar, model.a, options["tau_check"],
        history=options["history"], t_end=options["t_end"], dt=options["dt"],
    )
    path = out / "trace.csv"
    write_trace_csv(path, trace)
    summary = [
        f"c0 = {coeffs.c0:.12g}",
        f"tau_check = {options['tau_check']:.12g}",
        f"equilibrium = {coeffs.c0 / model.a:.12g}",
    ]
    summary.extend(_verdict_lines("", trace))
    return summary, [path.name]


_SWEEP_COLUMNS = (
    "r,d,theta,omega,beta,tau0,tau_hat0,Re_S0,Im_S0,"
    "transversality_scaled,Re_C1,status"
)


def _sweep_row(model: ModelParams, r: float, r_cap: float) -> tuple:
    sol = continue_hopf(replace(model, r=r), r_cap=r_cap)
    integral = nondegeneracy_integral(sol, 0)
    report = normal_form_report(sol)[0]
    return (
        r, 1.0 / r, sol.theta, sol.omega, sol.beta, sol.tau_n(0),
        sol.tau_hat_n(0), integral.real, integral.imag,
        report.dmu.real / r**2, report.c1.real, "OK",
    )


def _task_sweep(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    coeffs = model.coeffs
    rows = []
    stalled = 0
    for r in config.options["r_list"]:
        try:
            rows.append(_sweep_row(model, r, config.options["r_cap"]))
        except _SOLVER_ERRORS:
            rows.append((r, 1.0 / r) + (BLANK,) * 9 + ("STALL",))
            stalled += 1
    limit = _call(continue_hopf, replace(model, r=0.0))
    tau_hat0 = limit.tau_hat_n(0)
    integral = limit_nondegeneracy_integral(coeffs.c0, model.grid.length, 0)
    crossing = limit_transversality_real(coeffs, model.grid, 0)
    lyapunov = limit_lyapunov_real(coeffs.c0, 0)
    rows.append((
        limit.r, limit.model.d, limit.theta, limit.omega, limit.beta,
        math.inf, tau_hat0, integral.real, integral.imag, crossing, lyapunov,
        "LIMIT",
    ))
    path = out / "sweep.csv"
    write_table(path, _SWEEP_COLUMNS, list(zip(*rows)))
    summary = [
        f"c0 = {coeffs.c0:.12g}",
        f"rows = {len(rows)}",
        f"stalled = {stalled}",
        f"limit_theta = {limit.theta:.12g}",
        f"limit_omega = {limit.omega:.12g}",
        f"limit_tau_hat0 = {tau_hat0:.12g}",
        f"limit_Re_C1 = {lyapunov:.12g}",
    ]
    return summary, [path.name]


_TASK_RUNNERS = {
    "steady": _task_steady,
    "hopf": _task_hopf,
    "normalform": _task_normalform,
    "simulate": _task_simulate,
    "average-dde": _task_average_dde,
    "sweep": _task_sweep,
}

_FIGURES = {
    "fig1": {"p": "10 + 1*sin(1*x + 0)", "reference_c0": 1.2880},
    "fig2": {"p": "30 + 1*sin(1*x + 0)", "reference_c0": 2.3443},
}


def _reproduce_config(figure: str, tau_hat: float, n_points: int | None) -> RunConfig:
    # both built-in parameter sets use d = 0.1, given as r = 10 so that the
    # delay is tau_hat / 10
    settings = ["model.length=3.0", "model.a=2.5", "model.r=10",
                f"model.tau_hat={tau_hat!r}", f"model.p={_FIGURES[figure]['p']}",
                "model.delta=2 + 1*cos(0.2*x + 0)", "task.name=simulate"]
    return load_config(None, overrides=parse_overrides(settings),
                       grid_override=n_points)


def _reproduce_delay(config: RunConfig, out: Path) -> tuple[str, list[str]]:
    """Simulate one delay of ``reproduce`` and write its trace; returns the
    file name and the verdict lines."""
    tau_hat = config.model.tau_hat
    trace = _simulate(config)
    path = out / f"trace_tau{tau_hat:g}.csv"
    write_trace_csv(path, trace)
    return path.name, _verdict_lines(f"tau_hat{tau_hat:g}_", trace)


def run_reproduce(figure: str, out_dir: str | Path, n_points: int | None) -> int:
    """Run both figure delays, summarize the regimes and c0 check, and
    return the process exit code.

    Each delay runs with the ``simulate`` task's default settings, on
    ``n_points`` nodes or, for None, the config default; the manifest
    echoes the grid used.  Both configs are built, and so the grid
    checked, before ``out_dir`` is created.  Where the platform can fork,
    tau_hat = 0 (the slower delay) runs in one forked worker while this
    process runs tau_hat = 2; elsewhere both run here, one after the
    other.  Either way the outputs are the same bytes, and a failure is the
    one the order tau_hat = 0, then 2, meets first.
    """
    # imported here: the CLI's start-up loads no process machinery
    import multiprocessing

    reference = _FIGURES[figure]["reference_c0"]
    first, second = (_reproduce_config(figure, tau_hat, n_points)
                     for tau_hat in (0.0, 2.0))
    out = _prepare_out(out_dir)
    if "fork" in multiprocessing.get_all_start_methods():
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("fork")) as worker:
            pending = worker.submit(_reproduce_delay, first, out)
            try:
                second_run = _reproduce_delay(second, out)
            except Exception:
                pending.result()  # the first delay's failure takes precedence
                raise
            runs = [pending.result(), second_run]
    else:
        runs = [_reproduce_delay(config, out) for config in (first, second)]
    c0 = first.model.coeffs.c0
    gap = abs(c0 - reference)
    flag = "OK" if gap < 1e-3 else "FAIL"
    summary = [f"c0 = {c0:.12g} (reference {reference:.4f}, |diff| = "
               f"{gap:.3g}, within 1e-3: {flag})"]
    files = []
    for name, lines in runs:
        files.append(name)
        summary.extend(lines)
    echo = [f"figure = {figure}", f"n_points = {first.model.grid.n_points}"]
    _finish_run(out, echo, summary, files)
    return EXIT_OK


def run_task(config: RunConfig, out_dir: str) -> int:
    """Execute one configured task; returns the process exit code."""
    out = _prepare_out(out_dir)
    try:
        summary, files = _TASK_RUNNERS[config.task](config, out)
    except NoHopfError as exc:  # a verdict, not a failure
        summary, files = [f"NoHopf: {exc}"], []
    _finish_run(out, echo_lines(config), summary, files)
    return EXIT_OK


def _finish_run(out: Path, echo: list[str], summary: list[str],
                files: list[str]) -> None:
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(summary) + "\n", encoding="utf-8")
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = [f"# generated {stamp}", "# configuration"]
    manifest.extend(f"# {line}" for line in echo)
    manifest.append("# files")
    manifest.extend(files + [summary_path.name, "manifest.txt"])
    (out / "manifest.txt").write_text(
        "\n".join(manifest) + "\n", encoding="utf-8"
    )
    for line in summary:
        print(line)
    for name in files + [summary_path.name, "manifest.txt"]:
        print(f"wrote {out / name}")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="nicholson",
        description=(
            "Workbench for steady states, delay-induced Hopf bifurcations "
            "and time-domain simulation of the heterogeneous blowflies "
            "reaction-diffusion model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a sectioned key=value run file")
    common.add_argument("--out", help="output directory (default <command>-out)")
    common.add_argument("--grid", type=int, help="override model.n_points")
    common.add_argument(
        "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override one config entry; repeatable",
    )
    for name in TASKS:
        sub.add_parser(name, parents=[common])
    repro = sub.add_parser("reproduce", parents=[common])
    repro.add_argument("figure", choices=sorted(_FIGURES))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            ignored = [flag for flag, value in
                       (("--config", args.config), ("--set", args.set)) if value]
            if ignored:
                raise ConfigError(
                    "reproduce runs a built-in parameter set and takes no "
                    + " or ".join(ignored)
                )
            return run_reproduce(args.figure,
                                 args.out or f"reproduce-{args.figure}-out",
                                 args.grid)
        overrides = parse_overrides(args.set)
        overrides[("task", "name")] = args.command
        config = load_config(
            args.config, overrides=overrides, grid_override=args.grid
        )
        return run_task(config, args.out or f"{args.command}-out")
    except TaskFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:  # ConfigError among them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
