"""Command-line workbench orchestrating the solver modules.

Subcommands: ``steady``, ``hopf``, ``normalform``, ``simulate``,
``average-dde``, ``sweep`` and ``reproduce {fig1,fig2}``.  Each run reads a
config file and/or ``--set section.key=value`` overrides, writes CSV files
plus a ``summary.txt`` with the headline scalars into the output directory,
and records every produced file in a ``manifest.txt`` whose timestamped
header is the only non-deterministic byte in the run.

Exit codes: 0 success (including a NoHopf verdict, which is a result, not a
failure), 1 configuration error, 2 solver failure, 3 simulation blow-up.
Failure messages name the responsible module and operation.
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys
from pathlib import Path

from .config import (
    TASKS,
    ConfigError,
    RunConfig,
    echo_lines,
    load_config,
    option_float,
    option_int,
    option_float_list,
    parse_overrides,
)
from .grid import Grid1D
from .hopf import (
    ContinuationStallError,
    NoHopfError,
    SolvabilityError,
    continue_hopf,
    hopf_thresholds,
    limit_hopf_data,
    limit_nondegeneracy_integral,
    limit_transversality_real,
    nondegeneracy_integral,
    transversality,
    write_hopf_csv,
)
from .model import CoefficientSpec, ModelParams, build_coefficients
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
    ContinuationStallError,
    ResonanceError,
    SolvabilityError,
)


class TaskFailure(Exception):
    """Carries an exit code and a module-qualified message."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _call(label: str, fn, *args, **kwargs):
    """Run one solver operation, mapping failures to labeled exit codes."""
    try:
        return fn(*args, **kwargs)
    except NoHopfError:
        raise
    except _SOLVER_ERRORS as exc:
        raise TaskFailure(EXIT_SOLVER, f"{label}: {exc}") from exc
    except BlowUpError as exc:
        raise TaskFailure(EXIT_BLOWUP, f"{label}: {exc}") from exc


def _no_hopf_line(c0: float) -> str:
    if c0 > 0:
        return (f"NoHopf: c0 = {c0:.4f} < 2, steady state stable for all "
                "delays")
    return (f"NoHopf: c0 = {c0:.4f} <= 0, no positive steady state exists")


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
    r_cap = option_float(config, "r_cap", 0.5)
    model = config.model
    if model.r > r_cap:
        raise ConfigError(
            f"model.r = {model.r:.6g} exceeds the continuation cap "
            f"{r_cap:.6g}; the asymptotic theory degrades away from r = 0. "
            "Set task.r_cap to opt in explicitly."
        )
    return _call(
        "hopf.continue_hopf", continue_hopf, model, model.r, r_cap=r_cap
    )


def _task_steady(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    steady = _call("steady.solve_steady_state", solve_steady_state, model)
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
    n_max = option_int(config, "n_max", 3)
    try:
        sol = _continuation(config)
    except NoHopfError:
        return [_no_hopf_line(model.coeffs.c0)], []
    thresholds = _call("hopf.hopf_thresholds", hopf_thresholds, sol, n_max=n_max)
    path = out / "hopf.csv"
    write_hopf_csv(path, sol, thresholds)
    integral = _call("hopf.nondegeneracy_integral", nondegeneracy_integral, sol, 0)
    crossing = _call("hopf.transversality", transversality, sol, 0)
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
    summary.extend(
        f"tau_hat_{k} = {tau_hat:.12g}"
        for k, tau_hat in enumerate(thresholds.taus_hat)
    )
    summary.extend([
        f"Re_S0 = {integral.real:.12g}",
        f"Im_S0 = {integral.imag:.12g}",
        f"Re_dmu_dtau = {crossing.real:.12g}",
        f"transversality_scaled = {crossing.real / sol.r**2:.12g}",
    ])
    return summary, [path.name]


def _task_normalform(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    n_max = option_int(config, "n_max", 0)
    try:
        sol = _continuation(config)
    except NoHopfError:
        return [_no_hopf_line(model.coeffs.c0)], []
    reports = []
    for n in range(n_max + 1):  # the correction fields do not depend on n
        reuse = (reports[0].second_harmonic, reports[0].zero_mode) if reports else ()
        reports.append(_call("normalform.normal_form_report", normal_form_report,
                             sol, n, *reuse))
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


def _verdict_lines(prefix: str, trace, tail_fraction: float) -> list[str]:
    lines = [
        f"{prefix}dt = {trace.dt:.12g}",
        f"{prefix}final_mean = {trace.mean_series[-1]:.12g}",
    ]
    half_idx = len(trace.mean_series) // 2
    drift = abs(trace.mean_series[-1] - trace.mean_series[half_idx])
    lines.append(f"{prefix}halfway_drift = {drift:.12g}")
    try:
        estimate = estimate_period(trace, tail_fraction=tail_fraction)
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


def _simulation_options(config: RunConfig, dt: float) -> tuple[dict, float]:
    """Run options and tail fraction of a simulation task, checked first."""
    tail_fraction = option_float(config, "tail_fraction", 0.25)
    if not 0 < tail_fraction <= 0.5:
        raise ConfigError(
            f"task.tail_fraction must lie in (0, 0.5], got {tail_fraction:.6g}"
        )
    history = config.options.get("history")
    return {"t_end": option_float(config, "t_end", 400.0),
            "dt": option_float(config, "dt", dt),
            "history": None if history is None else float(history)}, tail_fraction


def _task_simulate(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    options, tail_fraction = _simulation_options(config, 5e-3)
    trace = _call(
        "simulator.simulate_pde", simulate_pde, model,
        snapshot_stride=option_int(config, "snapshot_stride", 0), **options,
    )
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
    summary.extend(_verdict_lines("", trace, tail_fraction))
    return summary, files


def _task_average_dde(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    coeffs = model.coeffs
    tau_check = option_float(config, "tau_check", model.tau_hat)
    options, tail_fraction = _simulation_options(config, 1e-3)
    trace = _call(
        "simulator.simulate_average_dde", simulate_average_dde,
        coeffs.p_bar, coeffs.delta_bar, model.a, tau_check, **options,
    )
    path = out / "trace.csv"
    write_trace_csv(path, trace)
    summary = [
        f"c0 = {coeffs.c0:.12g}",
        f"tau_check = {tau_check:.12g}",
        f"equilibrium = {coeffs.c0 / model.a:.12g}",
    ]
    summary.extend(_verdict_lines("", trace, tail_fraction))
    return summary, [path.name]


_SWEEP_COLUMNS = (
    "r,d,theta,omega,beta,tau0,tau_hat0,Re_S0,Im_S0,"
    "transversality_scaled,Re_C1,status"
)


def _sweep_row(model: ModelParams, r: float, r_cap: float) -> tuple:
    sol = continue_hopf(model.with_r(r), r, r_cap=r_cap)
    thresholds = hopf_thresholds(sol, n_max=0)
    integral = nondegeneracy_integral(sol, 0)
    report = normal_form_report(sol, 0)
    return (
        r, 1.0 / r, sol.theta, sol.omega, sol.beta, thresholds.taus[0],
        thresholds.taus_hat[0], integral.real, integral.imag,
        report.dmu.real / r**2, report.c1.real, "OK",
    )


def _task_sweep(config: RunConfig, out: Path) -> tuple[list[str], list[str]]:
    model = config.model
    r_cap = option_float(config, "r_cap", 0.5)
    r_list = option_float_list(config, "r_list")
    if any(r <= 0 for r in r_list):
        raise ConfigError("task.r_list entries must be positive")
    if any(b >= a for a, b in zip(r_list, r_list[1:])):
        raise ConfigError("task.r_list must be sorted in descending order")
    if any(r > r_cap for r in r_list):
        raise ConfigError(
            f"task.r_list exceeds the continuation cap {r_cap:.6g}; "
            "set task.r_cap to opt in explicitly"
        )
    coeffs = model.coeffs
    if coeffs.c0 <= 2.0:
        return [_no_hopf_line(coeffs.c0)], []
    rows = []
    stalled = 0
    for r in r_list:
        try:
            rows.append(_sweep_row(model, r, r_cap))
        except _SOLVER_ERRORS + (NoHopfError,):
            rows.append((r, 1.0 / r) + (BLANK,) * 9 + ("STALL",))
            stalled += 1
    limit = limit_hopf_data(coeffs, model.grid)
    tau_hat0 = limit.theta / limit.omega
    integral = limit_nondegeneracy_integral(coeffs.c0, model.grid.length, 0)
    crossing = limit_transversality_real(coeffs, model.grid, 0)
    lyapunov = limit_lyapunov_real(coeffs.c0, 0)
    rows.append((
        0.0, math.inf, limit.theta, limit.omega, 1.0, math.inf, tau_hat0,
        integral.real, integral.imag, crossing, lyapunov, "LIMIT",
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


def _reproduce_model(figure: str, tau_hat: float, n_points: int) -> ModelParams:
    recipe = _FIGURES[figure]
    grid = Grid1D(length=3.0, n_points=n_points)
    coeffs = build_coefficients(
        CoefficientSpec.parse(recipe["p"]),
        CoefficientSpec.parse("2 + 1*cos(0.2*x + 0)"),
        grid,
    )
    r = 10.0  # both built-in parameter sets use d = 0.1
    return ModelParams(r=r, a=2.5, tau=tau_hat / r, grid=grid, coeffs=coeffs)


def run_reproduce(figure: str, out: Path, n_points: int = 301) -> tuple[list[str], list[str]]:
    """Run both figure delays and summarize the regimes and c0 check."""
    reference = _FIGURES[figure]["reference_c0"]
    summary: list[str] = []
    files: list[str] = []
    for tau_hat in (0.0, 2.0):
        model = _reproduce_model(figure, tau_hat, n_points)
        trace = _call(
            "simulator.simulate_pde", simulate_pde, model,
            t_end=400.0, dt=5e-3,
        )
        path = out / f"trace_tau{tau_hat:g}.csv"
        write_trace_csv(path, trace)
        files.append(path.name)
        if not summary:
            c0 = model.coeffs.c0
            gap = abs(c0 - reference)
            flag = "OK" if gap < 1e-3 else "FAIL"
            summary.append(
                f"c0 = {c0:.12g} (reference {reference:.4f}, |diff| = "
                f"{gap:.3g}, within 1e-3: {flag})"
            )
        summary.extend(
            _verdict_lines(f"tau_hat{tau_hat:g}_", trace, 0.25)
        )
    return summary, files


def run_task(config: RunConfig, out_dir: str) -> int:
    """Execute one configured task; returns the process exit code."""
    unread = sorted(set(config.options) - set(TASKS[config.task]))
    if unread:
        raise ConfigError(
            f"task {config.task!r} does not read the task keys {unread}"
        )
    out = _prepare_out(out_dir)
    summary, files = _TASK_RUNNERS[config.task](config, out)
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


def _build_parser() -> argparse.ArgumentParser:
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
            out = _prepare_out(args.out or f"reproduce-{args.figure}-out")
            summary, files = run_reproduce(
                args.figure, out, n_points=args.grid or 301
            )
            echo = [f"figure = {args.figure}", f"n_points = {args.grid or 301}"]
            _finish_run(out, echo, summary, files)
            return EXIT_OK
        overrides = parse_overrides(args.set)
        overrides[("task", "name")] = args.command
        config = load_config(
            args.config, overrides=overrides, grid_override=args.grid
        )
        return run_task(config, args.out or f"{args.command}-out")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TaskFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
