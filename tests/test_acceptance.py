"""Acceptance gate: one test per headline requirement.

Each test prints a single ``criterion N: PASS ...`` line with the measured
numbers (visible with -s, or in the captured-output block on failure) and
enforces the stated tolerance and runtime budget.  Run the whole module
with ``pytest -v tests/test_acceptance.py``.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles

from nicholson.cli import main, run_reproduce
from nicholson.grid import Grid1D, spatial_average
from nicholson.hopf import (
    continue_hopf,
    limit_phase,
    limit_transversality_real,
    transversality,
)
from nicholson.model import ModelParams, build_coefficients, eval_nonlinearity
from nicholson.normalform import (
    limit_lyapunov_real,
    normal_form_report,
    zero_mode_correction,
)
from nicholson.simulate import estimate_period, simulate_pde
from nicholson.steady import solve_steady_state

FIG1_P = "10 + 1*sin(1*x + 0)"
FIG2_P = "30 + 1*sin(1*x + 0)"
FIG_DELTA = "2 + 1*cos(0.2*x + 0)"
LENGTH = 3.0


def _grid(n_points: int = 301) -> Grid1D:
    return Grid1D(length=LENGTH, n_points=n_points)


def _coeffs(p_spec: str, grid: Grid1D):
    return build_coefficients(p_spec, FIG_DELTA, grid)


def _model(p_spec: str, grid: Grid1D, r: float, tau: float = 0.0) -> ModelParams:
    return ModelParams(r=r, a=2.5, tau=tau, grid=grid,
                       coeffs=_coeffs(p_spec, grid))


def _constant_model(c0: float, grid: Grid1D, r: float) -> ModelParams:
    coeffs = build_coefficients(math.exp(c0), 1.0, grid)
    return ModelParams(r=r, a=2.5, tau=0.0, grid=grid, coeffs=coeffs)


def _summary_table(lines: list) -> dict:
    table = {}
    for line in lines:
        if " = " in line:
            key, value = line.split(" = ", 1)
            table[key] = value
    return table


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_reference_c0_values():
    start = time.perf_counter()
    grid = _grid()
    c0_fig1 = _coeffs(FIG1_P, grid).c0
    c0_fig2 = _coeffs(FIG2_P, grid).c0
    elapsed = time.perf_counter() - start
    ok = (
        abs(c0_fig1 - 1.2880) < 1e-3
        and abs(c0_fig2 - 2.3443) < 1e-3
        and elapsed < 1.0
    )
    _report(
        1, ok,
        f"c0(fig1) = {c0_fig1:.6f} vs 1.2880, c0(fig2) = {c0_fig2:.6f} "
        f"vs 2.3443, tolerance 1e-3, runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_2_figure_regimes(tmp_path):
    start = time.perf_counter()
    out1 = tmp_path / "fig1"
    out2 = tmp_path / "fig2"
    out1.mkdir()
    out2.mkdir()
    assert run_reproduce("fig1", out1, n_points=301) == 0
    assert run_reproduce("fig2", out2, n_points=301) == 0
    elapsed = time.perf_counter() - start
    t1 = _summary_table((out1 / "summary.txt").read_text().splitlines())
    t2 = _summary_table((out2 / "summary.txt").read_text().splitlines())
    converged = [
        t1["tau_hat0_verdict"] == "settled"
        and float(t1["tau_hat0_halfway_drift"]) < 1e-4,
        t1["tau_hat2_verdict"] == "settled"
        and float(t1["tau_hat2_halfway_drift"]) < 1e-4,
        t2["tau_hat0_verdict"] == "settled"
        and float(t2["tau_hat0_halfway_drift"]) < 1e-4,
    ]
    oscillates = t2["tau_hat2_verdict"] == "oscillating"
    amplitude = float(t2.get("tau_hat2_amplitude", "nan"))
    trend = float(t2["tau_hat2_trend_ratio"])
    ok = (
        all(converged)
        and oscillates
        and amplitude > 1e-2
        and trend >= 0.75
        and elapsed < 120.0
    )
    _report(
        2, ok,
        "fig1 settles at tau_hat 0 and 2, fig2 settles at 0; fig2 at "
        f"tau_hat 2: amplitude = {amplitude:.4f} > 1e-2, last-quarter "
        f"trend ratio = {trend:.3f} (non-decaying), runtime "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_3_closed_form_limits():
    grid = _grid()
    limit = continue_hopf(_constant_model(3.0, grid, r=0.0))
    coeffs = limit.model.coeffs
    theta_err = abs(limit.theta - 2.0 * math.pi / 3.0)
    omega_err = abs(limit.omega - math.sqrt(3.0))
    # compatibility forcing of the mean-zero correction equation
    fprime = (1.0 - 3.0) * math.exp(-3.0)
    rhs = -3.0 * (
        np.exp(-1j * limit.theta) * coeffs.p * fprime
        - coeffs.delta
        - 1j * limit.omega
    )
    rhs_mean = abs(grid.integrate(rhs) / grid.length)
    rng = np.random.default_rng(20240817)
    phases = [limit_phase(c0) for c0 in rng.uniform(2.0, 6.0, size=50)]
    phases_ok = all(math.pi / 2 < t < math.pi for t in phases)
    ok = (
        theta_err <= 1e-12
        and omega_err <= 1e-12
        and rhs_mean <= 1e-10
        and phases_ok
    )
    _report(
        3, ok,
        f"|theta0 - 2pi/3| = {theta_err:.2e}, |omega0 - sqrt3| = "
        f"{omega_err:.2e} (<= 1e-12), correction-equation rhs mean = "
        f"{rhs_mean:.2e} (<= 1e-10), 50 random c0 give theta0 in "
        f"(pi/2, pi): {phases_ok}",
    )


def test_criterion_4_scalar_oracle_equivalence():
    start = time.perf_counter()
    grid = _grid()
    model = _constant_model(3.0, grid, r=1e-4)
    sol = continue_hopf(model)
    tau_hat_0 = sol.tau_hat_n(0)
    brute = oracles.first_crossing_delay(1.0, 3.0)
    closed = 2.0 * math.pi / (3.0 * math.sqrt(3.0))
    tau_rel = abs(tau_hat_0 - brute) / brute
    scaled = transversality(sol, 0).real / sol.r**2
    fd_speed = oracles.crossing_speed_fd(1.0, 3.0, brute, step=1e-4)
    speed_rel = abs(scaled - fd_speed) / abs(fd_speed)
    elapsed = time.perf_counter() - start
    ok = (
        abs(brute - closed) / closed < 1e-10
        and tau_rel < 1e-6
        and speed_rel < 0.01
        and elapsed < 10.0
    )
    _report(
        4, ok,
        f"tau_hat_0 = {tau_hat_0:.12f} vs brute-force {brute:.12f} "
        f"(rel {tau_rel:.2e} < 1e-6, root matches 2pi/(3 sqrt 3)), "
        f"crossing speed {scaled:.8f} vs finite-difference {fd_speed:.8f} "
        f"(rel {speed_rel:.2e} < 1%), runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_5_continuation_convergence_rate():
    start = time.perf_counter()
    grid = _grid()
    base = _model(FIG2_P, grid, r=1.0)
    limit = continue_hopf(replace(base, r=0.0))
    errors = {"theta": [], "omega": [], "beta": []}
    for r in (1e-1, 1e-2, 1e-3):
        sol = continue_hopf(replace(base, r=r))
        errors["theta"].append(abs(sol.theta - limit.theta))
        errors["omega"].append(abs(sol.omega - limit.omega))
        errors["beta"].append(abs(sol.beta - 1.0))
    elapsed = time.perf_counter() - start
    ratios = {
        key: [seq[0] / seq[1], seq[1] / seq[2]]
        for key, seq in errors.items()
    }
    in_window = {
        key: all(8.0 <= ratio <= 12.0 for ratio in pair)
        for key, pair in ratios.items()
    }
    detail = ", ".join(
        f"{key} decade ratios = {pair[0]:.2f}, {pair[1]:.2f}"
        f" ({'in' if in_window[key] else 'OUTSIDE'} [8, 12])"
        for key, pair in ratios.items()
    )
    ok = all(in_window.values()) and elapsed < 30.0
    _report(5, ok, f"{detail}; runtime {elapsed:.1f}s < 30s")


def test_criterion_6_normal_form_limit_agreement():
    start = time.perf_counter()
    grid = _grid()
    mean_sin = float(
        spatial_average(np.sin(grid.nodes), grid)
    )
    delta_bar = _coeffs(FIG2_P, grid).delta_bar
    results = []
    for c0_target in (2.2, 2.3443, 3.0):
        base = delta_bar * math.exp(c0_target) - mean_sin
        model = _model(f"{base:.12g} + 1*sin(1*x + 0)", grid, r=1e-3)
        c0 = model.coeffs.c0
        sol = continue_hopf(model)
        report = normal_form_report(sol)[0]
        limit = limit_lyapunov_real(c0, 0)
        zero = zero_mode_correction(sol)
        f_ratio = float(spatial_average(zero.real, grid)) / c0
        results.append({
            "c0": c0,
            "re_c1": report.c1.real,
            "limit": limit,
            "c1_rel": abs(report.c1.real - limit) / abs(limit),
            "f_rel": abs(f_ratio - (c0 - 2.0)) / abs(c0 - 2.0),
        })
    elapsed = time.perf_counter() - start
    ok = (
        all(row["c1_rel"] < 0.05 and row["re_c1"] < 0 for row in results)
        and all(row["f_rel"] < 0.05 for row in results)
        and elapsed < 60.0
    )
    detail = "; ".join(
        f"c0 = {row['c0']:.4f}: Re C1 = {row['re_c1']:.6f} vs limit "
        f"{row['limit']:.6f} (rel {row['c1_rel']:.2e}, negative), "
        f"mean correction ratio rel {row['f_rel']:.2e}"
        for row in results
    )
    _report(6, ok, f"{detail}; all within 5%, runtime {elapsed:.1f}s < 60s")


def test_criterion_7_transversality_limit():
    start = time.perf_counter()
    grid = _grid()
    model = _model(FIG2_P, grid, r=1e-3)
    sol = continue_hopf(model)
    scaled = transversality(sol, 0).real / sol.r**2
    limit = limit_transversality_real(model.coeffs, grid, 0)
    rel = abs(scaled - limit) / abs(limit)
    elapsed = time.perf_counter() - start
    ok = rel < 0.10 and elapsed < 10.0
    _report(
        7, ok,
        f"scaled crossing speed {scaled:.8f} vs limit {limit:.8f} "
        f"(rel {rel:.2e} < 10%), runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_8_spectrum_vs_simulation():
    start = time.perf_counter()
    grid = _grid()
    base = _model(FIG2_P, grid, r=1e-2)
    sol = continue_hopf(base)
    tau_hat_0 = sol.tau_hat_n(0)
    linear_period = 2.0 * math.pi * sol.r / sol.nu
    eps = 0.05 * tau_hat_0

    def run(tau_hat):
        model = replace(base, tau=tau_hat / base.r)
        return simulate_pde(model, t_end=800.0, dt=5e-3)

    below = estimate_period(run(0.95 * tau_hat_0))
    at_eps = estimate_period(run(tau_hat_0 + eps))
    at_2eps = estimate_period(run(tau_hat_0 + 2.0 * eps))
    elapsed = time.perf_counter() - start

    period_rel = (
        abs(at_eps.period - linear_period) / linear_period
        if at_eps.oscillating else math.inf
    )
    amp_ratio = (
        at_2eps.amplitude / at_eps.amplitude
        if at_eps.oscillating and at_2eps.oscillating else math.nan
    )
    sqrt2 = math.sqrt(2.0)
    ok = (
        not below.oscillating
        and at_eps.oscillating
        and period_rel < 0.10
        and abs(amp_ratio - sqrt2) <= 0.15 * sqrt2
        and elapsed < 300.0
    )
    _report(
        8, ok,
        f"decays at 0.95 tau_hat_0 (trend {below.trend_ratio:.3f}), "
        f"oscillates at 1.05 tau_hat_0 with period "
        f"{at_eps.period if at_eps.oscillating else float('nan'):.4f} vs "
        f"linear {linear_period:.4f} (rel {period_rel:.2e} < 10%), "
        f"amplitude ratio {amp_ratio:.4f} vs sqrt2 = {sqrt2:.4f} "
        f"(within 15%), runtime {elapsed:.0f}s < 300s",
    )


def test_criterion_9_numerical_hygiene(tmp_path):
    # grid convergence of the steady solver at second order
    reference = solve_steady_state(_model(FIG2_P, _grid(1201), r=1e-2)).u
    # the coarsest grids keep the finite resolution of the reference from
    # contaminating the ratios (at 601 vs 1201 it would inflate them to 5)
    errors = []
    for n in (76, 151, 301):
        stride = 1200 // (n - 1)
        u = solve_steady_state(_model(FIG2_P, _grid(n), r=1e-2)).u
        errors.append(np.abs(u - reference[::stride]).max())
    grid_ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    grid_ok = all(3.0 <= ratio <= 5.0 for ratio in grid_ratios)

    # derivative checks converge at second order in the step
    u0 = 0.7
    fd_errors = []
    for h in (1e-3, 5e-4):
        fd = (eval_nonlinearity(u0 + h) - eval_nonlinearity(u0 - h)) / (2 * h)
        fd_errors.append(abs(fd - eval_nonlinearity(u0, order=1)))
    fd_ratio = fd_errors[0] / fd_errors[1]
    fd_ok = 3.0 <= fd_ratio <= 5.0

    # rerunning a task writes byte-identical CSV bodies
    config = tmp_path / "run.cfg"
    config.write_text(
        "[model]\nlength = 3\nn_points = 121\na = 2.5\nr = 0.01\n"
        f"p = {FIG2_P}\ndelta = {FIG_DELTA}\n\n[task]\nname = steady\n",
        encoding="utf-8",
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["steady", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["steady", "--config", str(config), "--out", str(out_b)]) == 0
    deterministic = (
        (out_a / "steady.csv").read_bytes() == (out_b / "steady.csv").read_bytes()
        and (out_a / "summary.txt").read_bytes()
        == (out_b / "summary.txt").read_bytes()
    )

    # constant coefficients admit the exact closed-form steady state
    const = _constant_model(2.5, _grid(201), r=0.3)
    u_const = solve_steady_state(const).u
    const_err = np.abs(u_const - 2.5).max()
    const_ok = const_err < 1e-10

    ok = grid_ok and fd_ok and deterministic and const_ok
    _report(
        9, ok,
        f"grid-convergence ratios {grid_ratios[0]:.2f}, "
        f"{grid_ratios[1]:.2f} in 4 +- 25%; derivative step ratio "
        f"{fd_ratio:.2f} (second order); reruns byte-identical: "
        f"{deterministic}; constant steady-state error {const_err:.2e} "
        f"< 1e-10",
    )
