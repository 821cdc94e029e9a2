"""Every CSV file byte for byte against the per-row writers it replaced.

The ``reference_*`` functions keep the earlier writers, one f-string per
row, as the oracle for the shared block writer in ``nicholson.table``.
Each writer is checked on real solver output and on synthetic tables of
3 * BLOCK_ROWS + 7 rows (so the last block is partial) holding -0.0,
subnormals, huge values, nan and infinities.  The last class checks the
writer signature that ``perfbench/tracer.py`` relies on.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import nicholson
import nicholson.cli as cli_module
from nicholson import (
    GCoefficients,
    NormalFormReport,
    SimulationTrace,
    SteadyState,
    continue_hopf,
    limit_lyapunov_real,
    limit_nondegeneracy_integral,
    limit_transversality_real,
    load_config,
    normal_form_report,
    simulate_pde,
    solve_steady_state,
    write_hopf_csv,
    write_normalform_csv,
    write_snapshot_csv,
    write_spacetime_csv,
    write_steady_csv,
    write_trace_csv,
)
from nicholson.cli import _SWEEP_COLUMNS, main
from nicholson.grid import Grid1D
from nicholson.hopf import CrossingError, HopfSolution
from nicholson.table import BLOCK_ROWS

from conftest import FIG2_P, FIG_DELTA, figure_model

ROWS = 3 * BLOCK_ROWS + 7
SPECIALS = (-0.0, 1e-300, 1e16, math.nan, math.inf, -math.inf, 5e-324,
            0.1, 1.0 / 3.0, -1e-5, 123456789012.5, 1e-12, 0.0)


def reference_steady(path, grid, steady):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("x,u\n")
        for x, value in zip(grid.nodes, steady.u):
            handle.write(f"{x:.12g},{value:.12g}\n")


def reference_trace(path, trace):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,mean_u\n")
        for t, value in zip(trace.times, trace.mean_series):
            handle.write(f"{t:.12g},{value:.12g}\n")


def reference_snapshot(path, grid, field):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("x,u\n")
        for x, value in zip(grid.nodes, field):
            handle.write(f"{x:.12g},{value:.12g}\n")


def reference_spacetime(path, grid, trace):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,x,u\n")
        for t, field in trace.snapshots:
            for x, value in zip(grid.nodes, field):
                handle.write(f"{t:.12g},{x:.12g},{value:.12g}\n")


def reference_hopf(path, sol, n_max):
    grid = sol.model.grid
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"r,{sol.r:.12g}\n")
        handle.write(f"d,{sol.model.d:.12g}\n")
        handle.write(f"beta,{sol.beta:.12g}\n")
        handle.write(f"h,{sol.omega:.12g}\n")
        handle.write(f"theta,{sol.theta:.12g}\n")
        handle.write(f"nu,{sol.nu:.12g}\n")
        for k in range(n_max + 1):
            handle.write(f"tau{k},{sol.tau_n(k):.12g}\n")
            handle.write(f"tau_hat{k},{sol.tau_hat_n(k):.12g}\n")
        handle.write("x,Re z,Im z,Re psi,Im psi\n")
        for x, z_val, psi_val in zip(grid.nodes, sol.z, sol.psi):
            handle.write(
                f"{x:.12g},{z_val.real:.12g},{z_val.imag:.12g},"
                f"{psi_val.real:.12g},{psi_val.imag:.12g}\n"
            )


def reference_normalform(path, sol, reports):
    columns = (
        "r,d,n,tau_n,tau_hat_n,Re_g20,Im_g20,Re_g11,Im_g11,Re_g02,Im_g02,"
        "Re_g21,Im_g21,Re_C1,Im_C1,Re_dmu,Im_dmu,mu2,direction,orbit_stability"
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(columns + "\n")
        for report in reports:
            g = report.g
            row = [
                f"{sol.r:.12g}", f"{sol.model.d:.12g}", str(report.n),
                f"{report.tau_n:.12g}", f"{report.tau_hat_n:.12g}",
                f"{g.g20.real:.12g}", f"{g.g20.imag:.12g}",
                f"{g.g11.real:.12g}", f"{g.g11.imag:.12g}",
                f"{g.g02.real:.12g}", f"{g.g02.imag:.12g}",
                f"{g.g21.real:.12g}", f"{g.g21.imag:.12g}",
                f"{report.c1.real:.12g}", f"{report.c1.imag:.12g}",
                f"{report.dmu.real:.12g}", f"{report.dmu.imag:.12g}",
                f"{report.mu2:.12g}", report.direction, report.orbit_stability,
            ]
            handle.write(",".join(row) + "\n")


def reference_sweep(path, model, cells_by_r, r_list):
    """``sweep.csv`` as the earlier CLI wrote it from the same row values.

    ``cells_by_r`` maps each r whose row succeeded to the numbers its
    sweep row computed; every other r is a STALL row.
    """
    rows = []
    for r in r_list:
        if r in cells_by_r:
            rows.append(",".join(
                [f"{cell:.12g}" for cell in cells_by_r[r][:-1]] + ["OK"]
            ))
        else:
            empty = [f"{r:.12g}", f"{1.0 / r:.12g}"] + [""] * 9 + ["STALL"]
            rows.append(",".join(empty))
    coeffs = model.coeffs
    limit = continue_hopf(dataclasses.replace(model, r=0.0))
    tau_hat0 = limit.theta / limit.omega
    integral = limit_nondegeneracy_integral(coeffs.c0, model.grid.length, 0)
    crossing = limit_transversality_real(coeffs, model.grid, 0)
    lyapunov = limit_lyapunov_real(coeffs.c0, 0)
    rows.append(",".join([
        "0", "inf", f"{limit.theta:.12g}", f"{limit.omega:.12g}", "1",
        "inf", f"{tau_hat0:.12g}", f"{integral.real:.12g}",
        f"{integral.imag:.12g}", f"{crossing:.12g}", f"{lyapunov:.12g}",
        "LIMIT",
    ]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_SWEEP_COLUMNS + "\n")
        handle.write("\n".join(rows) + "\n")


def awkward(n, seed):
    """Values over the whole float range, with SPECIALS at every 5th slot."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    special = np.arange(0, n, 5)
    values[special] = np.resize(SPECIALS, len(special))
    return values


def assert_same_bytes(tmp_path, write, reference, *args):
    ours, theirs = tmp_path / "table.csv", tmp_path / "reference.csv"
    write(ours, *args)
    reference(theirs, *args)
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.fixture(scope="module")
def wide_grid():
    return Grid1D(length=3.0, n_points=ROWS)


@pytest.fixture(scope="module")
def wide_sol(wide_grid):
    """A crossing on ROWS nodes whose z parts are awkward values."""
    z = np.empty(ROWS, dtype=complex)
    z.real, z.imag = awkward(ROWS, 1), awkward(ROWS, 2)
    with np.errstate(invalid="ignore"):  # psi = beta c0 + r z meets inf
        return HopfSolution(
            model=figure_model("fig2", wide_grid, r=1e-2), u=awkward(ROWS, 3),
            z=z, beta=-0.0, omega=1e-300, theta=math.nan, residual_norm=0.0,
        )


class TestRealOutput:
    def test_steady(self, tmp_path):
        model = figure_model("fig2", Grid1D(3.0, 101), r=1e-2)
        assert_same_bytes(tmp_path, write_steady_csv, reference_steady,
                          model.grid, solve_steady_state(model))

    def test_hopf(self, tmp_path, fig2_branch):
        sol = fig2_branch[1e-2]
        assert_same_bytes(tmp_path, write_hopf_csv, reference_hopf, sol, 3)

    def test_normalform(self, tmp_path, fig2_branch):
        sol = fig2_branch[1e-2]
        reports = normal_form_report(sol, n_max=1)
        assert_same_bytes(tmp_path, write_normalform_csv,
                          reference_normalform, sol, reports)

    def test_simulation(self, tmp_path, fig1_model):
        trace = simulate_pde(fig1_model, t_end=1.0, dt=1e-2,
                             snapshot_stride=25)
        grid = fig1_model.grid
        assert_same_bytes(tmp_path, write_trace_csv, reference_trace, trace)
        assert_same_bytes(tmp_path, write_snapshot_csv, reference_snapshot,
                          grid, trace.snapshots[1][1])
        assert_same_bytes(tmp_path, write_spacetime_csv, reference_spacetime,
                          grid, trace)


class TestBlocks:
    def test_steady(self, tmp_path, wide_grid):
        steady = SteadyState(u=awkward(ROWS, 4), residual_norm=0.0,
                             newton_iterations=1)
        assert_same_bytes(tmp_path, write_steady_csv, reference_steady,
                          wide_grid, steady)

    def test_trace_and_snapshots(self, tmp_path, wide_grid):
        snapshots = ((-0.0, awkward(ROWS, 5)), (math.inf, awkward(ROWS, 6)),
                     (1e-300, awkward(ROWS, 7)))
        trace = SimulationTrace(
            times=awkward(ROWS, 8), mean_series=awkward(ROWS, 9),
            snapshots=snapshots, dt=1e-3, tau_hat=0.0,
        )
        assert_same_bytes(tmp_path, write_trace_csv, reference_trace, trace)
        assert_same_bytes(tmp_path, write_snapshot_csv, reference_snapshot,
                          wide_grid, snapshots[0][1])
        assert_same_bytes(tmp_path, write_spacetime_csv, reference_spacetime,
                          wide_grid, trace)

    def test_empty_spacetime(self, tmp_path, wide_grid):
        trace = SimulationTrace(
            times=np.zeros(1), mean_series=np.zeros(1), snapshots=(),
            dt=1e-3, tau_hat=0.0,
        )
        assert_same_bytes(tmp_path, write_spacetime_csv, reference_spacetime,
                          wide_grid, trace)

    def test_hopf(self, tmp_path, wide_sol):
        # (theta, omega) whose ladders (theta + 2 pi k) / omega and
        # / (r omega), r = 1e-2, hold nan; inf; 1e16 and 1e18; -0.0 at
        # k = 0; and subnormals at k = 0
        cells = set()
        for theta, omega in ((math.nan, 1e-300), (math.inf, 1.0),
                             (1.0, 1e-16), (0.0, -1.0), (5e-324, 1.0)):
            with np.errstate(invalid="ignore"):  # psi meets inf, as above
                sol = dataclasses.replace(wide_sol, theta=theta, omega=omega)
            assert_same_bytes(tmp_path, write_hopf_csv, reference_hopf, sol, 3)
            cells.update((tmp_path / "table.csv").read_text().splitlines()[6:14])
        assert {"tau0,nan", "tau_hat0,inf", "tau_hat0,1e+16", "tau0,1e+18",
                "tau0,-0", "tau_hat0,-0", "tau_hat0,4.94065645841e-324",
                "tau0,4.94065645841e-322"} <= cells

    def test_normalform(self, tmp_path, wide_sol):
        parts = [awkward(ROWS, seed) for seed in range(10, 23)]
        reports = [
            NormalFormReport(
                n=k, tau_n=parts[0][k], tau_hat_n=parts[1][k],
                g=GCoefficients(*(complex(parts[2 + 2 * j][k],
                                          parts[3 + 2 * j][k])
                                  for j in range(4))),
                c1=complex(parts[10][k], -parts[10][k]),
                dmu=complex(parts[11][k], parts[0][k]), mu2=parts[12][k],
                direction=("forward", "backward", "undetermined")[k % 3],
                orbit_stability=("stable", "unstable", "undetermined")[k % 3],
            )
            for k in range(ROWS)
        ]
        assert_same_bytes(tmp_path, write_normalform_csv,
                          reference_normalform, wide_sol, reports)


SWEEP_CONFIG = f"""[model]
length = 3
n_points = 101
a = 2.5
r = 0.01
p = {FIG2_P}
delta = {FIG_DELTA}

[task]
name = sweep
"""


class TestSweep:
    def run_sweep(self, tmp_path, monkeypatch, r_list, row):
        """Run the sweep task with ``row`` standing in for ``_sweep_row``."""
        config = tmp_path / "run.cfg"
        config.write_text(SWEEP_CONFIG, encoding="utf-8")
        cells_by_r = {}

        def recording(model, r, r_cap):
            cells_by_r[r] = row(model, r, r_cap)
            return cells_by_r[r]

        monkeypatch.setattr(cli_module, "_sweep_row", recording)
        out = tmp_path / "sweep-out"
        r_text = ",".join(f"{r!r}" for r in r_list)
        code = main(["sweep", "--config", str(config), "--out", str(out),
                     "--set", f"task.r_list={r_text}"])
        assert code == 0
        reference = tmp_path / "reference.csv"
        model = load_config(str(config),
                            overrides={("task", "r_list"): r_text}).model
        reference_sweep(reference, model, cells_by_r, r_list)
        return (out / "sweep.csv").read_bytes(), reference.read_bytes()

    def test_real_rows_with_stall(self, tmp_path, monkeypatch):
        real_row = cli_module._sweep_row

        def row(model, r, r_cap):
            if r == 0.05:
                raise CrossingError("forced stall")
            return real_row(model, r, r_cap)

        ours, theirs = self.run_sweep(tmp_path, monkeypatch,
                                      [0.1, 0.05, 0.01], row)
        assert b",,,,,,,,,STALL\n" in ours
        assert ours == theirs

    def test_blocks(self, tmp_path, monkeypatch):
        r_list = [0.5 * (1.0 - k / ROWS) for k in range(ROWS)]
        index = {r: k for k, r in enumerate(r_list)}
        parts = [awkward(ROWS, seed) for seed in range(30, 39)]

        def row(model, r, r_cap):
            k = index[r]
            if k % 7 == 3:
                raise CrossingError("forced stall")
            return (r, 1.0 / r, *(part[k] for part in parts), "OK")

        ours, theirs = self.run_sweep(tmp_path, monkeypatch, r_list, row)
        assert ours.count(b"\n") == ROWS + 2
        assert ours == theirs


class TestTracerContract:
    """``perfbench/tracer.py`` wraps each public ``write_*_csv`` function
    once and reads the output path from its first positional argument."""

    def writers(self):
        for info in pkgutil.iter_modules(nicholson.__path__):
            module = importlib.import_module(f"nicholson.{info.name}")
            for name, value in vars(module).items():
                if (name.startswith("write_") and name.endswith("_csv")
                        and callable(value)
                        and value.__module__ == module.__name__):
                    yield name, value

    def test_path_is_first_parameter(self):
        for name, writer in self.writers():
            first = next(iter(inspect.signature(writer).parameters.values()))
            assert first.name == "path", name
            assert first.kind == first.POSITIONAL_OR_KEYWORD, name

    def test_one_writer_per_format(self):
        # a shared helper matching the pattern would count twice
        assert sorted(name for name, _ in self.writers()) == [
            "write_hopf_csv", "write_normalform_csv", "write_snapshot_csv",
            "write_spacetime_csv", "write_steady_csv", "write_trace_csv",
        ]
