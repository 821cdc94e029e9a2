"""Command-line interface: config handling, tasks, exit codes, manifests."""

import ast
import contextlib
import functools
import importlib.machinery
import inspect
import io
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nicholson import _lapack, cli, normalform
from nicholson.cli import main
from nicholson.config import (
    OPTIONS,
    TASKS,
    ConfigError,
    echo_lines,
    load_config,
    parse_overrides,
    task_keys,
)
from nicholson.hopf import (
    CrossingError,
    NoHopfError,
    continue_hopf,
)
from nicholson.normalform import normal_form_report, write_normalform_csv
from nicholson.grid import DiscreteLaplacian
from nicholson.simulate import BlowUpError, SimulationTrace

import oracles

FIG2_CONFIG = """\
[model]
length = 3
n_points = 121
a = 2.5
r = 0.01
p = 30 + 1*sin(1*x + 0)
delta = 2 + 1*cos(0.2*x + 0)

[task]
name = hopf
"""

FIG1_CONFIG = FIG2_CONFIG.replace("30 + 1*sin", "10 + 1*sin")


@pytest.fixture
def fig2_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FIG2_CONFIG, encoding="utf-8")
    return path


@pytest.fixture
def no_continuation(monkeypatch):
    """Fail the test if the task reaches ``continue_hopf``."""
    def never(*args, **kwargs):
        raise AssertionError("continue_hopf ran before the options were checked")

    monkeypatch.setattr(cli, "continue_hopf", never)


@pytest.fixture
def no_solver(monkeypatch):
    """Fail the test if the task reaches any solver."""
    def never(*args, **kwargs):
        raise AssertionError("a solver ran before the options were checked")

    for name in ("continue_hopf", "solve_steady_state", "simulate_pde",
                 "simulate_average_dde"):
        monkeypatch.setattr(cli, name, never)


def run_with(tmp_path, task, settings, config):
    """``main`` on ``config`` plus ``--set`` settings; (exit code, out dir)."""
    out = tmp_path / "out"
    args = [task, "--config", str(config), "--out", str(out)]
    for setting in settings:
        args += ["--set", setting]
    return main(args), out


def read_summary(out_dir) -> dict:
    table = {}
    for line in (out_dir / "summary.txt").read_text().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            table[key] = value
    return table


class TestTaskNames:
    def test_runners_match_config_tasks(self):
        assert set(cli._TASK_RUNNERS) == set(TASKS)


class TestParseOverrides:
    def test_round_trip(self):
        pairs = parse_overrides(["model.r=0.5", "task.n_max=2"])
        assert pairs[("model", "r")] == "0.5"
        assert pairs[("task", "n_max")] == "2"

    def test_value_may_contain_equals(self):
        pairs = parse_overrides(["model.p=30 + 1*sin(1*x + 0)"])
        assert pairs[("model", "p")] == "30 + 1*sin(1*x + 0)"

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            parse_overrides(["model=0.5"])
        with pytest.raises(ConfigError, match="section.key=value"):
            parse_overrides(["r=0.5"])


class TestLoadConfig:
    def test_file_happy_path(self, fig2_config):
        config = load_config(fig2_config)
        assert config.task == "hopf"
        assert config.model.r == pytest.approx(0.01)
        assert config.model.grid.n_points == 121
        assert config.model.coeffs.c0 == pytest.approx(2.3443, abs=1e-3)

    def test_overrides_win_over_file(self, fig2_config):
        config = load_config(
            fig2_config, overrides={("model", "r"): "0.001"}
        )
        assert config.model.r == pytest.approx(0.001)

    def test_grid_override_wins(self, fig2_config):
        config = load_config(fig2_config, grid_override=61)
        assert config.model.grid.n_points == 61

    def test_d_and_r_are_exclusive(self, fig2_config):
        with pytest.raises(ConfigError, match="exactly one of d or r"):
            load_config(fig2_config, overrides={("model", "d"): "100"})

    def test_d_alone_sets_r(self, tmp_path):
        path = tmp_path / "d.cfg"
        path.write_text(FIG2_CONFIG.replace("r = 0.01", "d = 100"),
                        encoding="utf-8")
        config = load_config(path)
        assert config.model.r == pytest.approx(0.01)

    def test_tau_hat_converts(self, fig2_config):
        config = load_config(
            fig2_config, overrides={("model", "tau_hat"): "2.0"}
        )
        assert config.model.tau == pytest.approx(200.0)
        assert config.model.tau_hat == pytest.approx(2.0)

    def test_tau_and_tau_hat_conflict(self, tmp_path):
        text = FIG2_CONFIG.replace(
            "r = 0.01", "r = 0.01\ntau = 1\ntau_hat = 2"
        )
        path = tmp_path / "conflict.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="at most one of"):
            load_config(path)

    def test_default_grid_is_301(self, tmp_path):
        text = FIG2_CONFIG.replace("n_points = 121\n", "")
        path = tmp_path / "default.cfg"
        path.write_text(text, encoding="utf-8")
        assert load_config(path).model.grid.n_points == 301

    def test_missing_sections(self):
        with pytest.raises(ConfigError, match="model"):
            load_config(None, overrides={("task", "name"): "steady"})

    def test_unknown_section_rejected(self, fig2_config):
        with pytest.raises(ConfigError, match="unknown config sections"):
            load_config(fig2_config, overrides={("extra", "x"): "1"})

    def test_unknown_model_key_rejected(self, fig2_config):
        with pytest.raises(ConfigError, match="unknown model keys"):
            load_config(fig2_config, overrides={("model", "bogus"): "1"})

    def test_unknown_task_rejected(self, fig2_config):
        with pytest.raises(ConfigError, match="unknown task"):
            load_config(fig2_config, overrides={("task", "name"): "dance"})

    def test_coefficient_requires_exactly_one_route(self, tmp_path):
        text = FIG2_CONFIG.replace(
            "p = 30 + 1*sin(1*x + 0)\n", ""
        )
        path = tmp_path / "nop.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="exactly one of 'p'"):
            load_config(path)

    def test_coefficient_csv_route(self, tmp_path):
        import numpy as np
        from nicholson.grid import Grid1D
        from nicholson.model import coefficient_values

        grid = Grid1D(length=3.0, n_points=121)
        samples = coefficient_values("30 + 1*sin(1*x + 0)", grid)
        csv_path = tmp_path / "p.csv"
        csv_path.write_text(
            "x,value\n" + "\n".join(
                f"{x:.17g},{v:.17g}" for x, v in zip(grid.nodes, samples)
            ) + "\n",
            encoding="utf-8",
        )
        text = FIG2_CONFIG.replace(
            "p = 30 + 1*sin(1*x + 0)", f"p_csv = {csv_path}"
        )
        path = tmp_path / "csv.cfg"
        path.write_text(text, encoding="utf-8")
        config = load_config(path)
        assert np.array_equal(config.model.coeffs.p, samples)

    def test_option_getters(self, fig2_config):
        def options(task, **raw):
            overrides = {("task", "name"): task}
            overrides.update({("task", key): value for key, value in raw.items()})
            return load_config(fig2_config, overrides=overrides)

        hopf = options("hopf", n_max="2")
        assert hopf.options == {"n_max": 2, "r_cap": 0.5}
        assert isinstance(hopf.options["n_max"], int)
        simulate = options("simulate", t_end="12.5")
        assert simulate.options["t_end"] == pytest.approx(12.5)
        assert simulate.options["snapshot_stride"] == 0
        assert options("sweep", r_list="0.1, 0.01").options["r_list"] == [0.1, 0.01]
        with pytest.raises(ConfigError, match="task.r_list is required"):
            options("sweep")
        with pytest.raises(ConfigError, match="not an integer"):
            options("hopf", n_max="two")

    def test_echo_lines_resolved(self, fig2_config):
        lines = echo_lines(load_config(fig2_config))
        joined = "\n".join(lines)
        assert "[model]" in joined and "[task]" in joined
        assert "name = hopf" in joined
        assert "r = 0.01" in joined
        assert "n_points = 121" in joined
        # derived quantities are echoed so a run is reproducible from its
        # manifest alone
        assert "d = 100" in joined
        assert "c0 = " in joined

    def test_echo_lines_list_task_defaults(self, fig2_config):
        lines = echo_lines(load_config(
            fig2_config, overrides={("task", "name"): "simulate"}))
        task = lines[lines.index("[task]"):]
        assert task == ["[task]", "name = simulate", "dt = 0.005",
                        "history = default", "snapshot_stride = 0",
                        "t_end = 400.0"]
        lines = echo_lines(load_config(fig2_config, overrides={
            ("task", "name"): "sweep", ("task", "r_list"): "0.1, 0.01"}))
        assert "r_list = 0.1,0.01" in lines and "r_cap = 0.5" in lines


class TestTaskRuns:
    def test_steady_task(self, tmp_path, fig2_config):
        out = tmp_path / "steady-out"
        code = main(["steady", "--config", str(fig2_config),
                     "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert float(summary["c0"]) == pytest.approx(2.3443, abs=1e-3)
        assert (out / "steady.csv").exists()
        assert (out / "manifest.txt").exists()
        csv_lines = (out / "steady.csv").read_text().splitlines()
        assert csv_lines[0] == "x,u"
        assert len(csv_lines) == 122

    def test_hopf_task(self, tmp_path, fig2_config):
        out = tmp_path / "hopf-out"
        code = main(["hopf", "--config", str(fig2_config),
                     "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert float(summary["theta"]) == pytest.approx(2.4097, abs=2e-3)
        assert float(summary["tau_hat_0"]) == pytest.approx(0.912, abs=2e-3)
        assert float(summary["transversality_scaled"]) > 0
        assert "tau_hat_3" in summary
        assert (out / "hopf.csv").exists()

    def test_hopf_no_hopf_is_success(self, tmp_path):
        config = tmp_path / "fig1.cfg"
        config.write_text(FIG1_CONFIG, encoding="utf-8")
        out = tmp_path / "nohopf-out"
        code = main(["hopf", "--config", str(config), "--out", str(out)])
        assert code == 0
        text = (out / "summary.txt").read_text()
        assert text.startswith("NoHopf: c0 = 1.2880 < 2")
        assert "stable for all delays" in text
        assert not (out / "hopf.csv").exists()

    @pytest.mark.parametrize("coefficients, line", [
        ({}, "NoHopf: c0 = 1.2880 < 2, steady state stable for all delays"),
        ({"p": "1", "delta": "2"},
         "NoHopf: c0 = -0.6931 <= 0, no positive steady state exists"),
    ], ids=["fig1", "negative-c0"])
    @pytest.mark.parametrize("task", ["hopf", "normalform", "sweep"])
    def test_no_hopf_verdict_is_the_whole_summary(self, tmp_path, task,
                                                  coefficients, line):
        config = tmp_path / "fig1.cfg"
        config.write_text(FIG1_CONFIG, encoding="utf-8")
        settings = [f"model.{key}={value}" for key, value in coefficients.items()]
        if task == "sweep":
            settings.append("task.r_list=0.1,0.01")
        code, out = run_with(tmp_path, task, settings, config)
        assert code == 0
        assert (out / "summary.txt").read_text() == line + "\n"
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[manifest.index("# files") + 1:] == ["summary.txt",
                                                            "manifest.txt"]
        assert not list(out.glob("*.csv"))

    def test_normalform_task(self, tmp_path, fig2_config):
        out = tmp_path / "nf-out"
        code = main(["normalform", "--config", str(fig2_config),
                     "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["n0_direction"] == "forward"
        assert summary["n0_orbit_stability"] == "stable"
        assert float(summary["n0_Re_C1"]) < 0
        assert float(summary["n0_mu2"]) > 0
        # the r -> 0 reference value is reported next to the finite-r one
        assert float(summary["limit_Re_C1_n0"]) == pytest.approx(
            float(summary["n0_Re_C1"]), rel=0.05
        )
        assert (out / "normalform.csv").exists()

    def test_normalform_task_on_fine_grid(self, tmp_path, fig2_config):
        # the shifted solves are tridiagonal, so n = 4801 is cheap; the
        # dense path needed about 1 GB here
        out = tmp_path / "nf-fine-out"
        code = main(["normalform", "--config", str(fig2_config),
                     "--set", "model.n_points=4801", "--out", str(out)])
        assert code == 0
        assert read_summary(out)["n0_orbit_stability"] == "stable"

    def test_normalform_factors_once_per_crossing(self, tmp_path, fig2_config,
                                                  monkeypatch):
        # the two correction fields do not depend on n: a run over three
        # thresholds factors each shifted matrix once and writes the same
        # table as three reports with corrections solved at their own tau_n
        config = load_config(fig2_config)
        sol = continue_hopf(config.model)
        reference = tmp_path / "reference.csv"
        write_normalform_csv(reference, sol, [oracles.threshold_report(sol, n)
                                              for n in range(3)])
        built = []
        real_factor = DiscreteLaplacian.factor

        def counted(self, shift):
            # the factorizations of the normal form's shifted solves only
            if sys._getframe(1).f_code is normalform._solve_shifted.__code__:
                built.append(shift)
            return real_factor(self, shift)

        monkeypatch.setattr(DiscreteLaplacian, "factor", counted)
        out = tmp_path / "nf-out"
        code = main(["normalform", "--config", str(fig2_config),
                     "--set", "task.n_max=2", "--out", str(out)])
        assert code == 0
        assert len(built) == 2
        assert (out / "normalform.csv").read_bytes() == reference.read_bytes()

    def test_simulate_task(self, tmp_path, fig2_config):
        out = tmp_path / "sim-out"
        code = main([
            "simulate", "--config", str(fig2_config), "--out", str(out),
            "--set", "model.r=10", "--set", "model.tau_hat=2",
            "--set", "task.t_end=120", "--set", "task.dt=0.01",
            "--set", "task.snapshot_stride=4000",
        ])
        assert code == 0
        summary = read_summary(out)
        assert summary["verdict"] == "oscillating"
        assert float(summary["period"]) == pytest.approx(4.62, abs=0.2)
        assert (out / "trace.csv").exists()
        assert (out / "spacetime.csv").exists()
        snaps = list(out.glob("snapshot_*.csv"))
        assert snaps

    def test_snapshot_names_are_unique(self, tmp_path, fig2_config):
        # t = 1000 and the final t = 1000.005 agree to 6 digits; the file
        # names carry the 12 of the CSV cells
        out = tmp_path / "snap-out"
        code = main([
            "simulate", "--config", str(fig2_config), "--out", str(out),
            "--grid", "11", "--set", "task.t_end=1000.001",
            "--set", "task.snapshot_stride=200000", "--set", "task.dt=5e-3",
        ])
        assert code == 0
        snaps = {path.name for path in out.glob("snapshot_*.csv")}
        assert snaps == {"snapshot_0.csv", "snapshot_1000.csv",
                         "snapshot_1000.005.csv"}
        listed = [line for line in (out / "manifest.txt").read_text().splitlines()
                  if not line.startswith("#")]
        assert len(listed) == len(set(listed))
        assert snaps <= set(listed)

    def test_average_dde_task(self, tmp_path, fig2_config):
        out = tmp_path / "dde-out"
        code = main([
            "average-dde", "--config", str(fig2_config), "--out", str(out),
            "--set", "task.tau_check=1.4", "--set", "task.t_end=200",
        ])
        assert code == 0
        summary = read_summary(out)
        assert summary["verdict"] == "oscillating"
        assert float(summary["equilibrium"]) == pytest.approx(
            2.3443 / 2.5, abs=1e-3
        )

    def test_sweep_task(self, tmp_path, fig2_config):
        out = tmp_path / "sweep-out"
        code = main([
            "sweep", "--config", str(fig2_config), "--out", str(out),
            "--set", "task.r_list=0.1,0.01",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("r,d,theta")
        assert len(lines) == 4
        assert lines[1].split(",")[-1] == "OK"
        assert lines[-1].split(",")[-1] == "LIMIT"
        assert lines[-1].split(",")[0] == "0"
        # theta converges monotonically toward the limit column
        thetas = [float(line.split(",")[2]) for line in lines[1:]]
        assert abs(thetas[1] - thetas[2]) < abs(thetas[0] - thetas[2])

    def test_sweep_stall_isolated_to_row(self, tmp_path, fig2_config,
                                         monkeypatch):
        import nicholson.cli as cli_module

        real_row = cli_module._sweep_row

        def flaky(model, r, r_cap):
            if r == 0.05:
                raise CrossingError("forced stall for testing")
            return real_row(model, r, r_cap)

        monkeypatch.setattr(cli_module, "_sweep_row", flaky)
        out = tmp_path / "stall-out"
        code = main([
            "sweep", "--config", str(fig2_config), "--out", str(out),
            "--set", "task.r_list=0.1,0.05,0.01",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses == ["OK", "STALL", "OK", "LIMIT"]
        summary = read_summary(out)
        assert summary["stalled"] == "1"

    def test_sweep_real_stall_isolated_to_row(self, tmp_path, fig2_config,
                                              monkeypatch, capsys):
        # the Hopf Newton itself fails past r = 0.05: the 0.1 row stalls,
        # the rows at or below 0.05 run to the end
        import nicholson.hopf as hopf_module

        real_newton = hopf_module._hopf_newton

        def failing_above(state, model, u):
            if model.r > 0.05:
                raise hopf_module.CrossingError("forced failure")
            return real_newton(state, model, u)

        monkeypatch.setattr(hopf_module, "_hopf_newton", failing_above)
        out = tmp_path / "real-stall-out"
        code = main([
            "sweep", "--config", str(fig2_config), "--out", str(out),
            "--set", "task.r_list=0.1,0.05,0.01",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses == ["STALL", "OK", "OK", "LIMIT"]
        assert read_summary(out)["stalled"] == "1"

        code = main(["hopf", "--config", str(fig2_config),
                     "--out", str(tmp_path / "real-stall-hopf"),
                     "--set", "model.r=0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "hopf.continue_hopf" in err
        assert "at r = 0.1;" in err and "forced failure" in err

    def test_reproduce_small_grid(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "repro-out"
        code = main(["reproduce", "fig2", "--out", str(out), "--grid", "61"])
        assert code == 0
        text = (out / "summary.txt").read_text()
        assert "within 1e-3: OK" in text
        assert "tau_hat0_verdict = settled" in text
        assert "tau_hat2_verdict = oscillating" in text
        # the same bytes as the two delays run here, one after the other
        expected = tmp_path / "sequential"
        expected.mkdir()
        summary = []
        for tau_hat in (0.0, 2.0):
            config = cli._reproduce_config("fig2", tau_hat, 61)
            trace = cli._simulate(config)
            cli.write_trace_csv(expected / f"trace_tau{tau_hat:g}.csv", trace)
            summary.extend(cli._verdict_lines(f"tau_hat{tau_hat:g}_", trace))
        c0 = config.model.coeffs.c0  # the delays share the coefficients
        summary.insert(0, f"c0 = {c0:.12g} (reference 2.3443, |diff| = "
                          f"{abs(c0 - 2.3443):.3g}, within 1e-3: OK)")
        (expected / "summary.txt").write_text("\n".join(summary) + "\n")
        for name in ("trace_tau0.csv", "trace_tau2.csv", "summary.txt"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name
        config, files = (out / "manifest.txt").read_text().split("# files\n")
        assert "# n_points = 61\n" in config
        assert files.split() == ["trace_tau0.csv", "trace_tau2.csv",
                                 "summary.txt", "manifest.txt"]

    def test_reproduce_echoes_the_default_grid(self, tmp_path, monkeypatch):
        def flat(config):
            times = np.arange(400.0)
            return SimulationTrace(times=times, mean_series=np.ones(400),
                                   snapshots=(), dt=1.0,
                                   tau_hat=config.model.tau_hat)

        monkeypatch.setattr(cli, "_simulate", flat)
        out = tmp_path / "repro-out"
        assert main(["reproduce", "fig2", "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[2:4] == ["# figure = fig2", "# n_points = 301"]


def read_table(path, skip=0) -> list:
    """Rows of a CSV file after ``skip`` preamble lines, as header dicts."""
    header, *rows = path.read_text().splitlines()[skip:]
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


class TestOneLadder:
    # benchmark seed 15 at n = 201 is a crossing where r * tau_0 and
    # tau_hat_0 round to different 12th digits
    @pytest.mark.parametrize("p, delta, n_points", [
        pytest.param("30 + 1*sin(1*x + 0)", "2 + 1*cos(0.2*x + 0)", 301,
                     id="fig2"),
        pytest.param("30 + 1*sin(1*x + 6.064795)",
                     "2 + 0.511655*cos(0.2*x + 0)", 201, id="seed15"),
    ])
    def test_every_output_prints_one_ladder(self, tmp_path, fig2_config, p,
                                            delta, n_points):
        settings = [f"model.p={p}", f"model.delta={delta}",
                    f"model.n_points={n_points}"]
        outs = {}
        for task, option in (("hopf", "task.n_max=3"),
                             ("normalform", "task.n_max=3"),
                             ("sweep", "task.r_list=0.01")):
            code, outs[task] = run_with(tmp_path / task, task,
                                        settings + [option], fig2_config)
            assert code == 0
        hopf_csv = dict(line.split(",") for line in
                        (outs["hopf"] / "hopf.csv").read_text().splitlines()[:14])
        hopf_summary = read_summary(outs["hopf"])
        nf_rows = read_table(outs["normalform"] / "normalform.csv")
        nf_summary = read_summary(outs["normalform"])
        sweep_row = read_table(outs["sweep"] / "sweep.csv")[0]
        for k in range(4):
            tau_hat = {hopf_csv[f"tau_hat{k}"], hopf_summary[f"tau_hat_{k}"],
                       nf_rows[k]["tau_hat_n"], nf_summary[f"n{k}_tau_hat"]}
            tau = {hopf_csv[f"tau{k}"], nf_rows[k]["tau_n"]}
            if k == 0:
                tau_hat.add(sweep_row["tau_hat0"])
                tau.add(sweep_row["tau0"])
            assert len(tau_hat) == 1 and len(tau) == 1, (k, tau_hat, tau)
        if n_points == 201:
            assert hopf_summary["tau_hat_0"] == "0.813365167008"

        config = load_config(fig2_config, overrides=parse_overrides(settings))
        sol = continue_hopf(config.model)
        reports = normal_form_report(sol, n_max=3)
        assert [report.n for report in reports] == [0, 1, 2, 3]
        for n, report in enumerate(reports):
            assert report.tau_n == sol.tau_n(n)
            assert report.tau_hat_n == sol.tau_hat_n(n)


class TestDeterminism:
    def test_reruns_byte_identical_up_to_timestamp(self, tmp_path,
                                                   fig2_config):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["hopf", "--config", str(fig2_config),
                     "--out", str(out_a)]) == 0
        assert main(["hopf", "--config", str(fig2_config),
                     "--out", str(out_b)]) == 0
        assert (out_a / "hopf.csv").read_bytes() == \
            (out_b / "hopf.csv").read_bytes()
        assert (out_a / "summary.txt").read_bytes() == \
            (out_b / "summary.txt").read_bytes()
        manifest_a = (out_a / "manifest.txt").read_text().splitlines()
        manifest_b = (out_b / "manifest.txt").read_text().splitlines()
        differing = [
            (a, b) for a, b in zip(manifest_a, manifest_b) if a != b
        ]
        assert all(a.startswith("# generated") for a, _ in differing)

    def test_runs_in_one_process_do_not_share_settings(self, tmp_path,
                                                       fig2_config):
        # the parser is built once per process; the --set list of one run
        # must not reach the next
        assert cli._build_parser() is cli._build_parser()
        outs = [tmp_path / "a", tmp_path / "b"]
        for out, setting in zip(outs, ["model.n_points=21", "model.a=2.0"]):
            assert main(["steady", "--config", str(fig2_config),
                         "--out", str(out), "--set", setting]) == 0
        rows = [len((out / "steady.csv").read_text().splitlines())
                for out in outs]
        assert rows == [22, 122]
        manifests = [(out / "manifest.txt").read_text().splitlines()
                     for out in outs]
        assert "# a = 2.5" in manifests[0] and "# a = 2" in manifests[1]
        assert cli._build_parser().parse_args(["steady"]).set == []


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path, fig2_config, capsys):
        out = tmp_path / "never"
        code = main(["hopf", "--config", str(fig2_config),
                     "--out", str(out),
                     "--set", "model.bogus=1"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_unread_task_key_is_config_error(self, tmp_path, fig2_config,
                                             capsys):
        out = tmp_path / "unread"
        code = main(["steady", "--config", str(fig2_config),
                     "--out", str(out), "--set", "task.tend=5"])
        assert code == 1
        assert "task.tend" in capsys.readouterr().err
        assert not out.exists()

    def test_unread_task_keys_are_named_with_their_section(
            self, tmp_path, fig2_config, no_solver, capsys):
        code, out = run_with(tmp_path, "simulate",
                             ["task.tail_fraction=0.25", "task.n_max=1"],
                             fig2_config)
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: task 'simulate' does not read task.n_max, "
            "task.tail_fraction\n")
        assert not out.exists()

    @pytest.mark.parametrize("task", ["steady", "simulate", "average-dde"])
    def test_no_positive_steady_state_names_the_coefficients(
            self, tmp_path, fig2_config, no_solver, capsys, task):
        code, out = run_with(tmp_path, task, ["model.p=2", "model.delta=2"],
                             fig2_config)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "config error: model.p and model.delta give c0 = 0 <= 0")
        assert not out.exists()
        if task != "steady":  # a given history needs no steady state
            load_config(fig2_config, overrides={
                ("task", "name"): task, ("model", "p"): "2",
                ("model", "delta"): "2", ("task", "history"): "1"})

    def test_reproduce_rejects_a_two_point_grid(self, tmp_path, monkeypatch,
                                                capsys):
        # the grid is refused before the output directory exists; a zero
        # grid is refused too, not read as the default
        monkeypatch.chdir(tmp_path)
        for grid in ("2", "0"):
            code = main(["reproduce", "fig2", "--grid", grid, "--out", "DIR"])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(
                f"config error: model grid: n_points must be at least 3, got {grid}")
            assert "Traceback" not in err
            assert not (tmp_path / "DIR").exists()
            assert list(tmp_path.iterdir()) == []

    def test_unallocatable_trace_is_config_error(self, tmp_path, fig2_config,
                                                 capsys):
        # 2e14 steps: 1.6 PB for each of the times and the means, beyond
        # any address space, so the allocation fails at once
        code, out = run_with(tmp_path, "simulate", ["task.t_end=1e12"],
                             fig2_config)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: t_end = 1e+12 at dt = ")
        assert "cannot be allocated" in err and "Traceback" not in err
        assert not (out / "trace.csv").exists()

    def test_reproduce_rejects_config_and_set(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["reproduce", "fig2", "--config", "/nonexistent.cfg",
                     "--set", "model.r=5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--config" in err and "--set" in err
        assert not list(tmp_path.iterdir())

    def test_sweep_unsorted_is_config_error(self, tmp_path, fig2_config):
        out = tmp_path / "unsorted"
        code = main([
            "sweep", "--config", str(fig2_config), "--out", str(out),
            "--set", "task.r_list=0.01,0.1",
        ])
        assert code == 1

    def test_continuation_cap_is_config_error(self, tmp_path, fig2_config,
                                              capsys):
        out = tmp_path / "cap"
        code = main(["hopf", "--config", str(fig2_config),
                     "--out", str(out), "--set", "model.r=0.8"])
        assert code == 1
        assert "r_cap" in capsys.readouterr().err

    def test_cap_opt_in_allows_larger_r(self, tmp_path, fig2_config):
        out = tmp_path / "opted"
        code = main(["hopf", "--config", str(fig2_config),
                     "--out", str(out), "--set", "model.r=0.6",
                     "--set", "task.r_cap=1.0"])
        assert code == 0

    def test_solver_error_is_two(self, tmp_path, fig2_config, monkeypatch,
                                 capsys):
        import nicholson.cli as cli_module

        @functools.wraps(cli_module.continue_hopf)
        def stall(*args, **kwargs):
            raise CrossingError("forced stall for testing")

        monkeypatch.setattr(cli_module, "continue_hopf", stall)
        out = tmp_path / "stall"
        code = main(["hopf", "--config", str(fig2_config),
                     "--out", str(out)])
        assert code == 2
        assert "hopf.continue_hopf" in capsys.readouterr().err

    def test_backward_crossing_is_two(self, tmp_path, fig2_config,
                                      monkeypatch, capsys):
        # a crossing speed with Re <= 0 exits 2 from hopf, with one named
        # line, and stalls its sweep rows, instead of escaping main
        import nicholson.hopf as hopf_module

        real_pairings = hopf_module._pairings

        def flipped(sol, n):
            s_n, delayed = real_pairings(sol, n)
            return s_n, -delayed

        monkeypatch.setattr(hopf_module, "_pairings", flipped)
        code = main(["hopf", "--config", str(fig2_config),
                     "--out", str(tmp_path / "hopf")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: hopf.transversality: ")
        assert "Re d(mu)/d(tau)" in lines[0]
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(fig2_config), "--out", str(out),
                     "--set", "task.r_list=0.1,0.01"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses == ["STALL", "STALL", "LIMIT"]

    def test_blowup_is_three(self, tmp_path, fig2_config, capsys):
        out = tmp_path / "blow"
        code = main([
            "simulate", "--config", str(fig2_config), "--out", str(out),
            "--set", "model.r=10", "--set", "model.tau_hat=2",
            "--set", "task.t_end=4000", "--set", "task.dt=2.0",
        ])
        assert code == 3
        assert "simulate.simulate_pde" in capsys.readouterr().err

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
    @pytest.mark.parametrize("failing", [(0.0,), (2.0,), (0.0, 2.0)],
                             ids=["worker", "parent", "both"])
    def test_reproduce_blowup_is_three(self, tmp_path, monkeypatch, capfd,
                                       failing, fork):
        # with fork, tau_hat = 0 runs in the worker and tau_hat = 2 here;
        # either way the failure reported is the one met first in the
        # order 0, 2, and no process is left behind.  capfd also sees
        # what a worker writes
        real = cli.simulate_pde

        @functools.wraps(real)
        def blow_up(model, **kwargs):
            if model.tau_hat in failing:
                raise BlowUpError(f"forced at tau_hat {model.tau_hat:g}", time=1.0)
            return real(model, **kwargs)

        monkeypatch.setattr(cli, "simulate_pde", blow_up)
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        code = main(["reproduce", "fig2", "--grid", "61",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capfd.readouterr().err
        assert err.splitlines() == [
            f"error: simulate.simulate_pde: forced at tau_hat {failing[0]:g}"
        ], err
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out" / "summary.txt").exists()

    def test_task_failure_pickles(self):
        failure = pickle.loads(pickle.dumps(
            cli.TaskFailure(cli.EXIT_BLOWUP, "simulate.simulate_pde: boom")))
        assert isinstance(failure, cli.TaskFailure)
        assert failure.exit_code == cli.EXIT_BLOWUP
        assert str(failure) == "simulate.simulate_pde: boom"

    def test_scalar_overflow_is_three(self, tmp_path, fig2_config, capsys):
        out = tmp_path / "overflow"
        code = main([
            "average-dde", "--config", str(fig2_config), "--out", str(out),
            "--set", "task.tau_check=0", "--set", "task.dt=1",
            "--set", "task.t_end=200",
        ])
        assert code == 3
        assert "simulate.simulate_average_dde" in capsys.readouterr().err


    @pytest.mark.parametrize("task, settings, key", [
        ("simulate", ["task.t_end=inf"], "t_end"),
        ("simulate", ["task.t_end=nan"], "t_end"),
        ("simulate", ["task.dt=nan"], "dt"),
        ("average-dde", ["task.tau_check=0", "task.dt=inf"], "dt"),
        ("average-dde", ["task.tau_check=inf"], "delay"),
    ])
    def test_nonfinite_time_is_config_error(self, tmp_path, fig2_config,
                                            capsys, task, settings, key):
        args = [task, "--config", str(fig2_config), "--out",
                str(tmp_path / "out")]
        for setting in settings:
            args += ["--set", setting]
        assert main(args) == 1
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["simulate", "average-dde"])
    @pytest.mark.parametrize("value", ["0", "0.75", "nan"])
    def test_bad_tail_fraction_is_config_error(self, tmp_path, fig2_config,
                                               capsys, task, value):
        # the verdict reads a fixed quarter: the key is one no task reads
        out = tmp_path / "tail"
        code = main([task, "--config", str(fig2_config), "--out", str(out),
                     "--set", f"task.tail_fraction={value}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "task.tail_fraction" in err
        assert not out.exists()

    def test_negative_snapshot_stride_is_config_error(self, tmp_path,
                                                      fig2_config, capsys):
        out = tmp_path / "stride"
        code = main(["simulate", "--config", str(fig2_config), "--out",
                     str(out), "--set", "task.snapshot_stride=-5"])
        assert code == 1
        assert "snapshot_stride must be nonnegative" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("task", ["hopf", "normalform"])
    def test_negative_n_max_is_config_error(self, tmp_path, fig2_config,
                                            no_continuation, capsys, task):
        out = tmp_path / "ladder"
        code = main([task, "--config", str(fig2_config), "--out", str(out),
                     "--set", "task.n_max=-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "task.n_max" in err
        assert "Traceback" not in err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("value", ["nan", "0"])
    @pytest.mark.parametrize("task, settings", [
        ("hopf", []),
        ("normalform", []),
        ("sweep", ["task.r_list=0.02,0.01"]),
    ])
    def test_bad_r_cap_is_config_error(self, tmp_path, fig2_config,
                                       no_continuation, capsys, task,
                                       settings, value):
        out = tmp_path / "capped"
        args = [task, "--config", str(fig2_config), "--out", str(out),
                "--set", f"task.r_cap={value}"]
        for setting in settings:
            args += ["--set", setting]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "task.r_cap" in err
        assert "Traceback" not in err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("settings", [
        ["task.r_list=0.1,nan"],
        ["task.r_list=inf", "task.r_cap=inf"],
    ])
    def test_nonfinite_r_list_is_config_error(self, tmp_path, fig2_config,
                                              no_continuation, capsys,
                                              settings):
        out = tmp_path / "listed"
        args = ["sweep", "--config", str(fig2_config), "--out", str(out)]
        for setting in settings:
            args += ["--set", setting]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert "task.r_list entries must be positive and finite" in err
        assert "Traceback" not in err
        assert not any(out.glob("*.csv"))


# One bad value per case; together they cover every [task] key.
BAD_TASK_VALUES = [
    ("hopf", "n_max", "-1", []),
    ("normalform", "n_max", "two", []),
    ("hopf", "r_cap", "0", []),
    ("hopf", "r_cap", "0.001", []),  # below model.r = 0.01
    ("sweep", "r_cap", "nan", ["task.r_list=0.02,0.01"]),
    ("sweep", "r_list", "0.01,0.1", []),
    ("sweep", "r_list", "0.1,nan", []),
    ("sweep", "r_list", "0.6", []),  # above the default cap
    ("sweep", "r_list", "", []),
    ("average-dde", "tau_check", "-1", []),
    ("simulate", "t_end", "inf", []),
    ("average-dde", "t_end", "0", []),
    ("simulate", "dt", "0", []),
    ("average-dde", "dt", "nan", []),
    ("simulate", "snapshot_stride", "-5", []),
    ("simulate", "snapshot_stride", "2.0", []),
    ("simulate", "history", "abc", []),
    ("average-dde", "history", "0", []),
]

# (task, key, value, accepted): the edges of each key's accepted range.
TASK_BOUNDARIES = [
    ("hopf", "n_max", "0", True),
    ("hopf", "n_max", "-1", False),
    ("hopf", "n_max", "1.5", False),
    ("hopf", "r_cap", "inf", True),
    ("hopf", "r_cap", "0.01", True),  # equal to model.r
    ("hopf", "r_cap", "0.00999", False),
    ("hopf", "r_cap", "-1", False),
    ("hopf", "r_cap", "nan", False),
    ("sweep", "r_list", "0.5,0.1", True),  # equal to the default cap
    ("sweep", "r_list", " 0.1 , 0.01", True),
    ("sweep", "r_list", "1e-300", True),
    ("sweep", "r_list", "0.1,0.1", False),
    ("sweep", "r_list", "0.1,0", False),
    ("sweep", "r_list", "-0.1", False),
    ("sweep", "r_list", "0.1,", False),
    ("sweep", "r_list", "0.1;0.01", False),
    ("average-dde", "tau_check", "0", True),
    ("average-dde", "tau_check", "inf", False),
    ("average-dde", "tau_check", "nan", False),
    ("simulate", "t_end", "1e-9", True),
    ("simulate", "t_end", "0", False),
    ("simulate", "t_end", "nan", False),
    ("average-dde", "dt", "1e-9", True),
    ("average-dde", "dt", "-1", False),
    ("average-dde", "dt", "inf", False),
    ("simulate", "snapshot_stride", "0", True),
    ("simulate", "snapshot_stride", "-1", False),
    ("simulate", "history", "1e-300", True),
    ("average-dde", "history", "1e300", True),
    ("simulate", "history", "0", False),
    ("simulate", "history", "-1", False),
    ("average-dde", "history", "inf", False),
    ("average-dde", "history", "nan", False),
]


# a config error names the key it refuses; a solver failure its label
_NAMED_CAUSE = re.compile(r"^config error: .*\b(model|task)\.\w+"
                          r"|^error: [a-z]+\.[a-z_]+: ")


class TestExitCodeContract:
    # the conjugate-root config of TestContinuation, at which hopf once
    # exited 0 with negative thresholds
    @example(task="hopf", n=3, length=92.86421458019495, a=2.5,
             r=0.03952827666787632, log_ratio=math.log(27.962278844698346
                                                       / 3.0065031363280004),
             delta_base=3.0065031363280004,
             amplitudes=(4.534752373366915 / 27.962278844698346,
                         2.1039801771886157 / 3.0065031363280004),
             waves=(3.1842066107488622, 1.0034166676397875),
             phase=3.155185569431458, t_end=1.0, tau_check=0.0, unread=None)
    # p = 1 + 1.5 sin(x + 4) dips to -0.5 near x = 0.71: the config error
    # names model.p
    @example(task="steady", n=41, length=3.0, a=2.5, r=0.1, log_ratio=0.0,
             delta_base=1.0, amplitudes=(1.5, 0.0), waves=(1.0, 0.0),
             phase=4.0, t_end=1.0, tau_check=0.0, unread=None)
    # a = 0: the config error names model.a
    @example(task="simulate", n=11, length=3.0, a=0.0, r=0.1, log_ratio=1.0,
             delta_base=1.0, amplitudes=(0.0, 0.0), waves=(0.0, 0.0),
             phase=0.0, t_end=1.0, tau_check=0.0, unread=None)
    # a key simulate does not read: the config error names it as task.n_max
    @example(task="simulate", n=11, length=3.0, a=2.5, r=0.1, log_ratio=3.0,
             delta_base=1.0, amplitudes=(0.0, 0.0), waves=(0.0, 0.0),
             phase=0.0, t_end=1.0, tau_check=0.0, unread="n_max")
    # average-dde stops at t_end <= 50 and simulate at t_end / 10 <= 5 on
    # n <= 41, so no draw stores more than 5e4 steps
    @given(task=st.sampled_from(["hopf", "normalform", "sweep", "steady",
                                 "average-dde", "simulate"]),
           n=st.sampled_from([3, 4, 5, 11, 41]),
           length=st.floats(math.log(0.1), math.log(100.0)).map(math.exp),
           a=st.one_of(st.floats(-5.0, 0.0),
                       st.floats(math.log(1e-3), math.log(100.0)).map(math.exp)),
           r=st.floats(math.log(1e-4), math.log(0.5)).map(math.exp),
           log_ratio=st.floats(0.0, 5.0),
           delta_base=st.floats(0.5, 5.0),
           amplitudes=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
           waves=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
           phase=st.floats(0.0, 2.0 * math.pi),
           t_end=st.floats(math.log(1e-2), math.log(50.0)).map(math.exp),
           tau_check=st.floats(0.0, 5.0),
           unread=st.one_of(st.none(),
                            st.sampled_from(["tail_fraction", *OPTIONS])))
    @settings(max_examples=250, deadline=None)
    def test_every_exit_is_documented(self, task, n, length, a, r, log_ratio,
                                      delta_base, amplitudes, waves, phase,
                                      t_end, tau_check, unread):
        p_base = delta_base * math.exp(log_ratio)
        overrides = [
            f"model.length={length!r}", f"model.a={a!r}", f"model.r={r!r}",
            f"model.n_points={n}",
            f"model.p={p_base!r} + {amplitudes[0] * p_base!r}"
            f"*sin({waves[0]!r}*x + {phase!r})",
            f"model.delta={delta_base!r} + {amplitudes[1] * delta_base!r}"
            f"*cos({waves[1]!r}*x + 0)",
        ]
        if task == "sweep":
            overrides.append(f"task.r_list={r!r},{r / 10.0!r}")
        if task == "average-dde":
            overrides += [f"task.t_end={t_end!r}", f"task.tau_check={tau_check!r}"]
        if task == "simulate":
            overrides += [f"task.t_end={t_end / 10.0!r}",
                          f"model.tau_hat={tau_check!r}"]
        if unread is not None and unread not in task_keys(task):
            overrides.append(f"task.{unread}=1")
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            # Re C1 > 0 and a nearly degenerate crossing warn by design
            warnings.simplefilter("ignore")
            argv = [task, "--out", str(Path(tmp) / "out")]
            for setting in overrides:
                argv += ["--set", setting]
            with (contextlib.redirect_stdout(stdout),
                  contextlib.redirect_stderr(stderr)):
                code = main(argv)
        assert code in (0, 1, 2, 3)
        if code:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and _NAMED_CAUSE.search(lines[0]), lines
        elif task == "hopf":
            thresholds = [float(line.split(" = ")[1])
                          for line in stdout.getvalue().splitlines()
                          if line.startswith("tau_hat_")]
            assert all(tau > 0 for tau in thresholds), thresholds


class TestTaskOptions:
    def test_cases_cover_every_key(self):
        assert {key for _, key, _, _ in BAD_TASK_VALUES} == set(OPTIONS)
        assert {key for _, key, _, _ in TASK_BOUNDARIES} == set(OPTIONS)

    def test_readme_table_is_the_options(self):
        # README's [task] table has one row per key of OPTIONS, in its
        # order, and each row's "read by" cell names that key's tasks
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | read by | default | accepted values |")
        rows = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            key, read_by = line.split("|")[1:3]
            rows.append((key.strip().strip("`"),
                         set(re.findall(r"`([\w-]+)`", read_by))))
        assert [key for key, _ in rows] == list(OPTIONS)
        for key, tasks in rows:
            assert tasks == set(OPTIONS[key][-1]), key

    @pytest.mark.parametrize("task", TASKS)
    def test_every_key_a_task_reads_has_a_rule(self, fig2_config, task):
        source = inspect.getsource(cli._TASK_RUNNERS[task])
        for helper in (cli._continuation, cli._simulate):
            if f"{helper.__name__}(" in source:
                source += inspect.getsource(helper)
        read = set(re.findall(r"options\[[\"'](\w+)[\"']\]", source))
        assert read == set(task_keys(task))
        # each default is a value the key's own rule accepts
        overrides = {("task", "name"): task}
        if task == "sweep":
            overrides[("task", "r_list")] = "0.1"
        options = load_config(fig2_config, overrides=overrides).options
        assert set(options) == read
        for key, value in options.items():
            read_text, accepts, _, _ = OPTIONS[key]
            assert value is None or accepts(value), key
            assert value is None or isinstance(value, type(read_text("1"))), key

    @pytest.mark.parametrize("task, key, value, settings", BAD_TASK_VALUES)
    def test_bad_value_stops_before_output_and_solve(
            self, tmp_path, fig2_config, no_solver, capsys, task, key, value,
            settings):
        code, out = run_with(tmp_path, task, [f"task.{key}={value}", *settings],
                             fig2_config)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"task.{key}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("task, key, value, accepted", TASK_BOUNDARIES)
    def test_accepted_values_unchanged(self, fig2_config, task, key, value,
                                       accepted):
        overrides = {("task", "name"): task, ("task", key): value}
        if task == "sweep" and key != "r_list":
            overrides[("task", "r_list")] = "0.1"
        if accepted:
            assert key in load_config(fig2_config, overrides=overrides).options
        else:
            with pytest.raises(ConfigError, match=f"task.{key}"):
                load_config(fig2_config, overrides=overrides)

    def test_missing_required_key_stops_before_output(
            self, tmp_path, fig2_config, no_solver, capsys):
        code, out = run_with(tmp_path, "sweep", [], fig2_config)
        assert code == 1
        assert "task.r_list is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task, settings, name", [
        ("average-dde", ["task.tau_check=1e-9", "task.t_end=1"],
         "task.tau_check = 1e-09"),
        ("average-dde", ["model.tau_hat=4e-4"], "model.tau_hat = 0.0004"),
        ("simulate", ["model.tau_hat=1e-9"], "model.tau_hat = 1e-09"),
        ("simulate", ["model.tau_hat=0.1", "task.dt=0.25"],
         "model.tau_hat = 0.1"),
    ])
    def test_delay_below_half_step_stops_before_output(
            self, tmp_path, fig2_config, no_solver, capsys, task, settings,
            name):
        # snapping dt down to such a delay once meant 1e9 steps and two
        # 8 GB arrays for average-dde with tau_check = 1e-9, t_end = 1
        start = time.perf_counter()
        code, out = run_with(tmp_path, task, settings, fig2_config)
        assert time.perf_counter() - start < 5.0
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name} with task.dt = ")
        assert not out.exists()

    def test_delay_of_six_tenths_step_runs_with_snapped_dt(
            self, tmp_path, fig2_config):
        code, out = run_with(tmp_path, "average-dde",
                             ["task.tau_check=6e-4", "task.t_end=0.5"],
                             fig2_config)
        assert code == 0
        times = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)[:, 0]
        assert times[1] == 6e-4
        assert len(times) == math.ceil(0.5 / 6e-4 - 1e-12) + 1

    def test_manifest_lists_defaults(self, tmp_path, fig2_config, monkeypatch):
        def no_hopf(*args, **kwargs):
            raise NoHopfError("stubbed")

        monkeypatch.setattr(cli, "continue_hopf", no_hopf)
        code, out = run_with(tmp_path, "hopf", [], fig2_config)
        assert code == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        task = manifest[manifest.index("# [task]"):]
        assert task[:4] == ["# [task]", "# name = hopf", "# n_max = 3",
                            "# r_cap = 0.5"]


class TestModelValues:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["length", "a", "d", "r", "tau_hat", "tau"])
    def test_nonfinite_number_is_config_error(self, tmp_path, fig2_config,
                                              no_solver, capsys, key, value):
        code, out = run_with(tmp_path, "steady", [f"model.{key}={value}"],
                             fig2_config)
        assert code == 1
        err = capsys.readouterr().err
        assert f"config error: model.{key} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2.5", "1e-400"])
    def test_nonpositive_a_is_config_error(self, tmp_path, fig2_config,
                                           no_solver, capsys, value):
        code, out = run_with(tmp_path, "steady", [f"model.a={value}"],
                             fig2_config)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: model.a must be positive, got ")
        assert not out.exists()

    def test_delay_that_overflows_is_config_error(self, tmp_path, fig2_config,
                                                  no_solver, capsys):
        # tau = tau_hat / r is refused by name, before the model is built
        code, out = run_with(tmp_path, "steady",
                             ["model.r=1e-10", "model.tau_hat=1e300"],
                             fig2_config)
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("config error: delay must be nonnegative and finite, "
                       "got tau = inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e200", "1e-200"])
    def test_length_without_finite_laplacian_is_config_error(
            self, tmp_path, fig2_config, no_solver, capsys, value):
        # 1/spacing^2 once raised OverflowError or ZeroDivisionError
        code, out = run_with(tmp_path, "steady", [f"model.length={value}"],
                             fig2_config)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: model grid: ")
        assert "1/spacing^2 is not finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["p", "delta"])
    def test_nonfinite_coefficient_is_config_error(
            self, tmp_path, fig2_config, no_solver, capsys, key, value):
        code, out = run_with(tmp_path, "simulate", [f"model.{key}={value}"],
                             fig2_config)
        assert code == 1
        err = capsys.readouterr().err
        assert f"coefficient {key} must be finite and strictly positive" in err
        assert not out.exists()


def _checkout_env() -> dict:
    """The environment with this checkout's ``src/`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + os.pathsep + path if path else src)


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path, fig2_config):
        out = tmp_path / "script-out"
        result = subprocess.run(
            [sys.executable, "-m", "nicholson.cli", "steady",
             "--config", str(fig2_config), "--out", str(out)],
            capture_output=True, text=True, env=_checkout_env(),
        )
        assert result.returncode == 0
        assert "c0 = " in result.stdout
        assert (out / "steady.csv").exists()

    def test_cli_import_skips_heavy_scipy(self):
        # a fresh interpreter: this one has imported scipy.signal already.
        # scipy.linalg's package init imports the numpy submodules below
        heavy = ("scipy.signal", "scipy.stats", "scipy.interpolate",
                 "scipy.sparse", "scipy.linalg", "numpy.f2py",
                 "numpy.testing", "numpy.ma", "numpy.random",
                 "multiprocessing", "concurrent.futures")
        code = ("import sys, nicholson.cli; "
                f"print(*[m for m in {heavy!r} if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True,
                                env=_checkout_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []

    @pytest.mark.parametrize("first, then", [
        ("nicholson.cli", "scipy.linalg.lapack"),
        ("scipy.linalg", "nicholson.cli"),
    ])
    def test_lapack_routines_are_scipys(self, first, then):
        # in either import order nicholson._lapack and scipy.linalg.lapack
        # hand out the same objects, and scipy.linalg works after the
        # package bound them
        code = f"""
import {first}
import {then}
import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import nicholson._lapack as bound
names = bound.__all__
assert len(names) == 7, names
same = [getattr(bound, n) is getattr(scipy.linalg.lapack, n) for n in names]
assert all(same), dict(zip(names, same))
a = np.diag(np.arange(1.0, 6.0)) + np.triu(np.ones((5, 5)), 1)
x = scipy.linalg.solve(a, np.ones(5))
assert np.allclose(a @ x, 1.0)
gttrf, = scipy.linalg.get_lapack_funcs(("gttrf",))
assert gttrf is bound.dgttrf
print("ok")
"""
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True,
                                env=_checkout_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["ok"]

    def test_missing_flapack_is_import_error(self, monkeypatch):
        find_spec = importlib.machinery.PathFinder.find_spec

        def no_flapack(name, *args, **kwargs):
            if name == "scipy.linalg._flapack":
                return None
            return find_spec(name, *args, **kwargs)

        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            no_flapack)
        with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
            _lapack._load_flapack()

    def test_src_builds_no_dense_matrix(self):
        # every linear system in the package is tridiagonal or bordered
        # tridiagonal; the dense builders and LU routines live in the tests
        src = Path(__file__).resolve().parents[1] / "src" / "nicholson"
        dense = ("toarray", "zgetrf", "zgecon", "zgetrs",
                 "characteristic_matrix")
        found = [f"{path.name}: {name}" for path in sorted(src.glob("*.py"))
                 for name in dense if name in path.read_text(encoding="utf-8")]
        assert found == []

    def test_only_the_lapack_module_names_scipy(self):
        # the LAPACK binding lives in one module; see nicholson/_lapack.py
        src = Path(__file__).resolve().parents[1] / "src" / "nicholson"
        found = [path.name for path in sorted(src.glob("*.py"))
                 if "scipy" in path.read_text(encoding="utf-8")]
        assert found == ["_lapack.py"]

    def test_only_the_grid_builds_the_laplacian(self):
        # Grid1D builds its Laplacian once; solvers read grid.laplacian
        # rather than take one as an argument
        src = Path(__file__).resolve().parents[1] / "src" / "nicholson"
        params, builds = [], []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.arguments):
                    params += [f"{path.name}: {arg.arg}" for arg in
                               (*node.posonlyargs, *node.args, *node.kwonlyargs)
                               if arg.arg == "laplacian"]
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(
                        func, "attr", None)
                    if name == "DiscreteLaplacian":
                        builds.append(path.name)
        assert params == []
        assert builds == ["grid.py"]

    def test_the_cli_hands_no_correction_back(self):
        # the corrections are the same at every threshold of a crossing, and
        # normalform solves them once per ladder: the CLI passes the
        # crossing alone and reads no correction field
        src = Path(__file__).resolve().parents[1] / "src" / "nicholson"
        tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
        corrections = {"second_harmonic", "zero_mode"}
        read = [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in corrections]
        passed = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                names = [ast.unparse(arg) for arg in (node.func, *node.args)]
                if "normal_form_report" in names:
                    passed.append((names[names.index("normal_form_report") + 1:],
                                   [keyword.arg for keyword in node.keywords]))
        assert read == []
        assert len(passed) == 2
        assert all(len(args) == 1 and set(keywords) <= {"n_max"}
                   for args, keywords in passed), passed

    def test_cli_labels_no_call_by_hand(self):
        # _call labels a failure module.function from the function itself,
        # so no call site can pass a label that drifts from the name
        src = Path(__file__).resolve().parents[1] / "src" / "nicholson"
        tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and ast.unparse(node.func) == "_call"]
        literals = [ast.unparse(node) for node in calls
                    for arg in (*node.args, *(k.value for k in node.keywords))
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        assert calls and literals == []
