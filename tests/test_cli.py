"""Command-line interface: config handling, tasks, exit codes, manifests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nicholson import cli, normalform
from nicholson.cli import main
from nicholson.config import (
    TASKS,
    ConfigError,
    echo_lines,
    load_config,
    option_float,
    option_float_list,
    option_int,
    parse_overrides,
)
from nicholson.hopf import (
    ContinuationStallError,
    characteristic_matrix,
    continue_hopf,
)
from nicholson.normalform import normal_form_report, write_normalform_csv

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
        from nicholson.model import CoefficientSpec

        grid = Grid1D(length=3.0, n_points=121)
        samples = CoefficientSpec.parse("30 + 1*sin(1*x + 0)").sample(grid)
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
        assert np.allclose(config.model.coeffs.p, samples)

    def test_option_getters(self, fig2_config):
        config = load_config(
            fig2_config,
            overrides={("task", "n_max"): "2", ("task", "t_end"): "12.5",
                       ("task", "r_list"): "0.1, 0.01"},
        )
        assert option_int(config, "n_max", 0) == 2
        assert option_float(config, "t_end", 1.0) == pytest.approx(12.5)
        assert option_float_list(config, "r_list") == [0.1, 0.01]
        assert option_int(config, "absent", 7) == 7
        with pytest.raises(ConfigError, match="required"):
            option_float(config, "missing")
        with pytest.raises(ConfigError, match="not an integer"):
            option_int(
                load_config(fig2_config,
                            overrides={("task", "n_max"): "two"}),
                "n_max", 0,
            )

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

    def test_normalform_factors_once_per_crossing(self, tmp_path, fig2_config,
                                                  monkeypatch):
        # the two correction fields do not depend on n: a run over three
        # thresholds builds each shifted matrix once and writes the same
        # table as three independent reports
        config = load_config(fig2_config)
        sol = continue_hopf(config.model, config.model.r)
        reference = tmp_path / "reference.csv"
        write_normalform_csv(reference, sol,
                             [normal_form_report(sol, n) for n in range(3)])
        built = []

        def counted(*args, **kwargs):
            built.append(args[2])
            return characteristic_matrix(*args, **kwargs)

        monkeypatch.setattr(normalform, "characteristic_matrix", counted)
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
                raise ContinuationStallError("forced stall for testing",
                                             last_good_r=0.2)
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

    def test_reproduce_small_grid(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "repro-out"
        code = main(["reproduce", "fig2", "--out", str(out), "--grid", "61"])
        assert code == 0
        text = (out / "summary.txt").read_text()
        assert "within 1e-3: OK" in text
        assert "tau_hat0_verdict = settled" in text
        assert "tau_hat2_verdict = oscillating" in text
        assert (out / "trace_tau0.csv").exists()
        assert (out / "trace_tau2.csv").exists()


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
        assert "'tend'" in capsys.readouterr().err
        assert not out.exists()

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

        def stall(*args, **kwargs):
            raise ContinuationStallError("forced stall for testing",
                                         last_good_r=0.2)

        monkeypatch.setattr(cli_module, "continue_hopf", stall)
        out = tmp_path / "stall"
        code = main(["hopf", "--config", str(fig2_config),
                     "--out", str(out)])
        assert code == 2
        assert "hopf.continue_hopf" in capsys.readouterr().err

    def test_blowup_is_three(self, tmp_path, fig2_config, capsys):
        out = tmp_path / "blow"
        code = main([
            "simulate", "--config", str(fig2_config), "--out", str(out),
            "--set", "model.r=10", "--set", "model.tau_hat=2",
            "--set", "task.t_end=4000", "--set", "task.dt=2.0",
        ])
        assert code == 3
        assert "simulator.simulate_pde" in capsys.readouterr().err

    def test_scalar_overflow_is_three(self, tmp_path, fig2_config, capsys):
        out = tmp_path / "overflow"
        code = main([
            "average-dde", "--config", str(fig2_config), "--out", str(out),
            "--set", "task.tau_check=0", "--set", "task.dt=1",
            "--set", "task.t_end=200",
        ])
        assert code == 3
        assert "simulator.simulate_average_dde" in capsys.readouterr().err


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
        out = tmp_path / "tail"
        code = main([task, "--config", str(fig2_config), "--out", str(out),
                     "--set", f"task.tail_fraction={value}"])
        assert code == 1
        assert "task.tail_fraction must lie in" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_negative_snapshot_stride_is_config_error(self, tmp_path,
                                                      fig2_config, capsys):
        out = tmp_path / "stride"
        code = main(["simulate", "--config", str(fig2_config), "--out",
                     str(out), "--set", "task.snapshot_stride=-5"])
        assert code == 1
        assert "snapshot_stride must be nonnegative" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path, fig2_config):
        out = tmp_path / "script-out"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + os.pathsep + path if path else src)
        result = subprocess.run(
            [sys.executable, "-m", "nicholson.cli", "steady",
             "--config", str(fig2_config), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "c0 = " in result.stdout
        assert (out / "steady.csv").exists()
