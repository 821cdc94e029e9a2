"""Tests of the benchmark itself: generator, metric names, checks, tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture
def runner(cli, tmp_path):
    return run.Runner(cli, tmp_path)


def _configs(runner, name, seed):
    coeffs = workloads.draw_coefficients(seed)
    tau_hat_0, omega = runner.reference(coeffs)
    workload = workloads.build_workload(name, coeffs, tau_hat_0, omega)
    return [(op.op_id, op.config) for op in workload.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_gives_byte_identical_configs(runner, name):
    first = _configs(runner, name, 3)
    assert first == _configs(runner, name, 3)
    assert first != _configs(runner, name, 4)


def test_draws_respect_the_c0_floor():
    for seed in range(200):
        assert workloads.draw_coefficients(seed).c0() > workloads.C0_MIN


def test_metric_names_and_units_match_the_emitters():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    emitted = set(tracing.layer_metrics([])) | set(run.RUN_LAYER_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == emitted
    for metric in spec["per_layer"]:
        assert metric["unit"] == tracing.unit_of(metric["name"])


def _union(intervals):
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def test_trace_self_check(runner):
    n = 121
    config = workloads.config_text(workloads.draw_coefficients(1), n,
                                   "normalform", n_max=0)
    op = workloads.Op("traced", "normalform", n, config)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, output = runner.call(runner.argv(op))
    finally:
        tracer.uninstall()
    assert code == 0, output
    assert not tracer.missing
    spans = tracer.spans
    own = tracing.self_seconds(spans)
    resolution = 1e-6
    for parent in spans:
        children = [s for s in spans if s.parent is parent]
        for child in children:
            assert parent.start <= child.start <= child.end <= parent.end
        covered = _union([(c.start, c.end) for c in children])
        assert abs(own[id(parent)] + covered - parent.seconds) <= resolution
    metrics = tracing.layer_metrics(spans)
    assert metrics["hopf.continue_hopf.steady_calls_per_call"] == 1
    reports = sum(1 for s in spans if s.name == "normalform.normal_form_report")
    assert reports == 1
    assert metrics["hopf.characteristic_matrix.dense_bytes_computed"] == \
        reports * 2 * 16 * n * n
    assert metrics["cli.main.calls"] == 1
    # the package is back to its untraced functions
    import nicholson.hopf
    assert not hasattr(nicholson.hopf.solve_steady_state, "__wrapped__")


def test_steady_check_rejects_a_perturbed_field(runner):
    coeffs = workloads.draw_coefficients(1)
    op = workloads.Op("steady", "steady", 201,
                      workloads.config_text(coeffs, 201, "steady"))
    code, output = runner.call(runner.argv(op))
    assert code == 0, output
    out = runner.out_dir("steady")
    assert not checks.check_steady(out, coeffs, workloads.R, 201).problems
    lines = (out / "steady.csv").read_text().splitlines()
    x, u = lines[100].split(",")
    lines[100] = f"{x},{float(u) * (1 + 1e-7):.12g}"
    (out / "steady.csv").write_text("\n".join(lines) + "\n")
    assert checks.check_steady(out, coeffs, workloads.R, 201).problems


def test_sweep_check_counts_each_bad_row(tmp_path):
    header = ("r,d,theta,omega,beta,tau0,tau_hat0,Re_S0,Im_S0,"
              "transversality_scaled,Re_C1,status")

    def row(r, theta, omega, status):
        return f"{r},{1 / r if r else 'inf'},{theta},{omega},1,,{theta / omega:.12g},,,,-1,{status}"

    rows = [row(0.1, 2.52, 2.42, "OK"), "0.05,20,,,,,,,,,,STALL",
            row(0.01, 2.501, 2.411, "OK"), row(0, 2.5, 2.41, "LIMIT")]
    (tmp_path / "sweep.csv").write_text("\n".join([header] + rows) + "\n")
    assert checks.check_sweep(tmp_path, (0.1, 0.05, 0.01)).failed_results == 1
    rows[2] = row(0.01, 2.6, 2.411, "OK")  # theta left the branch
    (tmp_path / "sweep.csv").write_text("\n".join([header] + rows) + "\n")
    assert checks.check_sweep(tmp_path, (0.1, 0.05, 0.01)).failed_results == 2


def test_passes_fit_in_the_seconds():
    def passes(*walls):
        return [run.PassResult(wall=wall, op_seconds={}) for wall in walls]

    assert run.another_pass([], 1.0)
    assert run.another_pass(passes(16.0, 16.0), 50.0)
    assert not run.another_pass(passes(16.0, 18.0), 50.0)
    assert not run.another_pass(passes(60.0), 50.0)


def test_tail_classifier():
    t = np.linspace(0.0, 400.0, 80001)
    period = 2.6
    grown = 1.0 + 0.2 * np.sin(2 * math.pi * t / period)
    dying = 1.0 + 0.2 * np.exp(-t / 40.0) * np.sin(2 * math.pi * t / period)
    regime, found = checks.classify_tail(grown, t)
    assert regime == "oscillating" and abs(found - period) < 1e-2
    assert checks.classify_tail(dying, t) == ("settled", None)
    assert checks.classify_tail(np.ones_like(t), t) == ("settled", None)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
