"""Workbench benchmark: run one workload through the CLI and report metrics.

Run from the repository root:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` of the checkout the script sits in,
and every op calls ``nicholson.cli.main`` in this process, one op after the
other; BLAS keeps its default thread count.  A few untimed warm-up ops run
first.  Passes over the workload's ops repeat as long as one more pass is
expected to end within ``--seconds`` of pass time, whole passes only, at
least one.  Every op's output is checked after its pass, outside the timed
region (see checks.py).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh interpreters importing ``nicholson.cli`` and loading the first
config), ``wall_s`` (median pass time) and ``peak_rss_mb``.  ``--trace 1``
runs one untraced pass, then traced passes, and reports the per-layer
metrics of tracer.py plus ``trace.overhead_s``.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
machine and the per-task times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics the traced run adds to those of tracer.layer_metrics.
RUN_LAYER_METRICS = ("trace.overhead_s", "steady.solve_steady_state.fine_grid_ok")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The CLI task each op belongs to, as named in the per-task times.
TASK_METRIC = {
    "steady": "steady_s", "hopf": "hopf_s", "normalform": "normalform_s",
    "sweep": "sweep_s", "simulate": "simulate_s",
    "average-dde": "average_dde_s", "reproduce": "reproduce_s",
}
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import nicholson.cli; "
    "from nicholson.config import load_config; load_config(sys.argv[2])"
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no package, failed set-up)."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """Import ``nicholson.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "nicholson" / "cli.py").is_file():
        raise BenchmarkError(f"no package source at {SRC / 'nicholson'}")
    sys.path.insert(0, str(SRC))
    import nicholson.cli

    if Path(nicholson.cli.__file__).resolve().parent != (SRC / "nicholson").resolve():
        raise BenchmarkError(f"imported nicholson from {nicholson.cli.__file__}")
    return nicholson.cli


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class PassResult:
    wall: float
    op_seconds: dict
    attempted: int = 0
    failed: int = 0
    sim_steps: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)


class Runner:
    """Writes a workload's configs and runs its passes in this process."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.tracer: tracing.Tracer | None = None

    def out_dir(self, op_id: str) -> Path:
        return self.workdir / "out" / op_id

    def config_path(self, op: workloads.Op) -> Path:
        """Write the op's config file and return its path."""
        path = self.workdir / f"{op.op_id}.cfg"
        path.write_text(op.config, encoding="utf-8")
        return path

    def argv(self, op: workloads.Op) -> list[str]:
        argv = [op.task, *op.extra, "--out", str(self.out_dir(op.op_id))]
        if op.config is not None:
            argv += ["--config", str(self.config_path(op))]
        return argv

    def call(self, argv: list[str]) -> tuple[int, str]:
        """One CLI invocation; returns its exit code and captured output."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an uncaught error exits 1 in a shell
                print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        return code, sink.getvalue()

    def reference(self, coeffs: workloads.Coefficients) -> tuple[float, float]:
        """tau_hat_0 and omega of the seed's coefficients on the reference grid."""
        op = workloads.Op("reference", "hopf", workloads.REFERENCE_GRID,
                          workloads.reference_config(coeffs))
        code, output = self.call(self.argv(op))
        if code != 0:
            raise BenchmarkError(f"reference hopf run failed: {output}")
        summary = checks.read_summary(self.out_dir(op.op_id))
        return float(summary["tau_hat_0"]), float(summary["omega"])

    def warm_up(self, workload: workloads.Workload, tau_hat_0: float) -> None:
        """Run the workload's warm-up ops once; their outputs are not checked."""
        for op in workloads.warmup_ops(workload, tau_hat_0):
            self.call(self.argv(op))

    def run_pass(self, workload: workloads.Workload) -> PassResult:
        ops = workload.ops
        argvs = [self.argv(op) for op in ops]
        for op in ops:
            shutil.rmtree(self.out_dir(op.op_id), ignore_errors=True)
        op_seconds, codes = {}, {}
        start = time.perf_counter()
        for op, argv in zip(ops, argvs):
            if self.tracer is not None:
                self.tracer.op_id = op.op_id
            begin = time.perf_counter()
            codes[op.op_id] = self.call(argv)
            op_seconds[op.op_id] = time.perf_counter() - begin
        wall = time.perf_counter() - start
        result = PassResult(wall=wall, op_seconds=op_seconds)
        outcomes = checks.check_pass(workload, self.out_dir, codes)
        for op in ops:
            outcome = outcomes[op.op_id]
            result.attempted += op.results
            result.failed += outcome.failed_results
            result.sim_steps[op.op_id] = outcome.sim_steps
            result.problems += [f"{op.op_id}: {p}" for p in outcome.problems]
            for key, value in outcome.values.items():
                if key != "tau_hat_0":
                    result.margins[key] = max(value, result.margins.get(key, 0.0))
        return result


def another_pass(passes: list[PassResult], seconds: float) -> bool:
    """True before the first pass, then while one more median pass still
    ends within ``seconds`` of pass time."""
    if not passes:
        return True
    walls = [p.wall for p in passes]
    return sum(walls) + statistics.median(walls) <= seconds


def run_passes(runner: Runner, workload, seconds: float) -> list[PassResult]:
    """Whole passes, as many as fit in ``seconds`` of pass time (at least one)."""
    passes = []
    while another_pass(passes, seconds):
        passes.append(runner.run_pass(workload))
    return passes


def measure_setup(config: Path) -> float:
    """Median wall time of fresh interpreters importing the CLI and a config."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up interpreter failed: {proc.stderr!r}")
    return statistics.median(times)


def task_table(workload, passes: list[PassResult]) -> dict:
    """Per-task times (median over passes of the sum over the task's ops)."""
    table = {}
    for task, metric in TASK_METRIC.items():
        ops = [op for op in workload.ops if op.task == task]
        if ops:
            table[metric] = statistics.median(
                sum(p.op_seconds[op.op_id] for op in ops) for p in passes)
    stepping = [op for op in workload.ops if op.task in ("simulate", "reproduce")]
    if stepping:
        rates = [sum(p.sim_steps[op.op_id] for op in stepping)
                 / sum(p.op_seconds[op.op_id] for op in stepping) for p in passes]
        table["sim_steps_per_s"] = statistics.median(rates)
    attempted = sum(p.attempted for p in passes)
    table["fail_ratio"] = sum(p.failed for p in passes) / attempted
    return table


def run_probes(runner: Runner, coeffs) -> int:
    """Run the fine-grid steady probes; returns how many succeed."""
    succeeded = 0
    for op in workloads.probe_ops(coeffs):
        begin = time.perf_counter()
        code, output = runner.call(runner.argv(op))
        seconds = time.perf_counter() - begin
        ok = code == 0 and not checks.check_steady(
            runner.out_dir(op.op_id), coeffs, workloads.R, op.n).problems
        succeeded += ok
        detail = "" if ok else f" ({output.strip().splitlines()[0]})"
        print(f"probe {op.op_id}: {'ok' if ok else 'failed'} in {seconds:.3f} s{detail}")
    return succeeded


def blas_single_thread(seed: int) -> dict:
    """One untraced spectral run with BLAS pinned to one thread."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", "spectral",
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-300:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"wall_s": result["metrics"]["wall_s"]["value"],
            "correct": result["correct"]}


def report(passes: list[PassResult], metrics: dict) -> dict:
    """The result object; prints the check margins and failures first."""
    margins = {}
    for p in passes:
        for key, value in p.margins.items():
            margins[key] = max(value, margins.get(key, 0.0))
    print("largest check values " + json.dumps(margins))
    for problem in [problem for p in passes for problem in p.problems][:20]:
        print(f"check failed: {problem}")
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0, "attempted": sum(p.attempted for p in passes),
            "failed": failed, "metrics": metrics}


def run(args: argparse.Namespace) -> dict:
    cli = import_cli()
    print("machine " + json.dumps(machine_record()))
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(cli, workdir)
        coeffs = workloads.draw_coefficients(args.seed)
        tau_hat_0, omega = runner.reference(coeffs)
        workload = workloads.build_workload(args.workload, coeffs, tau_hat_0, omega)
        print(f"workload {args.workload} seed {args.seed}: {coeffs.p_text}; "
              f"{coeffs.delta_text}; c0 = {coeffs.c0():.6f}; "
              f"tau_hat_0 = {tau_hat_0:.6f}")
        runner.warm_up(workload, tau_hat_0)
        if args.trace:
            return traced_run(args, runner, workload)
        first = next(op for op in workload.ops if op.config is not None)
        setup_s = measure_setup(runner.config_path(first))
        passes = run_passes(runner, workload, args.seconds)
        run_probes(runner, workload.coeffs)
        for name, value in task_table(workload, passes).items():
            unit = {"sim_steps_per_s": "1/s", "fail_ratio": "ratio"}.get(name, "s")
            print(f"task {name} = {value:.6g} {unit}")
        print(f"passes {len(passes)}: "
              + ", ".join(f"{p.wall:.3f}" for p in passes) + " s")
        print("op medians " + json.dumps({
            op.op_id: statistics.median(p.op_seconds[op.op_id] for p in passes)
            for op in workload.ops}))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(p.wall for p in passes),
                       "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        return report(passes, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def traced_run(args, runner: Runner, workload) -> dict:
    """One untraced pass, then traced passes; all of them share ``--seconds``."""
    baseline = runner.run_pass(workload)
    tracer = tracing.Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        passes, per_pass = [], []
        while not passes or another_pass([baseline] + passes, args.seconds):
            first = len(tracer.spans)
            passes.append(runner.run_pass(workload))
            per_pass.append(tracing.layer_metrics(tracer.spans[first:]))
    finally:
        tracer.uninstall()
        runner.tracer = None
    if tracer.missing:
        print("not traced (missing): " + ", ".join(tracer.missing))
    layer = tracing.median_metrics(per_pass)
    layer["trace.overhead_s"] = (statistics.median(p.wall for p in passes)
                                 - baseline.wall)
    layer["steady.solve_steady_state.fine_grid_ok"] = run_probes(
        runner, workload.coeffs)
    print(f"untraced pass {baseline.wall:.3f} s; traced passes "
          + ", ".join(f"{p.wall:.3f}" for p in passes) + " s")
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracing.span_records(tracer.spans)),
                          encoding="utf-8")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    if args.workload == "spectral":
        print("blas1 " + json.dumps(blas_single_thread(args.seed)))
    metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
               for name, value in layer.items()}
    return report([baseline] + passes, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
