"""Run a fixed matrix of CLI tasks, and compare two such runs file by file.

    python3 tools/outputs.py run DIR [--src SRC]
    python3 tools/outputs.py diff A B

``run`` calls ``nicholson.cli.main`` in this process for every run of the
matrix, each into its own directory under DIR, which must not exist yet,
with its config file next to it as ``<run>.cfg`` and every exit code in
``exit_codes.txt``.  The package is imported from ``SRC`` (default:
``src/`` of this checkout), so the same matrix can be run on another tree,
such as a parent commit.  The configs come from ``perfbench.workloads``,
read only:

- ``reproduce fig1`` and ``reproduce fig2``;
- fig. 2 at n = 301: ``steady``, ``hopf`` and ``normalform`` with
  ``n_max = 3``, ``steady`` again with p read from an ``x,value`` CSV
  written at ``%.17g`` from the first run's nodal values (so its
  ``steady.csv`` matches that run's byte for byte), ``sweep`` over
  r = 0.5..0.001, and ``simulate`` (with
  snapshots) and ``average-dde`` at 0, 0.95 and 1.05 ``tau_hat_0``, the
  threshold of that ``hopf`` run;
- benchmark seeds 1 and 2: ``steady``, ``hopf`` and ``normalform`` at
  n = 201, 1201 and 4801, and the benchmark's ``sweep``;
- fig. 2 and benchmark seed 1: ``hopf`` and ``normalform`` at r = 0.5 on
  n = 1201, the largest r below the default ``r_cap``;
- a long domain, draw 15 of ROADMAP item 2 (L = 8.5582, r = 0.4104, so
  r L^2 = 30, where every run above has r L^2 <= 4.5): ``steady``, ``hopf``
  and ``normalform`` with ``n_max = 3`` at n = 201.  These runs pin today's
  output, whose ``tau_hat_0`` item 2 shows is not the first crossing: the
  steady state already loses stability at a smaller delay.

``diff`` compares every file of A with its namesake in B.  A file is
byte-identical, or its numbers moved (the largest relative difference over
its numeric cells is reported), or its text changed (each such line is
printed).  The ``# generated`` timestamp line of ``manifest.txt`` is
skipped.  ``residual_norm`` lines are Newton residuals at their roundoff
floor, which any change of rounding moves, so they are reported apart.  The
exit status is 1 when a file is missing on one side or changes its line
count, a CSV line without numbers (a header) changed, or the text around the
numbers (a verdict, a status, an exit code) changed; moved numbers alone
exit 0.  The last lines printed are a Markdown table by kind of file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIG2_GRID = 301
FIG2_R_LIST = "0.5,0.2,0.1,0.05,0.02,0.01,0.005,0.002,0.001"
SIM_T_END = 400
SEEDS = (1, 2)
SEED_GRIDS = (201, 1201, 4801)
LARGE_R = 0.5
LARGE_R_GRID = 1201
EXIT_CODES = "exit_codes.txt"
LONG_DOMAIN = """[model]
length = 8.5582
n_points = 201
a = 2.5
r = 0.4104
p = 38.4437 + 19.8369*sin(1.9065*x + 0)
delta = 1.3502 + 0.3299*cos(0.9167*x + 0)
[task]
name = {task}
"""

# a number that is a whole token: not part of a name such as tau_hat0
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def run(out_dir: Path, src: Path = ROOT / "src") -> int:
    """Run the matrix into ``out_dir``; returns how many runs exited nonzero."""
    sys.path[:0] = [str(src), str(ROOT)]
    cli = importlib.import_module("nicholson.cli")
    config = importlib.import_module("nicholson.config")
    workloads = importlib.import_module("perfbench.workloads")
    figure2 = workloads.Coefficients(phase=0.0, amplitude=1.0)
    out_dir.mkdir(parents=True)  # a fresh directory: diff reads every file
    codes = []

    def once(run_id: str, task: str, config: str | None = None,
             extra: tuple = ()) -> Path:
        target = out_dir / run_id
        argv = [task, *extra, "--out", str(target)]
        if config is not None:
            path = out_dir / f"{run_id}.cfg"
            path.write_text(config, encoding="utf-8")
            argv += ["--config", str(path)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes.append(f"{run_id} {cli.main(argv)}")
        return target

    for figure in ("fig1", "fig2"):
        once(f"reproduce-{figure}", "reproduce", extra=(figure,))

    def fig2(task, **options):
        return workloads.config_text(figure2, FIG2_GRID, task, **options)

    once("fig2-steady", "steady", fig2("steady"))
    # the CSV route: the path goes in by --set, so that the .cfg file is the
    # same whatever DIR is
    model = config.load_config(out_dir / "fig2-steady.cfg").model
    p_csv = out_dir / "fig2-steady-csv-p.csv"
    p_csv.write_text("x,value\n" + "".join(
        f"{x:.17g},{p:.17g}\n" for x, p in zip(model.grid.nodes, model.coeffs.p)),
        encoding="utf-8")
    once("fig2-steady-csv", "steady",
         fig2("steady").replace(f"p = {figure2.p_text}\n", ""),
         extra=("--set", f"model.p_csv={p_csv}"))
    hopf = once("fig2-hopf", "hopf", fig2("hopf", n_max=3))
    once("fig2-normalform", "normalform", fig2("normalform", n_max=3))
    once("fig2-sweep", "sweep", fig2("sweep", r_list=FIG2_R_LIST))
    tau_hat_0 = float(_summary(hopf)["tau_hat_0"])
    for factor in (0.0, 0.95, 1.05):
        tau_hat = factor * tau_hat_0
        once(f"fig2-simulate-{factor:g}", "simulate",
             fig2("simulate", tau_hat=tau_hat, t_end=SIM_T_END,
                  snapshot_stride=400))
        once(f"fig2-average-dde-{factor:g}", "average-dde",
             fig2("average-dde", tau_check=f"{tau_hat:.12g}", t_end=SIM_T_END))

    r_list = ",".join(f"{r:g}" for r in workloads.SWEEP_R_LIST)
    for seed in SEEDS:
        coeffs = workloads.draw_coefficients(seed)
        for n in SEED_GRIDS:
            for task, options in (("steady", {}), ("hopf", {"n_max": 3}),
                                  ("normalform", {"n_max": 3})):
                once(f"seed{seed}-{task}-n{n}", task,
                     workloads.config_text(coeffs, n, task, **options))
        once(f"seed{seed}-sweep", "sweep",
             workloads.config_text(coeffs, workloads.SWEEP_GRID, "sweep",
                                   r_list=r_list))
    for name, coeffs in (("fig2", figure2), ("seed1", workloads.draw_coefficients(1))):
        for task in ("hopf", "normalform"):
            once(f"{name}-{task}-r{LARGE_R:g}-n{LARGE_R_GRID}", task,
                 workloads.config_text(coeffs, LARGE_R_GRID, task, n_max=3),
                 extra=("--set", f"model.r={LARGE_R:g}"))
    once("long-steady", "steady", LONG_DOMAIN.format(task="steady"))
    for task in ("hopf", "normalform"):
        once(f"long-{task}", task, LONG_DOMAIN.format(task=task) + "n_max = 3\n")
    (out_dir / EXIT_CODES).write_text("\n".join(codes) + "\n", encoding="utf-8")
    return sum(not line.endswith(" 0") for line in codes)


def _summary(run_dir: Path) -> dict:
    lines = (run_dir / "summary.txt").read_text(encoding="utf-8").splitlines()
    return dict(line.split(" = ", 1) for line in lines if " = " in line)


@dataclass
class FileDiff:
    """How one file differs between the two runs."""

    identical: bool = True
    moved: float = 0.0  # largest relative difference of a numeric cell
    moved_line: int = 0  # the line it is on, counted from 1
    floor: float = 0.0  # the same over residual_norm lines
    changed: list = field(default_factory=list)  # (kind, line A, line B)


def _relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _lines(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.name == "manifest.txt":
        return [line for line in lines if not line.startswith("# generated")]
    return lines


def compare_file(a: Path, b: Path) -> FileDiff:
    result = FileDiff()
    if a.read_bytes() == b.read_bytes():
        return result
    lines_a, lines_b = _lines(a), _lines(b)
    if lines_a == lines_b:
        return result
    result.identical = False
    if len(lines_a) != len(lines_b):
        result.changed.append(("shape", f"{len(lines_a)} lines", f"{len(lines_b)} lines"))
        return result
    for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
        if line_a == line_b:
            continue
        cells_a, cells_b = NUMBER.findall(line_a), NUMBER.findall(line_b)
        if a.name == EXIT_CODES or NUMBER.sub("#", line_a) != NUMBER.sub("#", line_b):
            header = a.suffix == ".csv" and not (cells_a or cells_b)
            kind = "header" if header else "verdict"
            result.changed.append((kind, line_a, line_b))
            continue
        moved = max(_relative(x, y) for x, y in zip(cells_a, cells_b))
        if line_a.startswith("residual_norm"):
            result.floor = max(result.floor, moved)
        elif moved > result.moved:
            result.moved, result.moved_line = moved, number
    return result


def _kind(name: str) -> str:
    """Group key of a file: its name with run directories and numbers starred."""
    base = name.rsplit("/", 1)[-1]
    if base.endswith(".cfg"):
        return "*.cfg"
    return re.sub(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?", "*", base)


def diff(a: Path, b: Path, stream=sys.stdout) -> int:
    """Compare two runs; prints the report and returns the exit status."""
    names_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    failed = False
    for name in sorted(names_a ^ names_b):
        print(f"MISSING {name}: only in {a if name in names_a else b}", file=stream)
        failed = True
    groups: dict[str, list[FileDiff]] = {}
    for name in sorted(names_a & names_b):
        result = compare_file(a / name, b / name)
        groups.setdefault(_kind(name), []).append(result)
        if result.identical:
            continue
        notes = []
        if result.moved:
            notes.append(f"largest relative difference {result.moved:.3g} "
                         f"(line {result.moved_line})")
        if result.floor:
            notes.append(f"residual_norm moved {result.floor:.3g} (floor-level)")
        if not notes:
            notes.append("text changed" if result.changed else "numbers equal as values")
        print(f"{name}: " + "; ".join(notes), file=stream)
        for kind, line_a, line_b in result.changed:
            failed = True
            print(f"  {kind} changed: {line_a!r} -> {line_b!r}", file=stream)
    print("\n| file | count | byte-identical | largest relative difference "
          "| residual_norm (floor) | text changed |", file=stream)
    print("|---|---|---|---|---|---|", file=stream)
    for kind, results in sorted(groups.items()):
        same = sum(r.identical for r in results)
        moved = max(r.moved for r in results)
        floor = max(r.floor for r in results)
        changed = sum(bool(r.changed) for r in results)
        print(f"| `{kind}` | {len(results)} | {same} | "
              f"{f'{moved:.3g}' if moved else '-'} | "
              f"{f'{floor:.3g}' if floor else '-'} | {changed} |", file=stream)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run the matrix into DIR")
    run_parser.add_argument("dir", type=Path)
    run_parser.add_argument("--src", type=Path, default=ROOT / "src",
                            help="directory holding the nicholson package")
    diff_parser = sub.add_parser("diff", help="compare two runs")
    diff_parser.add_argument("a", type=Path)
    diff_parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        failures = run(args.dir, args.src)
        print(f"{failures} runs exited nonzero; see {args.dir / EXIT_CODES}")
        return 1 if failures else 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
