"""Output checks for every op of a workload pass.

Each check reads the CSV files and ``summary.txt`` the CLI wrote and
recomputes what it needs with the benchmark's own code: a mirrored-ghost
three-point Neumann stencil, the blowflies nonlinearity f(u) = u e^{-u}, and
a tail classifier for time series.  None of the package's closed forms or
helper functions is used, so a check can catch a wrong answer the package
agrees with itself about.

Tolerances were recorded over seeds 0-9 when this benchmark was added; each
constant notes the largest value seen there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import R

# CSV values carry 12 significant digits; residual bounds are multiples of
# this relative unit times the size of the terms the residual is built from.
CSV_UNIT = 1e-12
# max |steady residual| / floor; largest seen 2.17.
STEADY_RATIO = 8.0
# max |characteristic residual of psi| / floor; largest seen 2.19.
PSI_RATIO = 8.0
# Threshold ladder spacing against 2 pi / omega, relative; roundoff only.
LADDER_TOL = 1e-9
# tau_hat_0 at n = 601 against n = 651, relative (O(h^2)); largest seen 1.2e-7.
GRID_TAU_TOL = 1e-6
# Sweep rows lie within LIMIT_SLOPE * r (relative) of the LIMIT row for theta
# and omega: first-order approach as r -> 0.  The approach need not be
# monotone: omega overshoots for seed 4, theta crosses the limit near r = 0.1
# for seed 9.  Largest |x(r)/x(0) - 1| / r seen: 0.0115.
LIMIT_SLOPE = 0.1
# Simulated period against the linear period 2 pi / omega; largest seen 4.3%
# (the simulate run at 1.05 tau_hat_0).
PERIOD_TOL = 0.10
# Tail classifier: oscillating when the tail swing holds up (second half at
# least TREND_HOLD of the first) and exceeds SWING_FLOOR of the level.
TREND_HOLD = 0.9
SWING_FLOOR = 1e-3


@dataclass
class OpCheck:
    """Problems found in one op's output and the counts the metrics need."""

    problems: list = field(default_factory=list)
    failed_results: int = 0
    sim_steps: int = 0
    values: dict = field(default_factory=dict)


def read_summary(out: Path) -> dict:
    table = {}
    for line in (out / "summary.txt").read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            table[key.strip()] = value.strip()
    return table


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_series(path: Path) -> np.ndarray:
    """Numeric CSV with one header line, as a 2-D array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def neumann_laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Three-point Laplacian with mirrored ghost nodes (u[-1] = u[1])."""
    out = np.empty_like(values)
    out[1:-1] = values[:-2] - 2.0 * values[1:-1] + values[2:]
    out[0] = 2.0 * (values[1] - values[0])
    out[-1] = 2.0 * (values[-2] - values[-1])
    return out / (h * h)


def _f(u):
    return u * np.exp(-u)


def _f1(u):
    return (1.0 - u) * np.exp(-u)


def _grid_spacing(x: np.ndarray, n: int, problems: list) -> float:
    if x.size != n:
        problems.append(f"{x.size} grid rows, expected {n}")
    return float(x[-1] - x[0]) / (x.size - 1)


def steady_field(out: Path, coeffs, r: float, n: int, check: OpCheck):
    """Check steady.csv; returns (x, u)."""
    problems = check.problems
    data = read_series(out / "steady.csv")
    x, u = data[:, 0], data[:, 1]
    h = _grid_spacing(x, n, problems)
    if not np.all(u > 0):
        problems.append("steady state is not positive")
    p, delta = coeffs.p(x), coeffs.delta(x)
    residual = neumann_laplacian(u, h) + r * (p * _f(u) - delta * u)
    floor = (4.0 / h**2 + r * float(np.max(p * np.abs(_f1(u)) + delta))) \
        * float(np.abs(u).max()) * CSV_UNIT
    ratio = float(np.abs(residual).max()) / floor
    check.values["steady_ratio"] = ratio
    if not ratio <= STEADY_RATIO:
        problems.append(f"steady residual {ratio:.3g} x floor > {STEADY_RATIO}")
    return x, u


def check_steady(out: Path, coeffs, r: float, n: int) -> OpCheck:
    check = OpCheck()
    steady_field(out, coeffs, r, n, check)
    return check


def _hopf_scalars(path: Path) -> tuple[dict, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines.index("x,Re z,Im z,Re psi,Im psi")
    scalars = {}
    for line in lines[:header]:
        key, value = line.split(",")
        scalars[key] = float(value)
    table = np.array([[float(v) for v in line.split(",")]
                      for line in lines[header + 1:]])
    return scalars, table


def check_hopf(out: Path, steady_out: Path, coeffs, r: float, n: int,
               n_max: int) -> OpCheck:
    """psi solves the characteristic equation at (i nu, tau_0); ladder spacing."""
    check = OpCheck()
    problems = check.problems
    summary = read_summary(out)
    scalars, table = _hopf_scalars(out / "hopf.csv")
    x = table[:, 0]
    psi = table[:, 3] + 1j * table[:, 4]
    h = _grid_spacing(x, n, problems)
    _, u = steady_field(steady_out, coeffs, r, n, check)
    nu, tau0 = scalars["nu"], scalars["tau0"]
    p, delta = coeffs.p(x), coeffs.delta(x)
    coupling = r * np.exp(-1j * nu * tau0) * p * _f1(u) - r * delta - 1j * nu
    residual = neumann_laplacian(psi, h) + coupling * psi
    floor = (4.0 / h**2 + float(np.abs(coupling).max())) \
        * float(np.abs(psi).max()) * CSV_UNIT
    ratio = float(np.abs(residual).max()) / floor
    check.values["psi_ratio"] = ratio
    if not ratio <= PSI_RATIO:
        problems.append(f"psi residual {ratio:.3g} x floor > {PSI_RATIO}")
    omega = float(summary["omega"])
    ladder = [float(summary[f"tau_hat_{k}"]) for k in range(n_max + 1)]
    spacing = 2.0 * math.pi / omega
    for low, high in zip(ladder, ladder[1:]):
        if not abs((high - low) - spacing) <= LADDER_TOL * spacing:
            problems.append(f"ladder spacing {high - low:.12g} != 2 pi/omega")
    if abs(scalars["tau_hat0"] - ladder[0]) > LADDER_TOL * ladder[0]:
        problems.append("hopf.csv and summary disagree on tau_hat_0")
    check.values["tau_hat_0"] = ladder[0]
    return check


def check_normalform(out: Path, n_max: int,
                     tau_hat_0: float | None = None) -> OpCheck:
    """Re C1(0) < 0, forward direction, stable orbit at n = 0."""
    check = OpCheck()
    problems = check.problems
    header, rows = read_table(out / "normalform.csv")
    if len(rows) != n_max + 1:
        problems.append(f"{len(rows)} normal-form rows, expected {n_max + 1}")
    for row in rows:
        cells = dict(zip(header, row))
        re_c1, re_dmu = float(cells["Re_C1"]), float(cells["Re_dmu"])
        mu2 = float(cells["mu2"])
        if not (re_dmu > 0 and abs(mu2 + re_c1 / re_dmu) <= 1e-9 * abs(mu2)):
            problems.append(f"n={cells['n']}: mu2 != -Re C1 / Re dmu")
        if cells["n"] == "0":
            if not re_c1 < 0:
                problems.append(f"Re C1(0) = {re_c1} is not negative")
            if cells["direction"] != "forward":
                problems.append(f"direction {cells['direction']} at n=0")
            if cells["orbit_stability"] != "stable":
                problems.append(f"orbit {cells['orbit_stability']} at n=0")
            check.values["tau_hat_0"] = float(cells["tau_hat_n"])
    if tau_hat_0 is not None and "tau_hat_0" in check.values:
        if abs(check.values["tau_hat_0"] - tau_hat_0) > LADDER_TOL * tau_hat_0:
            problems.append("normal form tau_hat_0 differs from the hopf run")
    return check


def classify_tail(series: np.ndarray, times: np.ndarray,
                  tail_fraction: float = 0.25) -> tuple[str, float | None]:
    """('oscillating', period) or ('settled', None) from the trace tail."""
    n_tail = int(series.size * tail_fraction)
    tail, tail_t = series[-n_tail:], times[-n_tail:]
    half = n_tail // 2
    swing_first = np.ptp(tail[:half])
    swing_second = np.ptp(tail[half:])
    level = abs(float(tail.mean()))
    if not (swing_second > SWING_FLOOR * level
            and swing_second >= TREND_HOLD * swing_first):
        return "settled", None
    centred = tail - tail.mean()
    ups = np.flatnonzero((centred[:-1] < 0) & (centred[1:] >= 0))
    if ups.size < 3:
        return "settled", None
    return "oscillating", float(np.diff(tail_t[ups]).mean())


def _expected_steps(t_end: float, dt: float, tau_hat: float) -> int:
    if tau_hat > 0:
        dt = tau_hat / max(1, round(tau_hat / dt))
    return math.ceil(t_end / dt - 1e-12)


def check_trace(path: Path, expect: dict, check: OpCheck,
                summary_verdict: str | None = None) -> None:
    """Row count, positivity and, when expected, the regime and period."""
    problems = check.problems
    data = read_series(path)
    times, series = data[:, 0], data[:, 1]
    steps = _expected_steps(expect["t_end"], expect["dt"], expect["tau_hat"])
    if series.size != steps + 1:
        problems.append(f"{path.name}: {series.size} rows, expected {steps + 1}")
    if not (np.all(np.isfinite(series)) and np.all(series > 0)):
        problems.append(f"{path.name}: trace not finite and positive")
    check.sim_steps += series.size - 1
    regime = expect.get("regime")
    if regime is None:
        return
    found, period = classify_tail(series, times)
    if found != regime:
        problems.append(f"{path.name}: {found}, expected {regime}")
    if summary_verdict is not None and summary_verdict != regime:
        problems.append(f"{path.name}: summary says {summary_verdict}")
    if period is not None and "period" in expect:
        rel = abs(period - expect["period"]) / expect["period"]
        check.values["period_rel"] = rel
        if not rel <= PERIOD_TOL:
            problems.append(f"{path.name}: period off by {rel:.3g}")


def check_simulation(out: Path, expect: dict) -> OpCheck:
    check = OpCheck()
    summary = read_summary(out)
    verdict = summary.get("verdict") if "regime" in expect else None
    check_trace(out / "trace.csv", expect, check, verdict)
    stride = expect.get("snapshot_stride")
    if stride:
        steps = _expected_steps(expect["t_end"], expect["dt"], expect["tau_hat"])
        n_snaps = steps // stride + 1 + (steps % stride != 0)
        snaps = sorted(out.glob("snapshot_*.csv"))
        if len(snaps) != n_snaps:
            check.problems.append(f"{len(snaps)} snapshots, expected {n_snaps}")
        _, rows = read_table(out / "spacetime.csv")
        _, one = read_table(snaps[0]) if snaps else (None, [])
        if len(rows) != n_snaps * len(one):
            check.problems.append("spacetime.csv row count mismatch")
    return check


def check_reproduce(out: Path) -> OpCheck:
    """c0 OK, settled at tau_hat = 0, oscillating at tau_hat = 2."""
    check = OpCheck()
    summary = read_summary(out)
    if not summary.get("c0", "").endswith("within 1e-3: OK)"):
        check.problems.append(f"c0 check: {summary.get('c0')}")
    for tau_hat, regime in ((0.0, "settled"), (2.0, "oscillating")):
        expect = {"t_end": 400.0, "dt": 5e-3, "tau_hat": tau_hat,
                  "regime": regime}
        check_trace(out / f"trace_tau{tau_hat:g}.csv", expect, check,
                    summary.get(f"tau_hat{tau_hat:g}_verdict"))
    return check


def check_sweep(out: Path, r_list) -> OpCheck:
    """No STALL rows; theta and omega approach the LIMIT row as r -> 0."""
    check = OpCheck()
    header, rows = read_table(out / "sweep.csv")
    table = [dict(zip(header, row)) for row in rows]
    limit = [row for row in table if row["status"] == "LIMIT"]
    body = [row for row in table if row["status"] != "LIMIT"]
    bad = set()
    if len(limit) != 1 or len(body) != len(r_list):
        check.problems.append(f"{len(body)} rows for {len(r_list)} r values")
        check.failed_results = len(r_list)
        return check
    solved = []
    for k, (row, r) in enumerate(zip(body, r_list)):
        if row["status"] != "OK" or abs(float(row["r"]) - r) > 1e-12 * r:
            check.problems.append(f"row r={row['r']}: {row['status']}")
            bad.add(k)
        else:
            solved.append((k, r, row))
    for key in ("theta", "omega"):
        target = float(limit[0][key])
        gaps = [abs(float(row[key]) / target - 1.0) for _, _, row in solved]
        for (k, r, _), gap in zip(solved, gaps):
            if not gap <= LIMIT_SLOPE * r:
                check.problems.append(f"row {k}: {key} is {gap:.3g} off the limit")
                bad.add(k)
    for k, _, row in solved:
        ratio = float(row["theta"]) / float(row["omega"])
        if abs(ratio - float(row["tau_hat0"])) > LADDER_TOL * ratio:
            check.problems.append(f"row {k}: tau_hat0 != theta/omega")
            bad.add(k)
    check.failed_results = len(bad)
    return check


def _check_op(op, workload, out_dir) -> OpCheck:
    out = out_dir(op.op_id)
    expect = op.expect
    coeffs = workload.coeffs
    if op.task == "steady":
        return check_steady(out, coeffs, R, op.n)
    if op.task == "hopf":
        return check_hopf(out, out_dir(expect["steady_op"]), coeffs,
                          R, op.n, expect["n_max"])
    if op.task == "normalform":
        return check_normalform(out, expect["n_max"], expect.get("tau_hat_0"))
    if op.task in ("simulate", "average-dde"):
        return check_simulation(out, expect)
    if op.task == "reproduce":
        return check_reproduce(out)
    if op.task == "sweep":
        return check_sweep(out, expect["r_list"])
    raise ValueError(f"no check for task {op.task!r}")


def check_pass(workload, out_dir, codes: dict) -> dict:
    """OpCheck per op id; ``codes`` maps op id to (exit code, output)."""
    outcomes = {}
    for op in workload.ops:
        code, output = codes[op.op_id]
        if code != 0:
            outcomes[op.op_id] = OpCheck(
                problems=[f"exit {code}: {output.strip()[-300:]}"],
                failed_results=op.results)
            continue
        try:
            outcome = _check_op(op, workload, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcome = OpCheck(problems=[f"unreadable output: {exc!r}"])
        if outcome.problems and not outcome.failed_results:
            outcome.failed_results = op.results
        outcomes[op.op_id] = outcome
    coarse, fine = outcomes.get("hopf.n601"), outcomes.get("hopf.n651")
    if coarse and fine and "tau_hat_0" in coarse.values and "tau_hat_0" in fine.values:
        a, b = coarse.values["tau_hat_0"], fine.values["tau_hat_0"]
        if not abs(a - b) <= GRID_TAU_TOL * b:
            fine.problems.append(f"tau_hat_0 moves by {abs(a - b) / b:.3g} "
                                 "from n=601 to n=651")
            fine.failed_results = 1
    return outcomes
