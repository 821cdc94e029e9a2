"""Seeded workload generator for the workbench benchmark.

A seed draws one coefficient pair

    p(x)     = 30 + 1*sin(x + phase),       phase     ~ U[0, 2 pi)
    delta(x) = 2 + amplitude*cos(0.2 x),    amplitude ~ U[0.5, 1.5]

on L = 3 with a = 2.5, rejecting draws with c0 <= 2.1 so every workload has
a Hopf ladder well away from the c0 = 2 degeneracy.  The program only ever
sees the config files written from these draws.

The ``timestep`` workload places its delays relative to the first threshold
``tau_hat_0``; the caller solves it once, outside every timed region, and
passes it in together with the crossing frequency ``omega``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

LENGTH = 3.0
KINETIC_A = 2.5
C0_MIN = 2.1
R = 0.01  # r = 1/d of every generated config
# Grids on which the work of an op does not depend on the seed.  The Hopf
# Newton's absolute tolerance 1e-12 sits near its roundoff floor between
# n = 251 and 501, so there the iteration count (3 or 30) flips with the
# draw; below it always converges in 3 and from 601 on it always runs all
# 30.  The steady tolerance 1e-10 reaches its floor from n = 751 on (one seed
# in 300 fails there), so 651 is the finest grid used.
SPECTRAL_GRIDS = (201, 601, 651)
SWEEP_GRID = 601
SWEEP_R_LIST = (0.1, 0.05, 0.02, 0.01, 0.005)
# Steady solves on grids where the package could not always finish them when
# this benchmark was added; run as probes whose outcome is reported, not as
# workload ops.
PROBE_GRIDS = (801, 1201, 4801)
SIM_GRID = 301
REFERENCE_GRID = 201
SIM_T_END = 400.0
SMOKE_T_END = 2.5

WORKLOADS = ("spectral", "timestep")


@dataclass(frozen=True)
class Coefficients:
    """One seeded draw of the birth and death rate profiles."""

    phase: float
    amplitude: float

    @property
    def p_text(self) -> str:
        return f"30 + 1*sin(1*x + {self.phase:.6f})"

    @property
    def delta_text(self) -> str:
        return f"2 + {self.amplitude:.6f}*cos(0.2*x + 0)"

    def p(self, x: np.ndarray) -> np.ndarray:
        return 30.0 + np.sin(x + self.phase)

    def delta(self, x: np.ndarray) -> np.ndarray:
        return 2.0 + self.amplitude * np.cos(0.2 * x)

    def c0(self, n_points: int = SIM_GRID) -> float:
        """log(mean p / mean delta) under the trapezoid rule on n points."""
        x = np.linspace(0.0, LENGTH, n_points)
        return math.log(np.trapezoid(self.p(x), x) / np.trapezoid(self.delta(x), x))


def draw_coefficients(seed: int) -> Coefficients:
    """The first draw from ``seed`` whose c0 exceeds C0_MIN."""
    rng = random.Random(seed)
    while True:
        coeffs = Coefficients(
            phase=round(rng.uniform(0.0, 2.0 * math.pi), 6),
            amplitude=round(rng.uniform(0.5, 1.5), 6),
        )
        if coeffs.c0() > C0_MIN:
            return coeffs


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload pass.

    ``config`` is the config file text (None for ``reproduce``), ``extra``
    the positional arguments after the command, ``results`` how many
    results the op counts for (one per sweep row), and ``expect`` the
    parameters its output check needs.
    """

    op_id: str
    task: str
    n: int
    config: str | None = None
    extra: tuple = ()
    results: int = 1
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    coeffs: Coefficients
    ops: tuple


def config_text(coeffs: Coefficients, n: int, task: str,
                tau_hat: float | None = None, **options) -> str:
    """Config file text for one CLI task on n points."""
    lines = [
        "[model]",
        f"length = {LENGTH:g}",
        f"n_points = {n}",
        f"a = {KINETIC_A:g}",
        f"r = {R:g}",
    ]
    if tau_hat is not None:
        lines.append(f"tau_hat = {tau_hat:.12g}")
    lines += [f"p = {coeffs.p_text}", f"delta = {coeffs.delta_text}",
              "[task]", f"name = {task}"]
    lines += [f"{key} = {value}" for key, value in options.items()]
    return "\n".join(lines) + "\n"


def reference_config(coeffs: Coefficients) -> str:
    """Hopf run whose tau_hat_0 and omega place the simulated delays."""
    return config_text(coeffs, REFERENCE_GRID, "hopf", n_max=0)


def _smoke_ops(coeffs: Coefficients, tau_hat_0: float) -> tuple:
    """Short simulator runs so every layer is traced on every workload.

    Together they cost well under 1% of a spectral pass.
    """
    tau_hat = 1.05 * tau_hat_0
    return (
        Op("smoke.simulate", "simulate", SIM_GRID,
           config_text(coeffs, SIM_GRID, "simulate",
                       tau_hat=tau_hat, t_end=f"{SMOKE_T_END:g}"),
           expect={"t_end": SMOKE_T_END, "dt": 5e-3, "tau_hat": tau_hat}),
        Op("smoke.average-dde", "average-dde", SIM_GRID,
           config_text(coeffs, SIM_GRID, "average-dde",
                       tau_check=f"{tau_hat:.12g}",
                       t_end=f"{SMOKE_T_END:g}", dt="5e-3"),
           expect={"t_end": SMOKE_T_END, "dt": 5e-3, "tau_hat": tau_hat}),
    )


def warmup_ops(workload: Workload, tau_hat_0: float) -> tuple:
    """Untimed ops run once before the first pass.

    A fresh process is slower at first: code paths run for the first time,
    and the allocator hands out the first large arrays page by page.  The
    smoke ops warm the time steppers; on ``spectral`` a Hopf and normal-form
    run on the finest grid warms the dense solves.
    """
    ops = [replace(op, op_id=f"warmup.{op.op_id}")
           for op in _smoke_ops(workload.coeffs, tau_hat_0)]
    if workload.name == "spectral":
        n = max(SPECTRAL_GRIDS)
        ops.append(Op(f"warmup.normalform.n{n}", "normalform", n,
                      config_text(workload.coeffs, n, "normalform", n_max=0)))
    return tuple(ops)


def probe_ops(coeffs: Coefficients) -> tuple:
    """Fine-grid steady solves whose outcome is reported, never gated."""
    return tuple(
        Op(f"probe.steady.n{n}", "steady", n,
           config_text(coeffs, n, "steady"))
        for n in PROBE_GRIDS
    )


def build_workload(name: str, coeffs: Coefficients, tau_hat_0: float,
                   omega: float) -> Workload:
    """The ordered ops of one pass of workload ``name``."""
    if name == "spectral":
        ops = [
            Op(f"steady.n{n}", "steady", n,
               config_text(coeffs, n, "steady"))
            for n in SPECTRAL_GRIDS
        ]
        ops += [
            Op(f"hopf.n{n}", "hopf", n,
               config_text(coeffs, n, "hopf", n_max=3),
               expect={"n_max": 3, "steady_op": f"steady.n{n}"})
            for n in SPECTRAL_GRIDS
        ]
        ops += [
            Op(f"normalform.n{n}", "normalform", n,
               config_text(coeffs, n, "normalform", n_max=1),
               expect={"n_max": 1})
            for n in SPECTRAL_GRIDS
        ]
        r_list = ",".join(f"{r:g}" for r in SWEEP_R_LIST)
        ops.append(
            Op(f"sweep.n{SWEEP_GRID}", "sweep", SWEEP_GRID,
               config_text(coeffs, SWEEP_GRID, "sweep", r_list=r_list),
               results=len(SWEEP_R_LIST), expect={"r_list": SWEEP_R_LIST}))
        ops += _smoke_ops(coeffs, tau_hat_0)
    elif name == "timestep":
        below, above = 0.95 * tau_hat_0, 1.05 * tau_hat_0
        ops = [
            Op(f"normalform.n{REFERENCE_GRID}", "normalform", REFERENCE_GRID,
               config_text(coeffs, REFERENCE_GRID, "normalform",
                           n_max=0),
               expect={"n_max": 0, "tau_hat_0": tau_hat_0}),
            Op("simulate.below", "simulate", SIM_GRID,
               config_text(coeffs, SIM_GRID, "simulate",
                           tau_hat=below, t_end=f"{SIM_T_END:g}"),
               expect={"t_end": SIM_T_END, "dt": 5e-3, "tau_hat": below,
                       "regime": "settled"}),
            Op("simulate.above", "simulate", SIM_GRID,
               config_text(coeffs, SIM_GRID, "simulate",
                           tau_hat=above, t_end=f"{SIM_T_END:g}",
                           snapshot_stride=400),
               expect={"t_end": SIM_T_END, "dt": 5e-3, "tau_hat": above,
                       "regime": "oscillating", "period": 2 * math.pi / omega,
                       "snapshot_stride": 400}),
            Op("average-dde.above", "average-dde", SIM_GRID,
               config_text(coeffs, SIM_GRID, "average-dde",
                           tau_check=f"{above:.12g}",
                           t_end=f"{SIM_T_END:g}"),
               expect={"t_end": SIM_T_END, "dt": 1e-3, "tau_hat": above,
                       "regime": "oscillating"}),
            Op("reproduce.fig2", "reproduce", SIM_GRID, extra=("fig2",)),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return Workload(name=name, coeffs=coeffs, ops=tuple(ops))
