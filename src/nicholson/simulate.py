"""Time-domain integration of the delayed model and its spatial average.

The PDE integrator works in the original (unnormalized) variables: density
u(x, t), diffusion coefficient d = 1/r, delay tau_hat = r * tau and birth
function p(x) v exp(-a v) evaluated at the delayed density.  Diffusion is
treated with Crank-Nicolson, the reaction explicitly, and the delayed field
is read from a ring buffer whose depth ties the step size to the delay
(dt is snapped so that tau_hat is an exact multiple of it).

The spatially averaged scalar equation

    v'(t) = -delta_bar v(t) + p_bar v(t - tau_check) exp(-a v(t - tau_check))

runs on the same stepper with the diffusion switched off (forward Euler),
for cross-checking thresholds and periods against the PDE run, and
:func:`estimate_period` turns the tail of either trace into an oscillation
verdict.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks
from scipy.sparse import identity
from scipy.sparse.linalg import splu

from .grid import Grid1D, spatial_average
from .model import ModelParams
from .steady import assemble_laplacian, solve_steady_state


class BlowUpError(RuntimeError):
    """The simulated field left the finite range; carries the blow-up time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class SimulationTrace:
    """Recorded output of a time integration.

    ``mean_series`` holds the spatial average at every accepted step
    (the value itself for the scalar integrator, whose snapshots tuple is
    empty).  ``snapshots`` is a tuple of (time, field) pairs.
    ``params_echo`` records the problem data actually used, including the
    snapped step size.
    """

    times: np.ndarray
    mean_series: np.ndarray
    snapshots: tuple
    dt: float
    tau_hat: float
    params_echo: dict

    def __post_init__(self):
        self.times.flags.writeable = False
        self.mean_series.flags.writeable = False


@dataclass(frozen=True)
class PeriodEstimate:
    """Oscillation verdict for the tail of a trace.

    ``trend_ratio`` compares the half peak-to-peak swing of the second half
    of the tail with that of the first half: near 1 for a saturated orbit,
    well below 1 while a sub-threshold oscillation is still dying out.
    """

    oscillating: bool
    period: float | None
    amplitude: float | None
    n_peaks: int
    tail_fraction: float
    trend_ratio: float


def _snap_step(delay: float, dt: float, t_end: float) -> tuple[float, int, int]:
    """Snap ``dt`` to divide ``delay``; return (dt, delay in steps, step count)."""
    if t_end is None or t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt:.6g}")
    if delay > 0:
        n_delay = max(1, round(delay / dt))
        dt = delay / n_delay
    else:
        n_delay = 0
    return dt, n_delay, math.ceil(t_end / dt - 1e-12)


def _march(advance, size, observe, levels, dt, n_steps, threshold,
           snapshot_stride=None):
    """Step a delayed equation ``n_steps`` times from its history ``levels``.

    ``levels`` holds the state at t = -n_delay*dt, ..., -dt, 0, oldest first;
    ``advance(current, delayed)`` returns the state one step later.  A state
    whose ``size`` is not at most ``threshold`` (inf and NaN included) is a
    :class:`BlowUpError`.  Returns the times, ``observe`` of every state and
    (time, state) snapshots every ``snapshot_stride`` steps plus the last.
    """
    if not all(np.all(np.isfinite(level) & (level > 0)) for level in levels):
        raise ValueError("history must be finite and strictly positive")
    # the last n_delay + 1 states; buffer[0] is the delayed one
    buffer = deque(levels, maxlen=len(levels))
    current = buffer[-1]
    times = np.arange(n_steps + 1, dtype=float)
    times *= dt
    means = np.empty(n_steps + 1)
    means[0] = observe(current)
    stride = snapshot_stride if snapshot_stride and snapshot_stride > 0 else 0
    snapshots = [(0.0, current.copy())] if stride else []
    # overflow is the blow-up the threshold test reports, not a numerical
    # accident worth warning about
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            try:
                current = advance(current, buffer[0])
            except OverflowError:  # math.exp in a scalar reaction
                current = math.inf
            if not size(current) <= threshold:
                t = step * dt
                raise BlowUpError(
                    f"solution exceeded {threshold:.3g} at t = {t:.6g}", time=t
                )
            buffer.append(current)
            means[step] = observe(current)
            if stride and step % stride == 0:
                snapshots.append((step * dt, current.copy()))
    if stride and snapshots[-1][0] != times[-1]:
        snapshots.append((float(times[-1]), current.copy()))
    return times, means, tuple(snapshots)


def default_history(model: ModelParams) -> np.ndarray:
    """Constant-in-time history at 90% of the positive steady state.

    A mild undershoot of the equilibrium excites the oscillatory modes
    without leaving its basin in the stable regime.
    """
    steady = solve_steady_state(model)
    return 0.9 * steady.u / model.a


def simulate_pde(
    model: ModelParams,
    history=None,
    t_end: float = None,
    dt: float = 5e-3,
    snapshot_stride: int | None = None,
    blowup_threshold: float = 1e8,
) -> SimulationTrace:
    """Integrate the delayed reaction-diffusion model up to ``t_end``.

    Parameters
    ----------
    model : ModelParams
        Problem data; the delay is ``model.tau_hat`` and the diffusion
        coefficient ``model.d = 1/model.r``.
    history : scalar, array, or callable, optional
        Positive density on [-tau_hat, 0]: a constant, a frozen field, or a
        function (nodes, t) -> field.  Defaults to :func:`default_history`.
    t_end : float
        Final time; the run covers ceil(t_end / dt) steps of the snapped dt.
    dt : float
        Requested step; adjusted to the nearest value with tau_hat / dt
        integral so the delayed field falls exactly on a stored level.
    snapshot_stride : int, optional
        Record the full field every this many steps (plus the final state).
    blowup_threshold : float
        Abort with :class:`BlowUpError` when max |u| exceeds this.

    Notes
    -----
    Diffusion is Crank-Nicolson (the constant tridiagonal factor is
    LU-factored once), the reaction p g(u_delayed) - delta u is explicit,
    so the scheme is first order in time with an O(dt^2) diffusion error.
    """
    tau_hat = model.tau_hat
    dt, n_delay, n_steps = _snap_step(tau_hat, dt, t_end)
    if model.r <= 0:
        raise ValueError("simulation requires r > 0 (finite diffusion)")
    grid = model.grid
    n = grid.n_points
    if history is None:
        history = default_history(model)
    if callable(history):
        levels = [np.broadcast_to(history(grid.nodes, -k * dt), (n,)).astype(float)
                  for k in range(n_delay, -1, -1)]
    else:
        base = np.asarray(history, dtype=float)
        if base.ndim == 0:
            base = np.full(n, float(base))
        if base.shape != (n,):
            raise ValueError(f"history field has shape {base.shape}, expected ({n},)")
        levels = [base] * (n_delay + 1)

    half = 0.5 * dt * model.d
    sparse_lap = assemble_laplacian(grid).sparse()
    implicit = splu(identity(n, format="csc") - half * sparse_lap)
    explicit = identity(n, format="csc") + half * sparse_lap
    p, delta, a = model.coeffs.p, model.coeffs.delta, model.a

    def advance(current, delayed):
        reaction = p * delayed * np.exp(-a * delayed) - delta * current
        return implicit.solve(explicit @ current + dt * reaction)

    times, means, snapshots = _march(
        advance, lambda u: np.abs(u).max(), lambda u: spatial_average(u, grid),
        levels, dt, n_steps, blowup_threshold, snapshot_stride,
    )
    echo = {
        "model": model, "tau_hat": tau_hat, "dt": dt,
        "t_end": float(times[-1]), "n_steps": n_steps,
    }
    return SimulationTrace(
        times=times, mean_series=means, snapshots=snapshots,
        dt=dt, tau_hat=tau_hat, params_echo=echo,
    )


def simulate_average_dde(
    p_bar: float,
    delta_bar: float,
    a: float,
    tau_check: float,
    history=None,
    t_end: float = None,
    dt: float = 1e-3,
) -> SimulationTrace:
    """Forward-Euler run of the spatially averaged scalar delay equation.

    The stepper of :func:`simulate_pde` with the diffusion switched off.
    ``history`` is a constant or a callable t -> value on [-tau_check, 0];
    it defaults to 90% of the positive equilibrium log(p_bar/delta_bar)/a,
    which requires p_bar > delta_bar.
    """
    if min(p_bar, delta_bar, a) <= 0:
        raise ValueError("p_bar, delta_bar and a must be positive")
    if tau_check < 0:
        raise ValueError(f"delay must be nonnegative, got {tau_check:.6g}")
    dt, n_delay, n_steps = _snap_step(tau_check, dt, t_end)
    if history is None:
        if p_bar <= delta_bar:
            raise ValueError(
                "no positive equilibrium (p_bar <= delta_bar); pass a history"
            )
        history = 0.9 * (math.log(p_bar / delta_bar) / a)
    if callable(history):
        levels = [float(history(-k * dt)) for k in range(n_delay, -1, -1)]
    else:
        levels = [float(history)] * (n_delay + 1)

    def advance(value, delayed):
        rate = -delta_bar * value + p_bar * delayed * math.exp(-a * delayed)
        return value + dt * rate

    times, values, _ = _march(advance, abs, float, levels, dt, n_steps, 1e8)
    echo = {
        "p_bar": p_bar, "delta_bar": delta_bar, "a": a,
        "tau_check": tau_check, "dt": dt, "t_end": float(times[-1]),
    }
    return SimulationTrace(
        times=times, mean_series=values, snapshots=(), dt=dt,
        tau_hat=tau_check, params_echo=echo,
    )


def estimate_period(
    trace: SimulationTrace,
    tail_fraction: float = 0.25,
    relative_floor: float = 1e-6,
    trend_floor: float = 0.75,
) -> PeriodEstimate:
    """Classify the tail of a trace as settled, dying out, or oscillating.

    The last ``tail_fraction`` of the mean series is scanned for local
    maxima; the trace counts as oscillating when at least three are found,
    the tail's half peak-to-peak swing exceeds ``relative_floor`` times its
    mean level, and the swing is not visibly decaying across the tail
    (``trend_ratio`` at least ``trend_floor``).  The trend gate matters just
    below a bifurcation threshold, where a slowly dying mode can keep a
    clean but shrinking oscillation in the tail for a long time.  Period is
    the average spacing of the maxima.
    """
    if not 0 < tail_fraction <= 0.5:
        raise ValueError(
            f"tail_fraction must lie in (0, 0.5], got {tail_fraction:.6g}"
        )
    n_tail = int(len(trace.mean_series) * tail_fraction)
    if n_tail < 100:
        raise ValueError(
            f"tail holds {n_tail} samples; need at least 100 for a verdict"
        )
    tail = trace.mean_series[-n_tail:]
    tail_times = trace.times[-n_tail:]
    swing = 0.5 * (tail.max() - tail.min())
    level = abs(tail.mean())
    first, second = tail[: n_tail // 2], tail[n_tail // 2:]
    swing_first = 0.5 * (first.max() - first.min())
    swing_second = 0.5 * (second.max() - second.min())
    if swing_first == 0.0:
        trend_ratio = 1.0 if swing_second == 0.0 else math.inf
    else:
        trend_ratio = float(swing_second / swing_first)
    peaks, _ = find_peaks(tail)
    oscillating = (
        len(peaks) >= 3
        and swing > relative_floor * max(level, 1e-300)
        and trend_ratio >= trend_floor
    )
    if not oscillating:
        return PeriodEstimate(
            oscillating=False, period=None, amplitude=None,
            n_peaks=len(peaks), tail_fraction=tail_fraction,
            trend_ratio=trend_ratio,
        )
    period = float(np.diff(tail_times[peaks]).mean())
    return PeriodEstimate(
        oscillating=True, period=period, amplitude=float(swing),
        n_peaks=len(peaks), tail_fraction=tail_fraction,
        trend_ratio=trend_ratio,
    )


def write_trace_csv(path, trace: SimulationTrace) -> None:
    """Time series of the spatial mean as ``t,mean_u`` rows."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,mean_u\n")
        for t, value in zip(trace.times, trace.mean_series):
            handle.write(f"{t:.12g},{value:.12g}\n")


def write_snapshot_csv(path, grid: Grid1D, field: np.ndarray) -> None:
    """One spatial profile as ``x,u`` rows."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("x,u\n")
        for x, value in zip(grid.nodes, field):
            handle.write(f"{x:.12g},{value:.12g}\n")


def write_spacetime_csv(path, grid: Grid1D, trace: SimulationTrace) -> None:
    """All recorded snapshots in long ``t,x,u`` format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,x,u\n")
        for t, field in trace.snapshots:
            for x, value in zip(grid.nodes, field):
                handle.write(f"{t:.12g},{x:.12g},{value:.12g}\n")
