"""Time-domain integration of the delayed model and its spatial average.

The PDE integrator works in the original (unnormalized) variables: density
u(x, t), diffusion coefficient d = 1/r, delay tau_hat = r * tau and birth
function p(x) v exp(-a v) evaluated at the delayed density.  Diffusion is
treated with Crank-Nicolson, the reaction explicitly, and dt is snapped so
that tau_hat is an exact multiple of it: the stored states then hold the
delayed fields of a block of steps, whose births take one call.  Multiplied
by the trapezoid weights, the implicit matrix is symmetric positive
definite, so a step is one LAPACK ``pttrs`` solve with a factor made once.
At zero delay each step's births come from the state just written, inside
the same block march.

The spatially averaged scalar equation

    v'(t) = -delta_bar v(t) + p_bar v(t - tau_check) exp(-a v(t - tau_check))

runs on the same stepper with the diffusion switched off (forward Euler),
for cross-checking thresholds and periods against the PDE run, and
:func:`estimate_period` turns the tail of either trace into an oscillation
verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, spatial_average
from .model import ModelParams
from .steady import solve_steady_state
from .table import write_table


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
    """

    times: np.ndarray
    mean_series: np.ndarray
    snapshots: tuple
    dt: float
    tau_hat: float

    def __post_init__(self):
        self.times.flags.writeable = False
        self.mean_series.flags.writeable = False


@dataclass(frozen=True)
class PeriodEstimate:
    """Oscillation verdict for the tail of a trace, its last quarter.

    ``trend_ratio`` compares the half peak-to-peak swing of the second half
    of the tail with that of the first half: near 1 for a saturated orbit,
    well below 1 while a sub-threshold oscillation is still dying out, and
    exactly 1 for a settled tail, whose two half swings are below the
    roundoff floor.
    """

    oscillating: bool
    period: float | None
    amplitude: float | None
    trend_ratio: float


def snap_step(delay: float, dt: float, t_end: float) -> tuple[float, int, int]:
    """Snap ``dt`` to divide ``delay``; return (dt, delay in steps, step count).

    A positive delay below dt/2, which rounds to zero steps, is refused:
    snapping would shrink dt to the delay and multiply the step count.
    """
    if t_end is None or not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt:.6g}")
    if not 0 <= delay < math.inf:
        raise ValueError(f"delay must be nonnegative and finite, got {delay:.6g}")
    if 0 < delay < dt / 2:
        raise ValueError(
            f"delay {delay:.6g} is positive but below dt/2 = {dt / 2:.6g}; "
            "the step would shrink to the delay"
        )
    if delay > 0:
        n_delay = max(1, round(delay / dt))
        dt = delay / n_delay
    else:
        n_delay = 0
    return dt, n_delay, math.ceil(t_end / dt - 1e-12)


# most states per call for births, blow-up test and means; bounds the
# transient memory of a long delay
_CHUNK = 128
_BLOWUP_THRESHOLD = 1e8  # largest |u| a run may reach before it is a blow-up


def _march(advance, observe, history, shape, n_delay, gain, a, dt, n_steps,
           snapshot_stride=None):
    """Step a delayed equation ``n_steps`` times from ``history(t)``.

    A ring of states (of ``shape``) starts with the history at
    t = -n_delay*dt, ..., 0.  Each step writes its state n_delay + 1 rows
    after the delayed one it read.  ``advance(current, births, out)``
    writes the states of the steps in ``out`` and returns the last; the
    births ``gain*v*exp(-a*v)`` of a step come from its delayed state v.
    With a delay, the births of the next n_delay + 1 steps take one call,
    into a buffer made once per run, and ``births`` is that array of
    them; at zero delay ``births`` is the birth function
    ``births(v, out=None, scratch=None)``, which ``advance`` applies to
    the state it has just written.  The blow-up test (a largest magnitude
    not at most ``_BLOWUP_THRESHOLD`` raises :class:`BlowUpError`, dated at
    the first such state), ``observe`` and the snapshots run on blocks of up
    to ``_CHUNK`` states, for which a short delay gets a longer ring.  A
    run whose ``n_steps + 1`` times and means cannot be allocated is a
    ValueError.
    """
    neg_a = np.array(-a)  # a ufunc takes a 0-d array faster than a float

    def births(v, out=None, scratch=None):
        # the same arithmetic either way: arrays out and scratch of v's
        # shape take the births and the exponential without allocating,
        # and a float v (the scalar equation at zero delay) gets a float
        # back, whose arithmetic is faster than np.float64's
        if out is None:
            return gain * v * float(np.exp(-a * v))
        np.exp(np.multiply(v, neg_a, scratch), scratch)
        return np.multiply(np.multiply(gain, v, out), scratch, out)

    stride = snapshot_stride or 0
    if stride < 0:
        raise ValueError(f"snapshot_stride must be nonnegative, got {stride}")
    depth = n_delay + 1
    ring = np.empty((depth * max(1, _CHUNK // depth), *shape))
    # the births of one delayed block and their exponential, allocated once
    block_births, block_scratch = np.empty((2, min(depth, _CHUNK), *shape))
    for row in range(depth):
        ring[row] = history((row - n_delay) * dt)
    if not (ring[:depth].min() > 0 and ring[:depth].max() < math.inf):
        raise ValueError("history must be finite and strictly positive")
    current = ring[n_delay].copy()
    threshold = _BLOWUP_THRESHOLD
    try:
        times = np.arange(n_steps + 1, dtype=float)
        means = np.empty(n_steps + 1)
    except MemoryError:
        raise ValueError(
            f"t_end = {n_steps * dt:.6g} at dt = {dt:.6g} is {n_steps} steps, "
            "whose trace of times and means cannot be allocated") from None
    times *= dt
    means[0] = observe(current)
    snapshots = [(0.0, current.copy())] if stride else []
    step = 0
    # overflow is the blow-up the threshold test reports, not a numerical
    # accident worth warning about
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            start = (step + depth) % len(ring)  # the row of state step + 1
            end = min(start + _CHUNK, len(ring), start + n_steps - step)
            if n_delay:
                for row in range(start, end, depth):
                    read = (row - depth) % len(ring)
                    size = min(depth, end - row)
                    born = births(ring[read:read + size],
                                  block_births[:size], block_scratch[:size])
                    current = advance(current, born, ring[row:row + size])
            else:
                current = advance(current, births, ring[start:end])
            block = ring[start:end]
            # one pass each for the extremes; NaN fails it, and only a
            # failed block pays for the row-wise pass that dates the step
            if not (block.max() <= threshold and block.min() >= -threshold):
                bad = ~(np.abs(block).reshape(len(block), -1).max(axis=1)
                        <= threshold)
                t = (step + 1 + int(bad.argmax())) * dt
                raise BlowUpError(
                    f"solution exceeded {threshold:.3g} at t = {t:.6g}", time=t
                )
            means[step + 1:step + 1 + len(block)] = observe(block)
            if stride:
                for k in range(step - step % stride + stride,
                               step + 1 + len(block), stride):
                    snapshots.append((k * dt, block[k - step - 1].copy()))
            step += len(block)
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

    Raises
    ------
    BlowUpError
        When max |u| exceeds ``_BLOWUP_THRESHOLD`` (1e8).

    Notes
    -----
    Diffusion is Crank-Nicolson, the reaction p g(u_delayed) - delta u is
    explicit, so the scheme is first order in time with an O(dt^2)
    diffusion error.  As (I + hL) u = 2u - Au for A = I - hL, h = dt d / 2,
    a step is u_new = A^-1 ((2 - dt delta) u + births) - u.  With W the
    trapezoid weights over the spacing (1/2 at the ends, 1 inside), W A is
    symmetric positive definite, so the step is
    u_new = (W A)^-1 (W (2 - dt delta) u + W births) - u: one ``pttrs``
    solve with the ``pttrf`` factor that
    :meth:`~nicholson.grid.DiscreteLaplacian.weighted_factor` makes once,
    W folded into the coefficients at setup.  The births dt p v exp(-a v)
    of up to tau_hat / dt + 1 steps are evaluated in one call; at zero
    delay each step evaluates its own from the state before it.
    """
    tau_hat = model.tau_hat
    dt, n_delay, n_steps = snap_step(tau_hat, dt, t_end)
    if model.r <= 0:
        raise ValueError("simulation requires r > 0 (finite diffusion)")
    grid = model.grid
    if history is None:
        history = default_history(model)
    levels = ((lambda t: history(grid.nodes, t)) if callable(history)
              else (lambda t: history))

    solve = grid.laplacian.weighted_factor(-0.5 * dt * model.d)
    pttrs, (diag, offdiag) = solve.func, solve.args  # no partial per step
    weights = grid.laplacian.symmetrizer  # the W of weighted_factor
    keep = weights * (2.0 - dt * model.coeffs.delta)
    rhs, birth, scratch = np.empty((3, grid.n_points))

    def advance(current, births, out):
        # True: the solution overwrites rhs
        if n_delay:
            for born, row in zip(births, out):
                np.multiply(keep, current, rhs)
                np.add(rhs, born, rhs)
                np.subtract(pttrs(diag, offdiag, rhs, True)[0], current, row)
                current = row
        else:
            for row in out:
                np.multiply(keep, current, rhs)
                np.add(rhs, births(current, birth, scratch), rhs)
                np.subtract(pttrs(diag, offdiag, rhs, True)[0], current, row)
                current = row
        return current

    times, means, snapshots = _march(
        advance, lambda u: spatial_average(u, grid), levels, (grid.n_points,),
        n_delay, weights * (dt * model.coeffs.p), model.a, dt, n_steps,
        snapshot_stride,
    )
    return SimulationTrace(
        times=times, mean_series=means, snapshots=snapshots,
        dt=dt, tau_hat=tau_hat,
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
    dt, n_delay, n_steps = snap_step(tau_check, dt, t_end)
    if history is None:
        if p_bar <= delta_bar:
            raise ValueError(
                "no positive equilibrium (p_bar <= delta_bar); pass a history"
            )
        history = 0.9 * (math.log(p_bar / delta_bar) / a)
    keep = 1.0 - dt * delta_bar

    def advance(value, births, out):
        value = float(value)  # not np.float64, whose arithmetic is slower
        if n_delay:
            for row, birth in enumerate(births.tolist()):
                value = out[row] = keep * value + birth
        else:
            for row in range(len(out)):
                value = out[row] = keep * value + births(value)
        return value

    times, values, _ = _march(
        advance, lambda v: v,
        history if callable(history) else (lambda t: history), (), n_delay,
        dt * p_bar, a, dt, n_steps,
    )
    return SimulationTrace(
        times=times, mean_series=values, snapshots=(), dt=dt,
        tau_hat=tau_check,
    )


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the peaks of ``x``, as :func:`estimate_period` defines them."""
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:], len(x)] - 1
    top = x[starts]
    peak = np.flatnonzero((top[1:-1] > top[:-2]) & (top[1:-1] > top[2:])) + 1
    return (starts[peak] + ends[peak]) // 2


_TAIL_FRACTION = 0.25  # the share of the trace, at its end, the verdict reads
_RELATIVE_FLOOR = 1e-6  # a tail swing below this times its mean is roundoff
_TREND_FLOOR = 0.75  # the least trend_ratio of an oscillation not dying out


def estimate_period(trace: SimulationTrace) -> PeriodEstimate:
    """Classify the tail of a trace as settled, dying out, or oscillating.

    The last quarter of the mean series is scanned for peaks (defined
    below); the trace counts as oscillating when at least three are found,
    the tail's half peak-to-peak swing exceeds 1e-6 times its mean level,
    and the swing is not visibly decaying across the tail (``trend_ratio``
    at least 0.75).  The trend gate matters just below a bifurcation
    threshold, where a slowly dying mode can keep a clean but shrinking
    oscillation in the tail for a long time.  Period is the average spacing
    of the peaks.

    A peak is a strict local maximum over runs of equal values: a run
    higher than the runs on both sides of it.  A flat top is reported at
    its middle index, ``(start + end) // 2``, and a run that touches either
    end of the tail is never a peak.
    """
    n_tail = int(len(trace.mean_series) * _TAIL_FRACTION)
    if n_tail < 100:
        raise ValueError(
            f"tail holds {n_tail} samples; need at least 100 for a verdict"
        )
    tail = trace.mean_series[-n_tail:]
    tail_times = trace.times[-n_tail:]
    swing = 0.5 * (tail.max() - tail.min())
    floor = _RELATIVE_FLOOR * max(abs(tail.mean()), 1e-300)
    first, second = tail[: n_tail // 2], tail[n_tail // 2:]
    swing_first = 0.5 * (first.max() - first.min())
    swing_second = 0.5 * (second.max() - second.min())
    if swing_first <= floor:
        swing_first = 0.0
    if swing_second <= floor:
        swing_second = 0.0
    if swing_first == 0.0:
        trend_ratio = 1.0 if swing_second == 0.0 else math.inf
    else:
        trend_ratio = float(swing_second / swing_first)
    peaks = _local_maxima(tail)
    oscillating = (
        len(peaks) >= 3
        and swing > floor
        and trend_ratio >= _TREND_FLOOR
    )
    if not oscillating:
        return PeriodEstimate(
            oscillating=False, period=None, amplitude=None,
            trend_ratio=trend_ratio,
        )
    period = float(np.diff(tail_times[peaks]).mean())
    return PeriodEstimate(
        oscillating=True, period=period, amplitude=float(swing),
        trend_ratio=trend_ratio,
    )


def write_trace_csv(path, trace: SimulationTrace) -> None:
    """Time series of the spatial mean as ``t,mean_u`` rows."""
    write_table(path, "t,mean_u", [trace.times, trace.mean_series])


def write_snapshot_csv(path, grid: Grid1D, field: np.ndarray) -> None:
    """One spatial profile as ``x,u`` rows."""
    write_table(path, "x,u", [grid.nodes, field])


def write_spacetime_csv(path, grid: Grid1D, trace: SimulationTrace) -> None:
    """All recorded snapshots in long ``t,x,u`` format."""
    write_table(path, "t,x,u", *(
        [np.broadcast_to(t, grid.n_points), grid.nodes, field]
        for t, field in trace.snapshots
    ))
