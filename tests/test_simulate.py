"""Time stepping: equilibria, delay-induced oscillation, diagnostics."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks
from scipy.sparse import identity
from scipy.sparse.linalg import splu

import oracles
from conftest import constant_model, figure_model, sparse_laplacian

import nicholson.simulate as simulate_module
from nicholson.grid import Grid1D, spatial_average
from nicholson.simulate import (
    _CHUNK,
    BlowUpError,
    PeriodEstimate,
    SimulationTrace,
    _local_maxima,
    _snap_step,
    default_history,
    estimate_period,
    simulate_average_dde,
    simulate_pde,
    write_snapshot_csv,
    write_spacetime_csv,
    write_trace_csv,
)
from nicholson.steady import solve_steady_state


def synthetic_trace(values: np.ndarray, dt: float) -> SimulationTrace:
    times = dt * np.arange(values.size)
    return SimulationTrace(
        times=times,
        mean_series=np.asarray(values, dtype=float),
        snapshots=(),
        dt=dt,
        tau_hat=0.0,
    )


class TestPeriodEstimator:
    def test_clean_sinusoid(self):
        t = 0.01 * np.arange(120_000)
        trace = synthetic_trace(1.0 + 0.1 * np.sin(2 * math.pi * t / 5.0),
                                0.01)
        est = estimate_period(trace)
        assert est.oscillating
        assert est.period == pytest.approx(5.0, rel=1e-2)
        assert est.amplitude == pytest.approx(0.1, rel=1e-2)

    def test_constant_series_is_settled(self):
        trace = synthetic_trace(np.full(20_000, 0.7), 0.01)
        est = estimate_period(trace)
        assert not est.oscillating
        assert est.period is None

    def test_decaying_ring_is_settled(self):
        # an exponentially dying oscillation still shows peaks in the tail;
        # the trend gate has to classify it as settled
        t = 0.01 * np.arange(120_000)
        values = 1.0 + 0.05 * np.exp(-0.01 * t) * np.sin(2 * math.pi * t / 5)
        est = estimate_period(synthetic_trace(values, 0.01))
        assert not est.oscillating
        assert est.trend_ratio < 0.75

    @pytest.mark.parametrize("wide", [0, 1])
    def test_ulp_noise_on_a_constant_reads_one(self, wide):
        # a settled tail is all roundoff: one half of this tail swings by
        # one ulp, the other by half of that, and the ratio must not read
        # 2 or 0.5 from the last bit
        level = 0.654150616857
        rng = np.random.default_rng(wide)
        noise = rng.integers(-1, 2, 20_000)
        half = slice(15_000, 17_500) if wide else slice(17_500, None)
        noise[half] = rng.integers(0, 2, 2_500)
        est = estimate_period(synthetic_trace(level + np.spacing(level) * noise,
                                              0.01))
        assert not est.oscillating
        assert est.trend_ratio == 1.0

    @pytest.mark.parametrize("index", [-10, -4000])
    def test_one_ulp_step_in_either_half_reads_one(self, index):
        # a flat half next to a one-ulp swing read inf or 0 as a ratio
        values = np.full(20_000, 0.7)
        values[index] = np.nextafter(0.7, 1.0)
        est = estimate_period(synthetic_trace(values, 0.01))
        assert not est.oscillating
        assert est.trend_ratio == 1.0

    def test_tail_fraction_bounds(self):
        trace = synthetic_trace(np.ones(1000), 0.01)
        with pytest.raises(ValueError, match="tail_fraction"):
            estimate_period(trace, tail_fraction=0.0)
        with pytest.raises(ValueError, match="tail_fraction"):
            estimate_period(trace, tail_fraction=0.6)

    def test_short_series_rejected(self):
        trace = synthetic_trace(np.ones(120), 0.01)
        with pytest.raises(ValueError, match="samples"):
            estimate_period(trace, tail_fraction=0.5)


class TestLocalMaxima:
    """``scipy.signal.find_peaks`` with no options is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 8)),
                    min_size=1, max_size=40))
    def test_matches_find_peaks_on_plateaus(self, runs):
        # runs of a small alphabet: flat tops, flat valleys and plateaus
        # touching either end are all common
        values, lengths = zip(*runs)
        x = np.repeat(np.array(values, dtype=float), lengths)[:200]
        assert np.array_equal(_local_maxima(x), find_peaks(x)[0])

    def test_matches_find_peaks_on_noisy_sine(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 100.0, 80_001)
        x = np.sin(t) + 0.01 * rng.standard_normal(t.size)
        peaks = _local_maxima(x)
        assert len(peaks) > 100
        assert np.array_equal(peaks, find_peaks(x)[0])

    def test_flat_top_middle_and_ends(self):
        x = np.array([3, 3, 1, 2, 2, 2, 2, 0, 5, 5, 1, 4, 4], dtype=float)
        assert _local_maxima(x).tolist() == [4, 8]


class TestPdeEquilibrium:
    def test_steady_history_stays_put(self, fig1_model):
        state = solve_steady_state(fig1_model)
        history = state.u / fig1_model.a
        trace = simulate_pde(fig1_model, history=history, t_end=50.0)
        drift = np.max(np.abs(trace.mean_series - trace.mean_series[0]))
        assert drift < 1e-8

    def test_zero_delay_convergence_from_below(self, fig1_model):
        state = solve_steady_state(fig1_model)
        target = spatial_average(state.u, fig1_model.grid) / fig1_model.a
        history = 0.1 * state.u / fig1_model.a
        trace = simulate_pde(fig1_model, history=history, t_end=80.0)
        assert trace.mean_series[-1] == pytest.approx(target, rel=1e-3)
        # monotone approach once past the initial transient
        tail = trace.mean_series[trace.mean_series.size // 4:]
        assert np.all(np.diff(tail) > -1e-10)

    def test_positivity_preserved(self):
        grid = Grid1D(length=3.0, n_points=201)
        base = figure_model("fig2", grid, r=10.0)
        model = base.with_r(10.0, tau=0.2)
        trace = simulate_pde(model, t_end=60.0, snapshot_stride=500)
        assert np.all(trace.mean_series > 0)
        for _, snap in trace.snapshots:
            assert np.all(snap > 0)


class TestPdeOscillation:
    def test_fig2_large_delay_oscillates(self):
        grid = Grid1D(length=3.0, n_points=201)
        base = figure_model("fig2", grid, r=10.0)
        model = base.with_r(10.0, tau=0.2)
        trace = simulate_pde(model, t_end=300.0)
        est = estimate_period(trace)
        assert est.oscillating
        assert est.n_peaks >= 10
        assert est.trend_ratio == pytest.approx(1.0, abs=1e-3)

    def test_fig2_zero_delay_settles(self):
        grid = Grid1D(length=3.0, n_points=201)
        model = figure_model("fig2", grid, r=10.0)
        trace = simulate_pde(model, t_end=300.0)
        est = estimate_period(trace)
        assert not est.oscillating
        assert est.trend_ratio == 1.0
        c0 = model.coeffs.c0
        assert trace.mean_series[-1] == pytest.approx(c0 / model.a, rel=0.05)

    def test_dt_refinement_consistency(self):
        grid = Grid1D(length=3.0, n_points=101)
        model = figure_model("fig2", grid, r=10.0).with_r(10.0, tau=0.2)
        coarse = simulate_pde(model, t_end=40.0, dt=1e-2)
        fine = simulate_pde(model, t_end=40.0, dt=5e-3)
        rel = abs(coarse.mean_series[-1] - fine.mean_series[-1]) / abs(
            fine.mean_series[-1]
        )
        assert rel < 1e-3


class TestPdeInterface:
    def test_t_end_required(self, fig1_model):
        with pytest.raises(ValueError, match="t_end"):
            simulate_pde(fig1_model)

    @pytest.mark.parametrize("key", ["t_end", "dt"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_time_rejected(self, fig1_model, key, value):
        times = {"t_end": 1.0, key: value}
        with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
            simulate_pde(fig1_model, **times)
        with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
            simulate_average_dde(math.exp(3.0), 1.0, 2.5, 0.0, **times)

    def test_negative_snapshot_stride_rejected(self, fig1_model):
        with pytest.raises(ValueError, match="snapshot_stride"):
            simulate_pde(fig1_model, t_end=1.0, snapshot_stride=-3)

    def test_dt_snaps_to_delay(self):
        grid = Grid1D(length=3.0, n_points=101)
        model = figure_model("fig2", grid, r=10.0).with_r(10.0, tau=0.2)
        trace = simulate_pde(model, t_end=10.0, dt=3e-3)
        n_delay = round(trace.tau_hat / trace.dt)
        assert n_delay * trace.dt == pytest.approx(trace.tau_hat, rel=1e-14)

    @pytest.mark.parametrize("delay", [1e-9, 0.499 * 3e-3])
    def test_delay_below_half_step_rejected(self, delay):
        # snapping dt down to a 1e-9 delay would take 1e10 steps
        with pytest.raises(ValueError, match="below dt/2"):
            _snap_step(delay, 3e-3, 10.0)
        grid = Grid1D(length=3.0, n_points=11)
        model = figure_model("fig2", grid, r=10.0).with_r(10.0, tau=delay / 10)
        with pytest.raises(ValueError, match="below dt/2"):
            simulate_pde(model, t_end=10.0, dt=3e-3)
        with pytest.raises(ValueError, match="below dt/2"):
            simulate_average_dde(math.exp(3.0), 1.0, 2.5, delay, t_end=10.0,
                                 dt=3e-3)

    def test_delay_of_half_step_or_more_snaps(self):
        # round(0.5) is 0, and a delay of exactly dt/2 becomes one step
        for delay in (0.5 * 3e-3, 0.6 * 3e-3):
            assert _snap_step(delay, 3e-3, 0.3)[:2] == (delay, 1)
        trace = simulate_average_dde(math.exp(3.0), 1.0, 2.5, 0.6 * 3e-3,
                                     t_end=0.3, dt=3e-3)
        assert trace.dt == 0.6 * 3e-3
        assert len(trace.times) == math.ceil(0.3 / trace.dt - 1e-12) + 1

    def test_history_validation(self, fig1_model):
        n = fig1_model.grid.n_points
        with pytest.raises(ValueError, match="positive"):
            simulate_pde(fig1_model, history=np.zeros(n), t_end=1.0)
        with pytest.raises(ValueError, match="shape"):
            simulate_pde(fig1_model, history=np.ones(n + 3), t_end=1.0)
        bad = np.ones(n)
        bad[4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            simulate_pde(fig1_model, history=bad, t_end=1.0)

    def test_default_history_below_steady(self, fig1_model):
        history = default_history(fig1_model)
        state = solve_steady_state(fig1_model)
        assert history == pytest.approx(0.9 * state.u / fig1_model.a,
                                        rel=1e-12)

    def test_trace_is_frozen(self, fig1_model):
        trace = simulate_pde(fig1_model, t_end=2.0)
        with pytest.raises(ValueError):
            trace.mean_series[0] = 0.0
        with pytest.raises(ValueError):
            trace.times[0] = -1.0

    def test_times_reach_t_end(self, fig1_model):
        trace = simulate_pde(fig1_model, t_end=2.0, dt=1e-2)
        assert trace.times[-1] == pytest.approx(2.0)
        assert len(trace.times) - 1 == 200 == len(trace.mean_series) - 1

    def test_snapshot_stride(self, fig1_model):
        trace = simulate_pde(fig1_model, t_end=2.0, dt=1e-2,
                             snapshot_stride=50)
        times = [t for t, _ in trace.snapshots]
        assert times == sorted(times)
        assert times[0] == pytest.approx(0.0)
        assert times[-1] == pytest.approx(2.0)
        assert len(times) >= 4

    def test_no_stride_means_no_snapshots(self, fig1_model):
        trace = simulate_pde(fig1_model, t_end=1.0, dt=1e-2)
        assert trace.snapshots == ()

    def test_blowup_detected(self, monkeypatch):
        # an enormous step with a sizeable delay destabilizes the explicit
        # reaction update and must be reported, not returned as garbage
        grid = Grid1D(length=3.0, n_points=101)
        model = figure_model("fig2", grid, r=10.0).with_r(10.0, tau=0.2)
        monkeypatch.setattr(simulate_module, "_BLOWUP_THRESHOLD", 1e6)
        with pytest.raises(BlowUpError) as info:
            simulate_pde(model, t_end=4000.0, dt=2.0)
        assert info.value.time > 0.0


def reference_pde(model, history, t_end, dt, snapshot_stride=None,
                  blowup_threshold=1e8):
    """One Crank-Nicolson step at a time: a sparse matvec, a SuperLU solve
    and a deque of the last n_delay + 1 fields.  Returns the means and the
    snapshots."""
    dt, n_delay, n_steps = _snap_step(model.tau_hat, dt, t_end)
    grid, n = model.grid, model.grid.n_points
    half = 0.5 * dt * model.d
    lap = sparse_laplacian(grid.laplacian)
    implicit = splu(identity(n, format="csc") - half * lap)
    explicit = identity(n, format="csc") + half * lap
    p, delta, a = model.coeffs.p, model.coeffs.delta, model.a
    buffer = deque([np.broadcast_to(history(grid.nodes, -k * dt), (n,))
                    for k in range(n_delay, -1, -1)], maxlen=n_delay + 1)
    current = buffer[-1]
    means = [spatial_average(current, grid)]
    snapshots = [(0.0, current)] if snapshot_stride else []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            delayed = buffer[0]
            reaction = p * delayed * np.exp(-a * delayed) - delta * current
            current = implicit.solve(explicit @ current + dt * reaction)
            if not np.abs(current).max() <= blowup_threshold:
                raise BlowUpError("reference blow-up", time=step * dt)
            buffer.append(current)
            means.append(spatial_average(current, grid))
            if snapshot_stride and step % snapshot_stride == 0:
                snapshots.append((step * dt, current))
    if snapshot_stride and snapshots[-1][0] != n_steps * dt:
        snapshots.append((n_steps * dt, current))
    return np.array(means), snapshots


def reference_dde(p_bar, delta_bar, a, tau, history, t_end, dt):
    """Forward Euler one step at a time with a deque of delayed values."""
    dt, n_delay, n_steps = _snap_step(tau, dt, t_end)
    buffer = deque([history(-k * dt) for k in range(n_delay, -1, -1)],
                   maxlen=n_delay + 1)
    values = [buffer[-1]]
    for _ in range(n_steps):
        delayed = buffer[0]
        rate = -delta_bar * values[-1] + p_bar * delayed * math.exp(-a * delayed)
        values.append(values[-1] + dt * rate)
        buffer.append(values[-1])
    return np.array(values)


class TestBlockMarchMatchesReference:
    """The block march against the per-step reference above.

    The delays cover the shortest ring, a ring lengthened to a multiple of
    a short delay, and a delay longer than one block of births; no step
    count is a multiple of the ring length or of the block length, and the
    snapshot stride is aligned with neither.
    """

    DT = 5e-3

    @pytest.mark.parametrize("n_delay, n_steps", [
        (0, 300), (1, 303), (44, 432), (_CHUNK + 72, 900),
    ])
    def test_pde(self, n_delay, n_steps):
        grid = Grid1D(3.0, 41)
        model = figure_model("fig2", grid, r=10.0).with_r(
            10.0, tau=n_delay * self.DT / 10.0)

        def history(x, t):
            return (1.0 + 0.1 * np.cos(x)) * (2.0 + 0.1 * t)

        t_end = n_steps * self.DT
        trace = simulate_pde(model, history=history, t_end=t_end, dt=self.DT,
                             snapshot_stride=37)
        assert round(trace.tau_hat / trace.dt) == n_delay
        assert len(trace.times) == n_steps + 1
        means, snapshots = reference_pde(model, history, t_end, self.DT,
                                         snapshot_stride=37)
        np.testing.assert_allclose(trace.mean_series, means, rtol=1e-12,
                                   atol=0.0)
        assert [t for t, _ in trace.snapshots] == [t for t, _ in snapshots]
        for (_, field), (_, expected) in zip(trace.snapshots, snapshots):
            np.testing.assert_allclose(field, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_delay", [0, 1, _CHUNK + 72])
    def test_dde(self, n_delay):
        dt = 1e-2
        tau = n_delay * dt
        trace = simulate_average_dde(math.exp(3.0), 1.0, 2.5, tau,
                                     history=lambda t: 1.0 + 0.2 * t,
                                     t_end=1011 * dt, dt=dt)
        expected = reference_dde(math.exp(3.0), 1.0, 2.5, tau,
                                 lambda t: 1.0 + 0.2 * t, 1011 * dt, dt)
        np.testing.assert_allclose(trace.mean_series, expected, rtol=1e-12,
                                   atol=0.0)

    def test_blowup_inside_a_block(self, monkeypatch):
        # dt * delta > 2 makes the explicit reaction unstable; the reference
        # passes 1e6 at step 290, inside the block of steps 202 .. 329 and
        # after the ring of 201 states has wrapped once
        dt, n_delay = 0.68, _CHUNK + 72
        grid = Grid1D(3.0, 41)
        model = figure_model("fig2", grid, r=10.0).with_r(
            10.0, tau=n_delay * dt / 10.0)
        with pytest.raises(BlowUpError) as expected:
            reference_pde(model, lambda x, t: 1.0, 400 * dt, dt,
                          blowup_threshold=1e6)
        monkeypatch.setattr(simulate_module, "_BLOWUP_THRESHOLD", 1e6)
        with pytest.raises(BlowUpError) as info:
            simulate_pde(model, history=1.0, t_end=400 * dt, dt=dt)
        assert round(expected.value.time / dt) == 290
        assert info.value.time == expected.value.time
        assert str(info.value) == f"solution exceeded 1e+06 at t = {info.value.time:.6g}"

    @pytest.mark.parametrize("dt, history, threshold, step", [
        # the explicit reaction is unstable: u leaves the finite range
        (0.45, 1.0, 1e6, 7),
        # growth from 1e-3 passes 0.5 inside the block of steps 129 .. 256,
        # after the zero-delay ring of _CHUNK states has wrapped once
        (2e-3, 1e-3, 0.5, 154),
    ])
    def test_zero_delay_blowup_inside_a_block(self, monkeypatch, dt, history,
                                              threshold, step):
        # at zero delay advance evaluates each step's births itself
        grid = Grid1D(3.0, 41)
        model = figure_model("fig2", grid, r=10.0).with_r(10.0, tau=0.0)
        with pytest.raises(BlowUpError) as expected:
            reference_pde(model, lambda x, t: history, 400 * dt, dt,
                          blowup_threshold=threshold)
        monkeypatch.setattr(simulate_module, "_BLOWUP_THRESHOLD", threshold)
        with pytest.raises(BlowUpError) as info:
            simulate_pde(model, history=history, t_end=400 * dt, dt=dt)
        assert round(expected.value.time / dt) == step
        assert info.value.time == expected.value.time
        assert str(info.value) == (f"solution exceeded {threshold:.3g} at "
                                   f"t = {info.value.time:.6g}")


def test_long_delay_memory_is_bounded():
    # 2000 delay steps at n = 201: a 3.2 MB ring; blocks of births keep the
    # transient memory independent of the delay
    grid = Grid1D(3.0, 201)
    model = figure_model("fig2", grid, r=10.0).with_r(10.0, tau=1.0)
    tracemalloc.start()
    try:
        trace = simulate_pde(model, history=1.0, t_end=25.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_delay = round(trace.tau_hat / trace.dt)
    assert n_delay == 2000
    ring_bytes = (n_delay + 1) * grid.n_points * 8
    outputs = trace.times.nbytes + trace.mean_series.nbytes
    assert peak - outputs <= 1.5 * ring_bytes


class TestAverageDde:
    def test_subcritical_delay_settles(self):
        tau0 = 2.0 * math.pi / (3.0 * math.sqrt(3.0))
        trace = simulate_average_dde(math.exp(3.0), 1.0, 2.5,
                                     tau_check=0.8 * tau0, t_end=200.0)
        est = estimate_period(trace)
        assert not est.oscillating
        assert trace.mean_series[-1] == pytest.approx(3.0 / 2.5, rel=1e-3)

    def test_supercritical_delay_oscillates_at_linear_period(self):
        tau0 = 2.0 * math.pi / (3.0 * math.sqrt(3.0))
        trace = simulate_average_dde(math.exp(3.0), 1.0, 2.5,
                                     tau_check=1.1 * tau0, t_end=400.0)
        est = estimate_period(trace)
        assert est.oscillating
        assert est.period == pytest.approx(2.0 * math.pi / math.sqrt(3.0),
                                           rel=0.10)

    def test_zero_delay_monotone(self):
        trace = simulate_average_dde(math.exp(3.0), 1.0, 2.5,
                                     tau_check=0.0, t_end=100.0,
                                     history=0.05)
        tail = trace.mean_series[trace.mean_series.size // 10:]
        assert np.all(np.diff(tail) > -1e-12)
        assert trace.mean_series[-1] == pytest.approx(1.2, rel=1e-3)

    def test_threshold_agrees_with_root_oracle(self):
        # bisection on the characteristic roots gives the true threshold;
        # the integrator must settle just below it and ring just above it
        tau0 = oracles.first_crossing_delay(1.0, 3.0)
        below = simulate_average_dde(math.exp(3.0), 1.0, 2.5,
                                     tau_check=0.93 * tau0, t_end=600.0)
        above = simulate_average_dde(math.exp(3.0), 1.0, 2.5,
                                     tau_check=1.07 * tau0, t_end=600.0)
        assert not estimate_period(below).oscillating
        assert estimate_period(above).oscillating

    def test_validation(self):
        with pytest.raises(ValueError, match="t_end"):
            simulate_average_dde(math.exp(3.0), 1.0, 2.5, tau_check=1.0)
        with pytest.raises(ValueError, match="positive"):
            simulate_average_dde(math.exp(3.0), 1.0, 2.5, tau_check=1.0,
                                 history=-0.3, t_end=10.0)
        for tau_check in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="delay"):
                simulate_average_dde(math.exp(3.0), 1.0, 2.5, tau_check,
                                     t_end=10.0)

    @staticmethod
    def float64_zero_delay(p_bar, delta_bar, a, history, dt, n_steps):
        """The zero-delay step with an np.float64 running value, one step at
        a time; the blow-up test of ``_march`` after each step."""
        keep, gain = 1.0 - dt * delta_bar, dt * p_bar
        value = np.float64(history)
        values = [value]
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, n_steps + 1):
                value = keep * value + gain * value * np.exp(-a * value)
                if not abs(value) <= 1e8:
                    raise BlowUpError("loop blow-up", time=step * dt)
                values.append(value)
        return np.array(values)

    def test_zero_delay_matches_float64_steps_bitwise(self):
        # the running value is a float, np.exp still gives every exponential
        trace = simulate_average_dde(math.exp(3.0), 1.0, 2.5, 0.0,
                                     history=0.05, t_end=20.0, dt=1e-3)
        expected = self.float64_zero_delay(math.exp(3.0), 1.0, 2.5, 0.05,
                                           1e-3, 20000)
        assert trace.mean_series.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dt, history, step", [
        (2.05, 1.0, 4),  # the exponential overflows: the value turns -inf
        (2.5, 1.2, 23),  # the value grows past 1e8
    ])
    def test_zero_delay_blowup_matches_float64_steps(self, dt, history, step):
        # dt * delta_bar > 2: the explicit reaction is unstable
        with pytest.raises(BlowUpError) as expected:
            self.float64_zero_delay(math.exp(3.0), 1.0, 2.5, history, dt, 400)
        with pytest.raises(BlowUpError) as info:
            simulate_average_dde(math.exp(3.0), 1.0, 2.5, 0.0, history=history,
                                 t_end=400 * dt, dt=dt)
        assert round(expected.value.time / dt) == step
        assert info.value.time == expected.value.time

    def test_overflow_is_blowup(self):
        # a huge step overflows math.exp before the value passes 1e8
        with pytest.raises(BlowUpError) as info:
            simulate_average_dde(math.exp(2.7), 2.0, 2.5, 0.0, t_end=200.0,
                                 dt=1.0)
        assert info.value.time > 0.0


class TestAverageDdeIsConstantPde:
    """With constant coefficients the PDE mean obeys the averaged DDE."""

    @pytest.mark.parametrize("tau_hat", [0.0, 1.0])
    def test_mean_series_matches(self, tau_hat):
        grid = Grid1D(3.0, 11)
        model = constant_model(2.7, grid, r=10.0, delta_bar=2.0)
        model = model.with_r(10.0, tau=tau_hat / 10.0)
        pde = simulate_pde(model, history=1.0, t_end=100.0, dt=5e-3)
        coeffs = model.coeffs
        dde = simulate_average_dde(coeffs.p_bar, coeffs.delta_bar, model.a,
                                   model.tau_hat, history=1.0, t_end=100.0,
                                   dt=5e-3)
        assert pde.times.tobytes() == dde.times.tobytes()
        np.testing.assert_allclose(pde.mean_series, dde.mean_series,
                                   rtol=0.0, atol=1e-10)
        if tau_hat > 0:
            # above the first threshold: the oracle is not just a fixed point
            assert estimate_period(dde).oscillating


def same_trace(first: SimulationTrace, second: SimulationTrace) -> bool:
    return (
        first.times.tobytes() == second.times.tobytes()
        and first.mean_series.tobytes() == second.mean_series.tobytes()
        and len(first.snapshots) == len(second.snapshots)
        and all(t1 == t2 and f1.tobytes() == f2.tobytes()
                for (t1, f1), (t2, f2) in zip(first.snapshots,
                                              second.snapshots))
    )


class TestCallableHistory:
    @pytest.fixture
    def delayed_model(self):
        grid = Grid1D(length=3.0, n_points=41)
        return figure_model("fig2", grid, r=10.0).with_r(10.0, tau=0.1)

    def test_pde_constant_callable_is_constant(self, delayed_model):
        plain = simulate_pde(delayed_model, history=1.2, t_end=20.0,
                             snapshot_stride=700)
        called = simulate_pde(delayed_model, history=lambda x, t: 1.2,
                              t_end=20.0, snapshot_stride=700)
        assert plain.snapshots
        assert same_trace(plain, called)

    def test_pde_reads_every_level(self, delayed_model):
        grid = delayed_model.grid
        seen = []

        def history(x, t):
            seen.append(t)
            return (1.0 + 0.1 * np.cos(x)) * (2.0 + t)

        trace = simulate_pde(delayed_model, history=history, t_end=1.0)
        n_delay = round(trace.tau_hat / trace.dt)
        assert n_delay == 200
        assert seen == pytest.approx(
            [-k * trace.dt for k in range(n_delay, -1, -1)], abs=1e-15)
        assert seen[-1] == 0.0
        start = spatial_average(history(grid.nodes, 0.0), grid)
        assert trace.mean_series[0] == start

    def test_dde_constant_callable_is_constant(self):
        plain = simulate_average_dde(math.exp(3.0), 1.0, 2.5, 0.9,
                                     history=0.7, t_end=50.0)
        called = simulate_average_dde(math.exp(3.0), 1.0, 2.5, 0.9,
                                      history=lambda t: 0.7, t_end=50.0)
        assert same_trace(plain, called)

    def test_dde_starts_at_history_of_zero(self):
        seen = []

        def history(t):
            seen.append(t)
            return 2.0 + t

        trace = simulate_average_dde(math.exp(3.0), 1.0, 2.5, 0.9,
                                     history=history, t_end=10.0)
        assert len(seen) == round(0.9 / trace.dt) + 1
        assert min(seen) == pytest.approx(-0.9, abs=1e-15)
        assert seen[-1] == 0.0
        assert trace.mean_series[0] == 2.0


class TestCsvWriters:
    def test_trace_csv(self, tmp_path, fig1_model):
        trace = simulate_pde(fig1_model, t_end=1.0, dt=1e-2)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,mean_u"
        assert len(lines) == len(trace.times) + 1

    def test_snapshot_csv(self, tmp_path, fig1_model):
        trace = simulate_pde(fig1_model, t_end=1.0, dt=1e-2,
                             snapshot_stride=25)
        _, field = trace.snapshots[-1]
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, fig1_model.grid, field)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == fig1_model.grid.n_points + 1

    def test_spacetime_csv(self, tmp_path, fig1_model):
        trace = simulate_pde(fig1_model, t_end=1.0, dt=1e-2,
                             snapshot_stride=25)
        path = tmp_path / "spacetime.csv"
        write_spacetime_csv(path, fig1_model.grid, trace)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,x,u"
        expected = len(trace.snapshots) * fig1_model.grid.n_points
        assert len(lines) == expected + 1

    def test_rewrite_is_byte_identical(self, tmp_path, fig1_model):
        trace = simulate_pde(fig1_model, t_end=1.0, dt=1e-2)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_trace_csv(a, trace)
        write_trace_csv(b, trace)
        assert a.read_bytes() == b.read_bytes()
