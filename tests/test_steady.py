"""Steady-state solver: exactness, asymptotics, uniqueness, convergence."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

import nicholson.steady as steady_module
from nicholson.grid import Grid1D
from nicholson.hopf import continue_hopf
from nicholson.model import ModelParams, build_coefficients, eval_nonlinearity
from nicholson.steady import (
    NewtonConvergenceError,
    solve_steady_state,
    steady_residual,
    write_steady_csv,
)

from conftest import constant_model, dense_laplacian, figure_model, sparse_laplacian

class TestLaplacian:
    def test_row_sums_vanish_exactly(self):
        lap = Grid1D(length=3.0, n_points=47).laplacian
        row_sums = dense_laplacian(lap).sum(axis=1)
        assert np.all(row_sums == 0.0)

    def test_weighted_symmetry_exact(self):
        grid = Grid1D(length=2.0, n_points=31)
        lap = grid.laplacian
        weighted = np.diag(grid.weights) @ dense_laplacian(lap)
        assert np.array_equal(weighted, weighted.T)

    def test_neumann_eigenfunction(self):
        # cos(pi x / L) has Laplacian eigenvalue -(pi/L)^2 and zero flux
        grid = Grid1D(length=3.0, n_points=301)
        lap = grid.laplacian
        mode = np.cos(np.pi * grid.nodes / grid.length)
        exact = -((np.pi / grid.length) ** 2) * mode
        assert np.abs(lap.apply(mode) - exact).max() < 2e-4

    def test_apply_matches_matrix(self):
        grid = Grid1D(length=1.0, n_points=21)
        lap = grid.laplacian
        rng = np.random.default_rng(7)
        v = rng.standard_normal(21)
        assert np.allclose(lap.apply(v), dense_laplacian(lap) @ v, atol=1e-12)


class TestFactor:
    """``factor`` and ``weighted_factor`` against a dense solve of their
    matrices."""

    @staticmethod
    def assert_matches_dense(solve, dense):
        n = len(dense)
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n)
        if np.iscomplexobj(dense):
            b = b + 1j * rng.standard_normal(n)
        expected = np.linalg.solve(dense, b)
        x = solve(b.copy())[0]
        assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("n, hopf", [
        pytest.param(3, False, id="3"), pytest.param(201, False, id="201"),
        pytest.param(3, True, id="hopf-3"), pytest.param(201, True, id="hopf-201"),
    ])
    def test_steady_form(self, n, hopf):
        # the Newton matrix L + r (p f'(u) - delta) at the fig. 2 solution;
        # or the complex matrix the bordered Hopf solve factors at the
        # fig. 2 crossing, L + r coupling + L[1, 1] e_1 e_1^T, where
        # L + r coupling alone is singular
        grid = Grid1D(length=3.0, n_points=n)
        lap = grid.laplacian
        if hopf:
            sol = continue_hopf(figure_model("fig2", grid, r=1e-2))
            coeffs = sol.model.coeffs
            coupling = (np.exp(-1j * sol.theta) * coeffs.p
                        * eval_nonlinearity(sol.u, order=1)
                        - coeffs.delta - 1j * sol.omega)
            shift = sol.r * coupling
            shift[1] += lap.main[1]
        else:
            model = figure_model("fig2", grid, r=1.0)
            u = solve_steady_state(model).u
            shift = model.r * (model.coeffs.p * eval_nonlinearity(u, order=1)
                               - model.coeffs.delta)
        self.assert_matches_dense(lap.factor(shift),
                                  dense_laplacian(lap) + np.diag(shift))

    @pytest.mark.parametrize("n", [3, 201])
    @pytest.mark.parametrize("d", [0.1, 100.0])
    def test_stepper_form(self, n, d):
        # the weighted Crank-Nicolson matrix W - h W L, h = dt d / 2, at
        # dt = 5e-3
        grid = Grid1D(length=3.0, n_points=n)
        lap = grid.laplacian
        h = 0.5 * 5e-3 * d
        weights = np.diag(grid.weights / grid.spacing)
        self.assert_matches_dense(lap.weighted_factor(-h),
                                  weights - h * weights @ dense_laplacian(lap))

    @pytest.mark.parametrize("d", [0.1, 100.0])
    def test_stepper_keeps_mass(self, d):
        # pure diffusion, u_new = (W A)^-1 (2 W u) - u, keeps 1^T W u; with
        # W the trapezoid weights themselves, not over the spacing, the
        # rounding of W (I - h L) made it drift by 8e-9 in these 20000
        # steps at d = 100
        grid = Grid1D(length=3.0, n_points=301)
        solve = grid.laplacian.weighted_factor(-0.5 * 5e-3 * d)
        w = grid.weights / grid.spacing
        u = 1.0 + 0.1 * np.cos(grid.nodes) + 0.05 * np.sin(7 * grid.nodes)
        mass = w @ u
        for _ in range(20000):
            u = solve(2.0 * w * u)[0] - u
        assert abs(w @ u - mass) <= 1e-11 * mass

    @pytest.mark.parametrize("length, n", [(3.0, 3), (3.0, 201), (0.7, 1201)])
    def test_weighted_laplacian_symmetric_to_the_last_bit(self, length, n):
        # the off-diagonals weighted_factor hands to pttrf, and W L itself
        grid = Grid1D(length=length, n_points=n)
        lap = grid.laplacian
        w = grid.weights / grid.spacing
        assert w[0] == w[-1] == 0.5 and np.all(w[1:-1] == 1.0)
        assert np.array_equal(w[:-1] * lap.upper, w[1:] * lap.lower)
        weighted = w[:, None] * dense_laplacian(lap)
        assert np.array_equal(weighted, weighted.T)
        assert np.linalg.eigvalsh(weighted).max() <= 1e-12 * abs(weighted).max()

    def test_weighted_not_positive_definite_raises(self):
        # W (I + L) is indefinite: L reaches -4 / spacing^2
        lap = Grid1D(length=3.0, n_points=201).laplacian
        with pytest.raises(np.linalg.LinAlgError,
                           match="not positive definite: pivot D"):
            lap.weighted_factor(1.0)

    def test_neumann_zero_pivot_raises(self):
        lap = Grid1D(length=3.0, n_points=201).laplacian
        with pytest.raises(np.linalg.LinAlgError, match=r"U\[200, 200\]"):
            lap.factor(0.0)


class TestConstantCoefficients:
    def test_exact_constant_steady_state(self):
        # with constant p, delta the solution is u = log(p/delta) exactly
        grid = Grid1D(length=3.0, n_points=101)
        model = constant_model(2.5, grid, r=1.0)
        steady = solve_steady_state(model)
        assert np.abs(steady.u - 2.5).max() < 1e-10

    @given(st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_exact_for_random_c0_and_r(self, c0, r):
        grid = Grid1D(length=2.0, n_points=41)
        model = constant_model(c0, grid, r=r)
        steady = solve_steady_state(model)
        assert np.abs(steady.u - c0).max() < 1e-8


class TestFigureCases:
    def test_fig1_converges_and_is_positive(self, fig1_model):
        steady = solve_steady_state(fig1_model)
        assert steady.residual_norm < 1e-9
        assert steady.u.min() > 0
        residual = steady_residual(steady.u, fig1_model)
        assert np.abs(residual).max() < 1e-9

    def test_fig2_small_r_approaches_c0(self, fig2_model):
        # u_r -> c0 with an O(r) correction
        steady = solve_steady_state(fig2_model)
        c0 = fig2_model.coeffs.c0
        assert np.abs(steady.u - c0).max() < 1e-3
        coarse = np.abs(steady.u - c0).max()
        finer = solve_steady_state(replace(fig2_model, r=1e-4))
        assert np.abs(finer.u - c0).max() < 0.2 * coarse

    def test_uniqueness_from_spread_out_starts(self, fig1_model):
        # the Newton iteration that solve_steady_state runs from c0
        c0 = fig1_model.coeffs.c0
        n = fig1_model.grid.n_points
        solutions = [
            steady_module._newton(fig1_model, np.full(n, scale * c0)).u
            for scale in (0.5, 1.0, 2.0)
        ]
        assert np.abs(solutions[0] - solutions[1]).max() < 1e-8
        assert np.abs(solutions[0] - solutions[2]).max() < 1e-8


class TestGridConvergence:
    def test_second_order_ratio(self):
        # errors against a fine reference must shrink 4x per halving
        reference_grid = Grid1D(length=3.0, n_points=1201)
        reference = solve_steady_state(
            figure_model("fig2", reference_grid, r=10.0)
        )
        errors = {}
        for n in (151, 301, 601):
            grid = Grid1D(length=3.0, n_points=n)
            steady = solve_steady_state(figure_model("fig2", grid, r=10.0))
            stride = 1200 // (n - 1)
            shared = reference.u[::stride]
            errors[n] = np.abs(steady.u - shared).max()
        ratio_1 = errors[151] / errors[301]
        ratio_2 = errors[301] / errors[601]
        assert ratio_1 == pytest.approx(4.0, rel=0.25)
        assert ratio_2 == pytest.approx(4.0, rel=0.25)


class TestStoppingRule:
    @pytest.mark.parametrize("r", [1e-2, 1e-4, 10.0])
    def test_every_grid_converges_with_defaults(self, r):
        # the residual is judged against its roundoff floor, which grows
        # like 1/h^2: no fixed tolerance would serve n = 201 and 4801 both
        iterations = {}
        for n in (201, 801, 1201, 4801):
            model = figure_model("fig2", Grid1D(length=3.0, n_points=n), r=r)
            steady = solve_steady_state(model)
            floor = steady_module._roundoff_floor(steady.u, model)
            assert steady.residual_norm <= floor
            iterations[n] = steady.newton_iterations
        assert max(iterations.values()) <= iterations[201], iterations

    @pytest.mark.parametrize("n, r", [(1201, 1e-3), (4801, 1e-6)])
    def test_matches_extended_precision_refinement(self, n, r):
        # the constant mode is damped only like r, so a smooth residual far
        # below the floor still moves the mean of u by residual / r; Newton
        # corrections from residuals summed in long double show what is left
        model = figure_model("fig2", Grid1D(length=3.0, n_points=n), r=r)
        lap = model.grid.laplacian
        u = solve_steady_state(model).u
        wide = u.astype(np.longdouble)
        p = model.coeffs.p.astype(np.longdouble)
        delta = model.coeffs.delta.astype(np.longdouble)
        for _ in range(3):
            residual = lap.main * wide
            residual[:-1] += lap.upper * wide[1:]
            residual[1:] += lap.lower * wide[:-1]
            residual += r * (p * wide * np.exp(-wide) - delta * wide)
            slope = model.coeffs.p * eval_nonlinearity(wide.astype(float), order=1)
            jacobian = sparse_laplacian(lap, r * (slope - model.coeffs.delta))
            wide -= spsolve(jacobian, residual.astype(float))
        assert np.abs(u - wide).max() < 1e-14

    def test_floor_tracks_the_laplacian_scale(self):
        # 4 eps (4 u / h^2 + r (p f(u) + delta u)) at the largest node
        coarse = figure_model("fig2", Grid1D(length=3.0, n_points=101), r=1e-2)
        fine = figure_model("fig2", Grid1D(length=3.0, n_points=1001), r=1e-2)
        floors = [
            steady_module._roundoff_floor(np.full(m.grid.n_points, 2.0), m)
            for m in (coarse, fine)
        ]
        assert floors[1] / floors[0] == pytest.approx(100.0, rel=1e-3)
        expected = 4 * np.finfo(float).eps * 8.0 / coarse.grid.spacing**2
        assert floors[0] == pytest.approx(expected, rel=1e-3)

    def test_exact_start_stops_at_once(self):
        # at u = c0 with constant coefficients the residual is roundoff:
        # one step clears it, and the next cannot halve a zero
        grid = Grid1D(length=3.0, n_points=4801)
        steady = solve_steady_state(constant_model(2.5, grid, r=1e-2))
        assert steady.newton_iterations <= 2
        assert np.abs(steady.u - 2.5).max() < 1e-12


class TestErrorPaths:
    def test_singular_jacobian(self, fig2_model):
        # at r = 1e-20 the reaction shift vanishes against 2/h^2, leaving
        # the Neumann Laplacian, singular on constants: a curved start
        # cannot move, while every constant is already at the floor
        x = fig2_model.grid.nodes
        curved = 1.0 + 0.5 * np.cos(np.pi * x / fig2_model.grid.length)
        with pytest.raises(NewtonConvergenceError, match="singular"):
            steady_module._newton(replace(fig2_model, r=1e-20), curved)
        steady = solve_steady_state(replace(fig2_model, r=1e-20))
        assert np.all(steady.u == fig2_model.coeffs.c0)

    def test_rejects_nonpositive_r(self, fig1_model):
        with pytest.raises(ValueError, match="r"):
            solve_steady_state(replace(fig1_model, r=0.0))

    def test_rejects_nonpositive_c0(self):
        grid = Grid1D(length=1.0, n_points=21)
        coeffs = build_coefficients(1.0, 2.0, grid)
        model = ModelParams(r=1.0, a=1.0, tau=0.0, grid=grid, coeffs=coeffs)
        with pytest.raises(ValueError, match="c0"):
            solve_steady_state(model)

    def test_iteration_cap_raises(self, fig1_model, monkeypatch):
        # fig. 1 takes 4 steps from c0; the supersolution retry fails too
        monkeypatch.setattr(steady_module, "_MAX_ITERATIONS", 1)
        with pytest.raises(NewtonConvergenceError) as info:
            solve_steady_state(fig1_model)
        assert info.value.iterations == 1
        assert info.value.last_residual > 0


class TestPositivityProperty:
    @given(st.floats(min_value=2.2, max_value=40.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_solution_positive_for_sinusoid_families(self, base, amp, r):
        grid = Grid1D(length=3.0, n_points=101)
        coeffs = build_coefficients(
            base + amp * np.sin(1.0 * grid.nodes + 0.0),
            2.0 + 1.0 * np.cos(0.2 * grid.nodes + 0.0),
            grid,
        )
        model = ModelParams(r=r, a=2.5, tau=0.0, grid=grid, coeffs=coeffs)
        if coeffs.c0 <= 0:
            return
        steady = solve_steady_state(model)
        assert steady.u.min() > 0

    def test_small_c0_does_not_slide_to_zero(self):
        # c0 = 0.0053 while the positive solution lies near 0.008-0.014:
        # Newton from c0 heads for u = 0, halving max(u) at every step; it
        # is abandoned after two such steps and the solve restarts from the
        # supersolution max log(p / delta)
        grid = Grid1D(length=3.0, n_points=101)
        coeffs = build_coefficients(
            2.625 + 0.5 * np.sin(1.0 * grid.nodes + 0.0),
            2.0 + 1.0 * np.cos(0.2 * grid.nodes + 0.0),
            grid,
        )
        model = ModelParams(r=3.0, a=2.5, tau=0.0, grid=grid, coeffs=coeffs)
        steady = solve_steady_state(model)
        assert steady.u.min() > coeffs.c0
        assert steady.newton_iterations <= 15
        supersolution = np.log(np.max(coeffs.p / coeffs.delta))
        from_above = steady_module._newton(
            model, np.full(grid.n_points, supersolution))
        assert np.abs(steady.u - from_above.u).max() < 1e-14


class TestCsv:
    def test_format_and_determinism(self, tmp_path, fig1_model):
        steady = solve_steady_state(fig1_model)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_steady_csv(path_a, fig1_model.grid, steady)
        write_steady_csv(path_b, fig1_model.grid, steady)
        body = path_a.read_text(encoding="utf-8")
        assert body.splitlines()[0] == "x,u"
        assert len(body.splitlines()) == fig1_model.grid.n_points + 1
        assert body == path_b.read_text(encoding="utf-8")
