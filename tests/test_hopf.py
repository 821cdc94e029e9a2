"""Hopf crossing solver: closed forms, continuation, thresholds, pairing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_matrix

import nicholson.hopf as hopf_module
from nicholson.grid import Grid1D
from nicholson.hopf import (
    NoHopfError,
    SolvabilityError,
    characteristic_residual,
    continue_hopf,
    hopf_thresholds,
    limit_hopf_data,
    limit_nondegeneracy_integral,
    limit_phase,
    limit_transversality_real,
    nondegeneracy_integral,
    solve_poisson_meanzero,
    transversality,
    write_hopf_csv,
)
from nicholson.model import CoefficientSpec, build_coefficients
from nicholson.steady import solve_steady_state

from conftest import constant_model, figure_model

import oracles

TWO_PI = 2.0 * math.pi


class TestClosedForms:
    def test_phase_and_frequency_at_c0_3(self):
        # cos(theta0) = 1/(1-c0) = -1/2 and sin negative force 2pi/3
        theta0 = limit_phase(3.0)
        assert abs(theta0 - TWO_PI / 3.0) < 1e-12
        omega0 = 1.0 * math.sqrt(3.0 * 3.0 - 2.0 * 3.0)
        assert abs(omega0 - math.sqrt(3.0)) < 1e-12

    @given(st.floats(min_value=2.0, max_value=6.0, exclude_min=True))
    @settings(max_examples=50, deadline=None)
    def test_phase_in_second_quadrant(self, c0):
        theta0 = limit_phase(c0)
        assert math.pi / 2.0 < theta0 < math.pi

    @given(st.floats(min_value=2.0, max_value=6.0, exclude_min=True))
    @settings(max_examples=50, deadline=None)
    def test_phase_satisfies_defining_identities(self, c0):
        theta0 = limit_phase(c0)
        spread = math.sqrt(c0 * c0 - 2.0 * c0)
        assert math.cos(theta0) == pytest.approx(1.0 / (1.0 - c0), abs=1e-12)
        assert math.sin(theta0) == pytest.approx(-spread / (1.0 - c0),
                                                 abs=1e-12)

    def test_no_hopf_below_two(self):
        with pytest.raises(NoHopfError, match="stable for every delay"):
            limit_phase(1.5)
        with pytest.raises(NoHopfError, match="no positive steady state"):
            limit_phase(-0.5)


class TestMeanZeroPoisson:
    def test_cosine_mode_solved_to_second_order(self):
        grid = Grid1D(length=3.0, n_points=401)
        mode = np.cos(np.pi * grid.nodes / grid.length)
        z = solve_poisson_meanzero(mode.astype(complex), grid)
        exact = -((grid.length / np.pi) ** 2) * mode
        assert np.abs(z - exact).max() < 1e-4
        assert abs(grid.integrate(z)) < 1e-10

    def test_rejects_nonzero_mean(self):
        grid = Grid1D(length=1.0, n_points=51)
        with pytest.raises(SolvabilityError, match="mean"):
            solve_poisson_meanzero(np.ones(51, dtype=complex), grid)

    def test_scale_override_accepts_roundoff_rhs(self):
        grid = Grid1D(length=1.0, n_points=51)
        noise = np.full(51, 1e-16, dtype=complex)
        z = solve_poisson_meanzero(noise, grid, scale=1.0)
        assert np.abs(z).max() < 1e-12

    def test_limit_eigenfield_is_mean_zero(self, fig2_model):
        limit = limit_hopf_data(fig2_model.coeffs, fig2_model.grid)
        grid = fig2_model.grid
        scale = np.abs(limit.z).max()
        assert abs(grid.integrate(limit.z)) < 1e-10 * max(scale, 1.0)
        assert limit.beta == 1.0

    def test_limit_rhs_solvability(self, fig2_model):
        # the compatibility condition defining (theta0, omega0) makes the
        # forcing mean-zero; verified here against the quadrature
        coeffs = fig2_model.coeffs
        grid = fig2_model.grid
        c0 = coeffs.c0
        theta0 = limit_phase(c0)
        omega0 = coeffs.delta_bar * math.sqrt(c0 * c0 - 2.0 * c0)
        fprime = (1.0 - c0) * math.exp(-c0)
        rhs = -c0 * (
            np.exp(-1j * theta0) * coeffs.p * fprime - coeffs.delta
            - 1j * omega0
        )
        mean = grid.integrate(rhs) / grid.length
        assert abs(mean) <= 1e-10 * np.abs(rhs).max()


class TestBorderedSolve:
    def test_matches_dense_solve(self, monkeypatch):
        # record the Poisson and the first Hopf-Newton system of a real
        # continuation, then solve each again densely
        real_solve = hopf_module._bordered_solve
        systems = []

        def recording(*args):
            systems.append(args)
            return real_solve(*args)

        monkeypatch.setattr(hopf_module, "_bordered_solve", recording)
        grid = Grid1D(length=3.0, n_points=41)
        continue_hopf(figure_model("fig2", grid, r=1e-2), 1e-2)
        poisson, newton = systems[0], systems[1]
        assert poisson[0].shape == (41, 41)
        assert newton[0].shape == (82, 82)
        assert np.iscomplexobj(poisson[4]) and not np.iscomplexobj(newton[4])
        rng = np.random.default_rng(3)
        complex_rhs = newton[4] + 1j * rng.standard_normal(newton[4].size)
        for core, cols, rows, corner, rhs in (
            poisson, newton, newton[:4] + (complex_rhs,)
        ):
            dense = np.block([[core.toarray(), cols], [rows, corner]])
            expected = np.linalg.solve(dense, rhs)
            got = real_solve(core, cols, rows, corner, rhs)
            error = np.linalg.norm(got - expected)
            assert error <= 1e-12 * np.linalg.norm(expected)

    def test_singular_matrix_is_newton_failure(self):
        core = csc_matrix((2, 2))
        with pytest.raises(hopf_module._HopfNewtonFailure, match="singular"):
            hopf_module._bordered_solve(
                core, np.zeros((2, 1)), np.zeros((1, 2)), np.ones((1, 1)),
                np.ones(3),
            )


class TestContinuation:
    def test_r_zero_returns_limit(self, fig2_model):
        sol = continue_hopf(fig2_model.with_r(1.0), 0.0)
        assert sol.r == 0.0
        assert sol.beta == 1.0
        assert sol.theta == pytest.approx(limit_phase(fig2_model.coeffs.c0),
                                          abs=1e-12)

    def test_branch_residuals_small(self, fig2_branch):
        for sol in fig2_branch.values():
            assert sol.residual_norm < 1e-10

    def test_solution_invariants(self, fig2_branch):
        for r, sol in fig2_branch.items():
            grid = sol.model.grid
            c0 = sol.model.coeffs.c0
            assert sol.nu == pytest.approx(r * sol.omega, abs=1e-15)
            assert np.allclose(sol.psi, sol.beta * c0 + r * sol.z)
            # normalization: beta^2 c0^2 L + r^2 ||z||^2 = c0^2 L
            norm_z = grid.integrate(np.abs(sol.z) ** 2)
            total = sol.beta**2 * c0**2 * grid.length + r**2 * norm_z
            assert total == pytest.approx(c0**2 * grid.length, rel=1e-10)
            mean_z = grid.integrate(sol.z) / grid.length
            assert abs(mean_z) < 1e-9 * max(np.abs(sol.z).max(), 1.0)

    def test_convergence_rates_to_limit(self, fig2_branch, fig2_model):
        # theta and omega converge at O(r), beta at O(r^2); measured on
        # the second decade where the O(r^2) contamination is gone
        c0 = fig2_model.coeffs.c0
        theta0 = limit_phase(c0)
        omega0 = fig2_model.coeffs.delta_bar * math.sqrt(c0 * c0 - 2 * c0)
        errs = {
            r: (abs(sol.theta - theta0), abs(sol.omega - omega0),
                abs(sol.beta - 1.0))
            for r, sol in fig2_branch.items()
        }
        theta_ratio = errs[1e-2][0] / errs[1e-3][0]
        omega_ratio = errs[1e-2][1] / errs[1e-3][1]
        beta_ratio = errs[1e-2][2] / errs[1e-3][2]
        assert 8.0 < theta_ratio < 12.0
        assert 8.0 < omega_ratio < 12.0
        assert 80.0 < beta_ratio < 120.0

    def test_rejects_bad_targets(self, fig2_model):
        with pytest.raises(ValueError, match="negative"):
            continue_hopf(fig2_model, -0.1)
        with pytest.raises(ValueError, match="r_cap"):
            continue_hopf(fig2_model, 2.0)

    def test_no_hopf_for_fig1(self, fig1_model):
        with pytest.raises(NoHopfError):
            continue_hopf(fig1_model.with_r(1e-2), 1e-2)


class TestStoppingRule:
    def test_newton_steps_do_not_grow_with_n(self, monkeypatch):
        # each residual block is judged against its own roundoff floor, so
        # a continuation step costs the same number of solves on every grid
        real_solve = hopf_module._bordered_solve
        solves = []
        monkeypatch.setattr(hopf_module, "_bordered_solve",
                            lambda *args: solves.append(1) or real_solve(*args))
        counts = {}
        for n in (201, 601, 1201, 4801):
            solves.clear()
            grid = Grid1D(length=3.0, n_points=n)
            sol = continue_hopf(figure_model("fig2", grid, r=1e-2), 1e-2)
            counts[n] = len(solves) - 1  # less the Poisson solve of the limit
            assert sol.residual_norm < 1e-9
        assert len(set(counts.values())) == 1, counts
        assert counts[201] <= 3

    def test_mesh_convergence_is_second_order(self):
        # successive differences over doubling grids shrink 4x; a stopping
        # rule looser than the discretization error would break the ratios
        # on the finest grids first
        values = []
        for n in (301, 601, 1201, 2401, 4801):
            grid = Grid1D(length=3.0, n_points=n)
            sol = continue_hopf(figure_model("fig2", grid, r=1e-2), 1e-2)
            values.append((sol.theta, sol.omega))
        diffs = np.diff(np.array(values), axis=0)
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((3.8 <= ratios) & (ratios <= 4.2)), ratios

    def test_stall_names_the_first_failure(self, monkeypatch, fig2_model):
        def failing(state, model, u, laplacian):
            raise hopf_module._HopfNewtonFailure(f"forced failure at {model.r:.6g}")

        monkeypatch.setattr(hopf_module, "_hopf_newton", failing)
        with pytest.raises(hopf_module.ContinuationStallError) as info:
            continue_hopf(fig2_model, 1e-2)
        error = info.value
        assert error.last_good_r == 0.0
        assert error.first_failure == "at r = 0.01: forced failure at 0.01"
        message = str(error)
        assert "first failure at r = 0.01: forced failure at 0.01" in message
        assert "last failure at r = " in message


class TestCharacteristicOperator:
    def test_crossing_eigenfunction_in_kernel(self, fig2_branch):
        # psi must solve the characteristic system at mu = i nu for every
        # threshold index, since the delay enters only through the phase
        sol = fig2_branch[1e-2]
        thresholds = hopf_thresholds(sol, n_max=3)
        scale = np.abs(sol.psi).max()
        for tau_n in thresholds.taus:
            residual = characteristic_residual(
                1j * sol.nu, tau_n, sol.psi, sol.model, sol.u
            )
            assert np.abs(residual).max() < 1e-8 * scale


class TestThresholds:
    def test_gaps_are_exact_periods(self, fig2_branch):
        sol = fig2_branch[1e-3]
        thresholds = hopf_thresholds(sol, n_max=4)
        gaps_hat = np.diff(thresholds.taus_hat)
        assert np.allclose(gaps_hat, TWO_PI / sol.omega, rtol=1e-12)
        assert np.allclose(
            thresholds.taus, np.asarray(thresholds.taus_hat) / sol.r,
            rtol=1e-12,
        )

    def test_first_threshold_matches_reference(self, fig2_branch):
        # reference value tau_hat_0 ~ 0.912 at the r -> 0 limit
        sol = fig2_branch[1e-3]
        thresholds = hopf_thresholds(sol, n_max=0)
        assert thresholds.taus_hat[0] == pytest.approx(0.912, abs=1e-3)


class TestNondegeneracyIntegral:
    def test_matches_limit_at_small_r(self, fig2_branch, fig2_model):
        c0 = fig2_model.coeffs.c0
        length = fig2_model.grid.length
        for n in (0, 1):
            integral = nondegeneracy_integral(fig2_branch[1e-3], n)
            limit = limit_nondegeneracy_integral(c0, length, n)
            assert abs(integral - limit) < 1e-4 * abs(limit)

    def test_limit_formula_structure(self):
        # S_n = (1 + Theta/s + i Theta) c0^2 L
        c0, length = 3.0, 2.0
        theta0 = limit_phase(c0)
        spread = math.sqrt(3.0)
        for n in (0, 2):
            big_theta = theta0 + TWO_PI * n
            expected = (1.0 + big_theta / spread + 1j * big_theta) * 9.0 * 2.0
            got = limit_nondegeneracy_integral(c0, length, n)
            assert got == pytest.approx(expected, rel=1e-14)


class TestTransversality:
    def test_real_part_positive_along_branch(self, fig2_branch):
        for sol in fig2_branch.values():
            for n in (0, 1):
                assert transversality(sol, n).real > 0

    def test_scaled_limit_agreement(self, fig2_branch, fig2_model):
        sol = fig2_branch[1e-3]
        scaled = transversality(sol, 0).real / sol.r**2
        limit = limit_transversality_real(
            fig2_model.coeffs, fig2_model.grid, 0
        )
        assert scaled == pytest.approx(limit, rel=1e-3)

    def test_constant_case_matches_scalar_oracle(self):
        # spatially constant coefficients reduce to the scalar equation,
        # where the crossing speed can be tracked by brute force
        grid = Grid1D(length=3.0, n_points=201)
        model = constant_model(3.0, grid, r=1e-2)
        sol = continue_hopf(model, 1e-2)
        scaled = transversality(sol, 0).real / sol.r**2
        tau0 = TWO_PI / (3.0 * math.sqrt(3.0))
        oracle_speed = oracles.scalar_normal_form(
            math.exp(3.0), 1.0, tau0, math.sqrt(3.0)
        )["crossing_speed"].real
        assert scaled == pytest.approx(oracle_speed, rel=1e-6)


class TestHopfCsv:
    def test_layout(self, tmp_path, fig2_branch):
        sol = fig2_branch[1e-2]
        thresholds = hopf_thresholds(sol, n_max=2)
        path = tmp_path / "hopf.csv"
        write_hopf_csv(path, sol, thresholds)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("r,")
        header_idx = next(
            i for i, line in enumerate(lines) if line.startswith("x,")
        )
        assert lines[header_idx] == "x,Re z,Im z,Re psi,Im psi"
        assert len(lines) - header_idx - 1 == sol.model.grid.n_points
