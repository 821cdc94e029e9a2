"""Hopf crossing solver: closed forms, the crossing at r, thresholds, pairing."""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import bmat, csc_matrix, diags

import nicholson.hopf as hopf_module
from nicholson.grid import Grid1D
from nicholson.hopf import (
    HopfSolution,
    NoHopfError,
    SimplicityWarning,
    SolvabilityError,
    continue_hopf,
    limit_nondegeneracy_integral,
    limit_phase,
    limit_transversality_real,
    nondegeneracy_integral,
    solve_poisson_meanzero,
    transversality,
    write_hopf_csv,
)
from nicholson.model import ModelParams, build_coefficients, eval_nonlinearity
from nicholson.steady import solve_steady_state

from conftest import (
    characteristic_matrix,
    constant_model,
    figure_model,
    sparse_laplacian,
)

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
        limit = continue_hopf(fig2_model.with_r(0.0))
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


def reference_bordered(core, cols, rows, corner):
    """[[core, cols], [rows, corner]] by SciPy block assembly."""
    return bmat(
        [[core, csc_matrix(cols)], [csc_matrix(rows), csc_matrix(corner)]],
        format="csc",
    )


def reference_poisson_matrix(grid):
    n = grid.n_points
    return reference_bordered(sparse_laplacian(grid.laplacian), np.ones((n, 1)),
                              grid.weights[np.newaxis, :], np.zeros((1, 1)))


def reference_hopf_matrix(grid, shift, cols, norm_row, corner):
    n = grid.n_points
    weights = grid.weights
    block = sparse_laplacian(grid.laplacian, shift.real)
    im_c = diags(shift.imag)
    core = bmat([[block, -im_c], [im_c, block]])
    cols = np.column_stack(cols)
    rows = np.zeros((3, 2 * n))
    rows[0, :n] = norm_row.real
    rows[0, n:] = norm_row.imag
    rows[1, :n] = weights
    rows[2, n:] = weights
    corners = np.zeros((3, 3))
    corners[0, 0] = corner
    return reference_bordered(core, np.vstack([cols.real, cols.imag]), rows,
                              corners)


def dense_system(grid, shift, cols, rows, corner, g, h):
    """A recorded Poisson or Hopf system as a dense matrix and right-hand
    side, from the reference builders."""
    if len(cols) == 2:  # [[L, 1], [w, 0]] [z; lambda] = [g; 0]
        return reference_poisson_matrix(grid).toarray(), np.append(g, 0.0)
    matrix = reference_hopf_matrix(grid, shift, cols, rows[0], corner[0, 0])
    return matrix.toarray(), np.concatenate([g.real, g.imag, h])


class TestBorderedSolve:
    def test_matches_dense_solve(self, monkeypatch):
        # record the systems of real continuations, then solve each again
        # densely: at n = 41 the Poisson, the first and the last Hopf-Newton
        # system, whose core is singular to roundoff; at n = 3, where the
        # deflated node k = 1 is the only interior one, every system
        real_solve = hopf_module._bordered_solve
        recorded = {}
        for n in (41, 3):
            systems = recorded[n] = []
            monkeypatch.setattr(
                hopf_module, "_bordered_solve",
                lambda *args, into=systems: into.append(args) or real_solve(*args))
            grid = Grid1D(length=3.0, n_points=n)
            continue_hopf(figure_model("fig2", grid, r=1e-2))
        poisson, *newton = recorded[41]
        assert len(newton) >= 2
        for args in (poisson, newton[0], newton[-1], *recorded[3]):
            matrix, rhs = dense_system(*args)
            expected = np.linalg.solve(matrix, rhs)
            z, p = real_solve(*args)
            if len(p) == 2:
                got = np.append(z, p[0] + 1j * p[1])
            else:
                got = np.concatenate([z.real, z.imag, p])
            error = np.linalg.norm(got - expected)
            assert error <= 1e-12 * np.linalg.norm(expected)

    def test_singular_matrix_is_newton_failure(self):
        # a shift that cancels the deflation leaves the Neumann L, whose
        # last pivot is exactly zero; zero border columns leave the reduced
        # system singular
        grid = Grid1D(length=3.0, n_points=3)
        ones, weights = np.ones(3), grid.weights
        cancel = np.zeros(3, dtype=complex)
        cancel[1] = -grid.laplacian.main[1]
        for shift, cols in ((cancel, (ones, 1j * ones)),
                            (0j, (0 * ones, 0 * ones))):
            with pytest.raises(hopf_module.CrossingError, match="singular"):
                hopf_module._bordered_solve(
                    grid, shift, cols, (weights, 1j * weights), 0.0,
                    ones + 0j, np.zeros(2))


class TestContinuation:
    def test_r_zero_returns_limit(self, fig2_model):
        sol = continue_hopf(fig2_model.with_r(0.0))
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
        # a negative r is refused by the model itself, before any solve
        with pytest.raises(ValueError, match="negative"):
            continue_hopf(fig2_model.with_r(-0.1))
        with pytest.raises(ValueError, match="r_cap"):
            continue_hopf(fig2_model.with_r(2.0))

    @pytest.mark.parametrize("r_target, r_cap, message", [
        pytest.param(math.nan, 0.5, "r must be nonnegative and finite",
                     id="nan-0.5"),
        pytest.param(0.01, math.nan, "r_cap", id="0.01-nan"),
    ])
    def test_rejects_nan(self, fig2_model, r_target, r_cap, message):
        with pytest.raises(ValueError, match=message):
            continue_hopf(fig2_model.with_r(r_target), r_cap=r_cap)

    def test_no_hopf_for_fig1(self, fig1_model):
        with pytest.raises(NoHopfError):
            continue_hopf(fig1_model.with_r(1e-2))

    def test_conjugate_root_is_normalized(self):
        # out of the small-r regime (r L^2 = 341) Newton from the limit
        # lands on the conjugate root, omega < 0, whose ladder is negative
        model = spec_model(
            "27.962278844698346 + 4.534752373366915*sin(3.1842066107488622*x"
            " + 3.155185569431458)",
            "3.0065031363280004 + 2.1039801771886157*cos(1.0034166676397875*x"
            " + 0)",
            Grid1D(length=92.86421458019495, n_points=3), r=0.03952827666787632)
        sol = continue_hopf(model)
        assert sol.omega > 0 and sol.beta > 0 and 0 <= sol.theta < TWO_PI
        assert all(sol.tau_hat_n(k) > 0 for k in range(4))
        assert sol.tau_hat_n(0) == pytest.approx(0.884, abs=1e-3)
        state = (sol.z, sol.beta, sol.omega, sol.theta)
        pfprime = model.coeffs.p * eval_nonlinearity(sol.u, order=1)
        ratio = hopf_module._hopf_residual(state, model, sol.u, pfprime)[2]
        assert ratio <= 100.0


def spec_model(p: str, delta: str, grid: Grid1D, r: float) -> ModelParams:
    coeffs = build_coefficients(p, delta, grid)
    return ModelParams(r=r, a=2.5, tau=0.0, grid=grid, coeffs=coeffs)


class TestStepReference:
    # over 3,345 cases with r L^2 < 13 the walk in r that continue_hopf
    # once made and its one solve from the limit agreed to 3.6e-13
    # relative; 1e-11 leaves room for other BLAS builds' rounding
    @pytest.mark.parametrize("p, delta", [
        pytest.param("30 + 1*sin(1*x + 0)", "2 + 1*cos(0.2*x + 0)", id="fig2"),
        pytest.param("30 + 1*sin(1*x + 0.844235)",
                     "2 + 1.347434*cos(0.2*x + 0)", id="seed1"),
        pytest.param("30 + 25*sin(3*x + 0)", "2 + 1.8*cos(2*x + 0)",
                     id="strong"),
    ])
    def test_one_solve_matches_the_walk(self, p, delta):
        model = spec_model(p, delta, Grid1D(length=3.0, n_points=201), r=0.5)
        for r in (0.05, 0.1, 0.25, 0.5):
            sol = continue_hopf(model.with_r(r))
            u, z, beta, omega, theta = oracles.stepped_crossing(model.with_r(r))
            assert beta > 0 and omega > 0
            for ours, walked in ((sol.u, u), (sol.z, z)):
                scale = np.abs(walked).max()
                assert np.abs(ours - walked).max() <= 1e-11 * scale, r
            for ours, walked in ((sol.beta, beta), (sol.omega, omega),
                                 (sol.theta, theta % TWO_PI)):
                assert ours == pytest.approx(walked, rel=1e-11, abs=0), r


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
            sol = continue_hopf(figure_model("fig2", grid, r=1e-2))
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
            sol = continue_hopf(figure_model("fig2", grid, r=1e-2))
            values.append((sol.theta, sol.omega))
        diffs = np.diff(np.array(values), axis=0)
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((3.8 <= ratios) & (ratios <= 4.2)), ratios

    def test_stall_names_the_first_failure(self, monkeypatch):
        # a failed solve raises at once: one steady solve and one Hopf
        # Newton, even on the finest grid, and the message carries the cause
        calls = {"steady": 0, "hopf": 0}
        real_steady = hopf_module.solve_steady_state

        def steady(*args, **kwargs):
            calls["steady"] += 1
            return real_steady(*args, **kwargs)

        def failing(state, model, u):
            calls["hopf"] += 1
            raise hopf_module.CrossingError(f"forced failure at {model.r:.6g}")

        monkeypatch.setattr(hopf_module, "solve_steady_state", steady)
        monkeypatch.setattr(hopf_module, "_hopf_newton", failing)
        grid = Grid1D(length=3.0, n_points=4801)
        with pytest.raises(hopf_module.CrossingError) as info:
            continue_hopf(figure_model("fig2", grid, r=1e-2))
        error = info.value
        message = str(error)
        assert "at r = 0.01" in message
        assert "forced failure at 0.01" in message
        assert isinstance(error.__cause__, hopf_module.CrossingError)
        assert calls == {"steady": 1, "hopf": 1}

    @pytest.mark.parametrize("r_target, visited", [
        (0.1, [0.1]),
        (0.01, [0.01]),
    ])
    def test_equal_steps(self, monkeypatch, fig2_model, r_target, visited):
        # one steady solve from c0 and one Hopf Newton from the r = 0
        # limit, both at the target r, with no intermediate r
        seen = {"steady": [], "hopf": []}
        real_steady = hopf_module.solve_steady_state
        real_newton = hopf_module._hopf_newton

        def steady(model, *args, **kwargs):
            seen["steady"].append((model.r, args, kwargs))
            return real_steady(model, *args, **kwargs)

        def newton(state, model, u):
            seen["hopf"].append(model.r)
            return real_newton(state, model, u)

        monkeypatch.setattr(hopf_module, "solve_steady_state", steady)
        monkeypatch.setattr(hopf_module, "_hopf_newton", newton)
        continue_hopf(fig2_model.with_r(r_target))
        assert seen["steady"] == [(r, (), {}) for r in visited]
        assert seen["hopf"] == visited


class TestCharacteristicOperator:
    def test_crossing_eigenfunction_in_kernel(self, fig2_branch):
        # psi must solve the characteristic system at mu = i nu for every
        # threshold index, since the delay enters only through the phase
        sol = fig2_branch[1e-2]
        scale = np.abs(sol.psi).max()
        for n in range(4):
            residual = characteristic_matrix(
                sol.model, sol.u, 1j * sol.nu, sol.tau_n(n)
            ) @ sol.psi
            assert np.abs(residual).max() < 1e-8 * scale


class TestThresholds:
    def test_gaps_are_exact_periods(self, fig2_branch):
        sol = fig2_branch[1e-3]
        taus = np.array([sol.tau_n(n) for n in range(5)])
        taus_hat = np.array([sol.tau_hat_n(n) for n in range(5)])
        assert np.allclose(np.diff(taus_hat), TWO_PI / sol.omega, rtol=1e-12)
        assert np.allclose(taus, taus_hat / sol.r, rtol=1e-12)

    def test_first_threshold_matches_reference(self, fig2_branch):
        # reference value tau_hat_0 ~ 0.912 at the r -> 0 limit
        sol = fig2_branch[1e-3]
        assert sol.tau_hat_n(0) == pytest.approx(0.912, abs=1e-3)

    def test_ladder_formulas(self, fig2_branch):
        # the two rungs are the phase over nu and over omega, bit for bit
        sol = fig2_branch[1e-2]
        for n in range(4):
            assert sol.tau_n(n) == (sol.theta + TWO_PI * n) / sol.nu
            assert sol.tau_hat_n(n) == (sol.theta + TWO_PI * n) / sol.omega

    def test_limit_keeps_only_the_unnormalized_ladder(self, fig2_model):
        limit = continue_hopf(fig2_model.with_r(0.0))
        c0 = fig2_model.coeffs.c0
        omega0 = fig2_model.coeffs.delta_bar * math.sqrt(c0 * c0 - 2.0 * c0)
        assert limit.tau_hat_n(0) == limit_phase(c0) / omega0
        with pytest.raises(ValueError, match="undefined at r = 0"):
            limit.tau_n(0)

    @pytest.mark.parametrize("method", ["tau_n", "tau_hat_n"])
    def test_negative_index_refused(self, fig2_branch, method):
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            getattr(fig2_branch[1e-2], method)(-1)


def rigged_crossing(theta: float, omega: float) -> HopfSolution:
    """A constant crossing with u = 0 and z = 0, so psi = c0 and p f'(u) = p.

    Then S_n = c0^2 L (1 + tau_hat_n e^{-i theta} p) and
    dmu/dtau = -i nu r e^{-i theta} p / (1 + tau_hat_n e^{-i theta} p),
    which theta and omega set freely.
    """
    model = constant_model(3.0, Grid1D(length=2.0, n_points=11), r=1e-2)
    return HopfSolution(model=model, u=np.zeros(11), z=np.zeros(11, complex),
                        beta=1.0, omega=omega, theta=theta, residual_norm=0.0)


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

    def test_vanishing_integral_warns(self):
        # theta = pi and omega = pi p make tau_hat_0 e^{-i theta} p = -1, so
        # S_0 cancels to roundoff; S_1 does not
        p = math.exp(3.0)
        sol = rigged_crossing(math.pi, math.pi * p)
        with pytest.warns(SimplicityWarning, match=r"\|S_0\| = ") as record:
            integral = nondegeneracy_integral(sol, 0)
        assert abs(integral) < 1e-8 * 9.0 * 2.0
        # transversality warns too, and both point at their caller
        with pytest.warns(SimplicityWarning, match=r"\|S_0\| = ") as also:
            with contextlib.suppress(RuntimeError):
                transversality(sol, 0)
        assert [w.filename for w in (*record, *also)] == [__file__, __file__]
        with warnings.catch_warnings():
            warnings.simplefilter("error", SimplicityWarning)
            nondegeneracy_integral(sol, 1)


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
        sol = continue_hopf(model)
        scaled = transversality(sol, 0).real / sol.r**2
        tau0 = TWO_PI / (3.0 * math.sqrt(3.0))
        oracle_speed = oracles.scalar_normal_form(
            math.exp(3.0), 1.0, tau0, math.sqrt(3.0)
        )["crossing_speed"].real
        assert scaled == pytest.approx(oracle_speed, rel=1e-6)

    def test_nonpositive_speed_raises(self):
        # theta = pi/2 gives dmu/dtau = -nu r p / (1 - i tau_hat_n p), whose
        # real part is negative at every threshold
        sol = rigged_crossing(math.pi / 2, 1.0)
        for n in (0, 1):
            with pytest.raises(RuntimeError,
                               match=rf"<= 0 at r = 0\.01, n = {n}$"):
                transversality(sol, n)


class TestHopfCsv:
    def test_layout(self, tmp_path, fig2_branch):
        sol = fig2_branch[1e-2]
        path = tmp_path / "hopf.csv"
        write_hopf_csv(path, sol, 2)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("r,")
        header_idx = next(
            i for i, line in enumerate(lines) if line.startswith("x,")
        )
        assert lines[header_idx] == "x,Re z,Im z,Re psi,Im psi"
        assert len(lines) - header_idx - 1 == sol.model.grid.n_points
