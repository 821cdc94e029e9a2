"""Normal form: limit agreement, scalar-oracle equivalence, certificates."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import zgtcon
from scipy.optimize import brentq

from nicholson import grid as grid_module, normalform
from nicholson.grid import Grid1D
from nicholson.hopf import HopfSolution, continue_hopf, limit_phase
from nicholson.model import (
    ModelParams,
    build_coefficients,
    eval_nonlinearity,
)
from nicholson.normalform import (
    ResonanceError,
    bifurcation_verdict,
    first_lyapunov_coefficient,
    limit_lyapunov_real,
    limit_pairing_factor,
    limit_second_harmonic_ratio,
    limit_zero_mode_ratio,
    lyapunov_sign_bounds,
    normal_form_report,
    second_harmonic_correction,
    write_normalform_csv,
    zero_mode_correction,
)

from conftest import (
    FIG_LENGTH,
    characteristic_matrix,
    constant_model,
    figure_model,
)

import oracles

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def constant_crossing():
    """c0 = 3, delta = 1 constants at a deliberately non-small r."""
    grid = Grid1D(length=3.0, n_points=201)
    model = constant_model(3.0, grid, r=0.2)
    return continue_hopf(model)


class TestConstantCoefficientExactness:
    def test_pipeline_equals_limit_at_finite_r(self, constant_crossing):
        # with constant coefficients every r-dependence cancels, so the
        # full pipeline must hit the closed-form limit at machine precision;
        # this pins the 1/2 factor of the limit formula against the
        # independently assembled discrete computation
        for report in normal_form_report(constant_crossing, n_max=1):
            limit = limit_lyapunov_real(3.0, report.n)
            assert report.c1.real == pytest.approx(limit, abs=1e-9)

    def test_correction_fields_are_constant_multiples(self, constant_crossing):
        second = second_harmonic_correction(constant_crossing)
        zero = zero_mode_correction(constant_crossing)
        assert np.ptp(np.abs(second)) < 1e-10
        assert np.ptp(np.abs(zero)) < 1e-10
        assert second[0] / 3.0 == pytest.approx(
            limit_second_harmonic_ratio(3.0), abs=1e-10
        )
        assert zero[0].real / 3.0 == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_coefficients_share_one_integral(self, constant_crossing):
        # for a real eigenfunction the three quadratic terms differ only by
        # the delay phase
        g = normal_form_report(constant_crossing)[0].g
        phase = constant_crossing.nu * constant_crossing.tau_n(0)
        assert g.g20 == pytest.approx(g.g11 * np.exp(-2j * phase), rel=1e-10)
        assert g.g02 == pytest.approx(g.g11 * np.exp(2j * phase), rel=1e-10)


class TestScalarOracleEquivalence:
    def test_g_coefficients_match_textbook_route(self, constant_crossing):
        # conversion between conventions: the package rescales time by the
        # threshold and carries eigenfunction amplitude c0, so quadratic
        # terms scale by tau0*c0 and the cubic one by tau0*c0^2
        c0 = 3.0
        tau0 = TWO_PI / (3.0 * math.sqrt(3.0))
        textbook = oracles.scalar_normal_form(
            math.exp(c0), 1.0, tau0, math.sqrt(3.0)
        )
        g = normal_form_report(constant_crossing)[0].g
        quad = tau0 * c0
        assert g.g20 == pytest.approx(quad * textbook["g20"], rel=1e-8)
        assert g.g11 == pytest.approx(quad * textbook["g11"], rel=1e-8)
        assert g.g02 == pytest.approx(quad * textbook["g02"], rel=1e-8)
        assert g.g21 == pytest.approx(tau0 * c0**2 * textbook["g21"],
                                      rel=1e-8)

    def test_c1_matches_textbook_route(self, constant_crossing):
        c0 = 3.0
        tau0 = TWO_PI / (3.0 * math.sqrt(3.0))
        textbook = oracles.scalar_normal_form(
            math.exp(c0), 1.0, tau0, math.sqrt(3.0)
        )
        report = normal_form_report(constant_crossing)[0]
        assert report.c1 == pytest.approx(tau0 * c0**2 * textbook["c1"],
                                          rel=1e-8)

    def test_correction_fields_match_textbook_route(self, constant_crossing):
        c0 = 3.0
        tau0 = TWO_PI / (3.0 * math.sqrt(3.0))
        textbook = oracles.scalar_normal_form(
            math.exp(c0), 1.0, tau0, math.sqrt(3.0)
        )
        second = second_harmonic_correction(constant_crossing)
        zero = zero_mode_correction(constant_crossing)
        assert second[0] == pytest.approx(
            c0**2 * textbook["second_harmonic"], rel=1e-8
        )
        assert zero[0] == pytest.approx(c0**2 * textbook["zero_mode"],
                                        rel=1e-8)


class TestLimitFormulas:
    def test_second_harmonic_imaginary_part_at_3(self):
        # at c0 = 3 the imaginary part reduces to 1/(2 sqrt 3)
        ratio = limit_second_harmonic_ratio(3.0)
        assert ratio.real == pytest.approx(0.5, abs=1e-12)
        assert ratio.imag == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)),
                                           abs=1e-12)

    @given(st.floats(min_value=2.01, max_value=6.0))
    @settings(max_examples=60, deadline=None)
    def test_rational_forms_agree_with_complex_arithmetic(self, c0):
        spread_sq = c0 * c0 - 2.0 * c0
        quartic = 5.0 * c0**4 - 14.0 * c0**3 + 9.0 * c0 * c0
        im_rational = 2.0 * spread_sq**2.5 / quartic
        assert limit_second_harmonic_ratio(c0).imag == pytest.approx(
            im_rational, rel=1e-10
        )
        common = (c0 * c0 - 3.0) * (c0 - 2.0) ** 2 * c0 * c0 + quartic * (
            c0 * c0 - 5.0 * c0 + 8.0
        )
        w_rational = common / (quartic * (c0 - 2.0))
        w_complex = (
            limit_second_harmonic_ratio(c0).real
            + 2.0 * limit_zero_mode_ratio(c0)
            + c0 / (c0 - 2.0)
            - c0
        )
        assert w_complex == pytest.approx(w_rational, rel=1e-9)

    @given(st.floats(min_value=2.01, max_value=6.0),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_pairing_factor_rational_form(self, c0, n):
        # check the defining product identity
        # G * (s + Theta + i s Theta) = Theta (c0 - 2) c0 e^{-i theta0}
        theta0 = limit_phase(c0)
        spread = math.sqrt(c0 * c0 - 2.0 * c0)
        big = theta0 + TWO_PI * n
        pairing = limit_pairing_factor(c0, n)
        lhs = pairing * (spread + big + 1j * spread * big)
        rhs = big * (c0 - 2.0) * c0 * np.exp(-1j * theta0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_mode_requires_c0_above_two(self):
        with pytest.raises(ValueError):
            limit_zero_mode_ratio(2.0)

    def test_limit_lyapunov_negative_on_fine_sweep(self):
        values = [
            limit_lyapunov_real(2.0 + 0.01 * k) for k in range(1, 401)
        ]
        assert max(values) < 0.0

    def test_sign_certificates_negative_on_fine_sweep(self):
        for k in range(1, 401):
            bound_a, bound_b = lyapunov_sign_bounds(2.0 + 0.01 * k)
            assert bound_a < 0.0
            assert bound_b < 0.0

    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=5, deadline=None)
    def test_limit_negative_for_higher_thresholds(self, n):
        assert limit_lyapunov_real(2.3443, n) < 0.0
        assert limit_lyapunov_real(4.0, n) < 0.0


class TestHeterogeneousSmallR:
    def test_fig2_pipeline_close_to_limit(self, fig2_branch, fig2_model):
        c0 = fig2_model.coeffs.c0
        report = normal_form_report(fig2_branch[1e-3])[0]
        limit = limit_lyapunov_real(c0, 0)
        assert report.c1.real < 0
        assert report.c1.real == pytest.approx(limit, rel=5e-4)

    def test_zero_mode_mean_ratio(self, fig2_branch, fig2_model):
        c0 = fig2_model.coeffs.c0
        grid = fig2_model.grid
        zero = zero_mode_correction(fig2_branch[1e-3])
        mean_ratio = (grid.integrate(zero.real) / grid.length) / c0
        assert mean_ratio == pytest.approx(c0 - 2.0, rel=0.05)

    def test_direction_and_stability(self, fig2_branch):
        report = normal_form_report(fig2_branch[1e-2])[0]
        assert report.direction == "forward"
        assert report.orbit_stability == "stable"
        assert report.mu2 > 0
        assert report.tau_hat_n == pytest.approx(
            report.tau_n * fig2_branch[1e-2].r, rel=1e-14
        )

    def test_mesh_convergence_is_second_order(self):
        # successive differences of Re C1(0) and Re d(mu)/d(tau) over
        # doubling grids shrink 4x, the order of the discretization
        values = []
        for n in (151, 301, 601, 1201):
            grid = Grid1D(length=FIG_LENGTH, n_points=n)
            report = normal_form_report(
                continue_hopf(figure_model("fig2", grid, r=1e-2)))[0]
            values.append((report.c1.real, report.dmu.real))
        diffs = np.diff(np.array(values), axis=0)
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((3.8 <= ratios) & (ratios <= 4.2)), ratios


class TestVerdicts:
    def test_forward_stable(self):
        mu2, direction, stability = bifurcation_verdict(
            complex(-1.0, 0.3), complex(0.5, -0.1), n=0
        )
        assert mu2 == pytest.approx(2.0)
        assert direction == "forward"
        assert stability == "stable"

    def test_backward_unstable_warns(self):
        with pytest.warns(UserWarning, match="Re C1"):
            mu2, direction, stability = bifurcation_verdict(
                complex(1.0, 0.0), complex(0.5, 0.0), n=0
            )
        assert mu2 == pytest.approx(-2.0)
        assert direction == "backward"
        assert stability == "unstable"

    def test_higher_threshold_undetermined(self):
        _, _, stability = bifurcation_verdict(
            complex(-1.0, 0.0), complex(0.5, 0.0), n=2
        )
        assert stability == "undetermined"

    def test_nonpositive_crossing_rejected(self):
        with pytest.raises(ValueError, match="crossing"):
            bifurcation_verdict(complex(-1.0, 0.0), complex(-0.5, 0.0))

    def test_lyapunov_combination(self):
        from nicholson.normalform import GCoefficients
        g = GCoefficients(g20=1 + 1j, g11=0.5j, g02=-0.25, g21=2.0)
        c1 = first_lyapunov_coefficient(g, nu=2.0, tau_n=1.5)
        phase = 3.0
        expected = (
            1j / (2 * phase) * ((1 + 1j) * 0.5j - 2 * 0.25 - 0.0625 / 3.0)
            + 1.0
        )
        assert c1 == pytest.approx(expected, rel=1e-14)


class TestResonanceGuard:
    def test_singular_zero_shift_raises(self):
        # rig the linearization so p f'(u) - delta exactly cancels the
        # second discrete Neumann eigenvalue: the zero-mode solve is then
        # genuinely singular and must be refused, not silently returned
        n = 101
        grid = Grid1D(length=math.pi, n_points=n)
        coeffs = build_coefficients(math.exp(3.0), 1.0, grid)
        model = ModelParams(r=1.0, a=2.5, tau=0.0, grid=grid, coeffs=coeffs)
        h = grid.spacing
        eigenvalue = (2.0 / h**2) * (1.0 - math.cos(math.pi * h / grid.length))
        target = (1.0 + eigenvalue) / math.exp(3.0)
        u_star = brentq(
            lambda u: eval_nonlinearity(u, order=1) - target, 0.0, 1.0
        )
        rigged = HopfSolution(
            model=model,
            u=np.full(n, u_star),
            z=np.zeros(n, dtype=complex),
            beta=1.0,
            omega=1.0,
            theta=1.0,
            residual_norm=0.0,
        )
        with pytest.raises(ResonanceError, match="near-singular"):
            zero_mode_correction(rigged)

    def test_singular_factor_raises_before_estimate(self, fig2_branch,
                                                     monkeypatch):
        # an all-zero column 7 of the shifted tridiagonal (main[7] + shift[7],
        # upper[6] and lower[7]) leaves an exactly zero pivot: the guard must
        # refuse it before the condition estimate or the solve sees the factor
        sol = fig2_branch[1e-2]
        grid = replace(sol.model.grid)  # a grid of its own, to rig
        lap = grid.laplacian
        main, upper, lower = lap.main.copy(), lap.upper.copy(), lap.lower.copy()
        main[7] = upper[6] = lower[7] = 0.0
        object.__setattr__(grid, "laplacian",
                           replace(lap, main=main, upper=upper, lower=lower))

        class ZeroColumn(ModelParams):
            """The model's coupling, and so the shift, with node 7 zeroed."""

            def coupling(self, *args):
                coupling = super().coupling(*args)
                coupling[7] = 0.0
                return coupling

        rigged = ZeroColumn(**{**vars(sol.model), "grid": grid})
        sol = replace(sol, model=rigged)

        def unreachable(*args):
            raise AssertionError("singular factor passed on")

        monkeypatch.setattr(normalform, "zgtcon", unreachable)
        monkeypatch.setattr(grid_module, "zgttrs", unreachable)
        for correction in (second_harmonic_correction, zero_mode_correction):
            with pytest.raises(ResonanceError,
                               match=r"near-singular \(condition estimate inf\)"):
                correction(sol)


def _crossing_systems(n_points):
    """The two shifted systems of the corrections on fig. 2 at r = 1e-2.

    Yields ``(sol, mu, tau_0, rhs, dense)``: mu = 2 i nu with the
    second-harmonic right-hand side, then mu = 0 with the zero-mode one.
    """
    model = figure_model("fig2", Grid1D(length=FIG_LENGTH, n_points=n_points),
                         r=1e-2)
    sol = continue_hopf(model)
    tau_0 = sol.tau_n(0)
    pf2 = sol.model.coeffs.p * eval_nonlinearity(sol.u, order=2)
    for mu, rhs in ((2j * sol.nu, pf2 * sol.psi**2),
                    (0j, pf2 * np.abs(sol.psi) ** 2)):
        yield sol, mu, tau_0, rhs, characteristic_matrix(sol.model, sol.u, mu, tau_0)


@pytest.fixture
def estimates(monkeypatch):
    """The condition estimates 1/rcond that ``zgtcon`` hands the guard."""
    seen = []

    def spy(*args):
        rcond, info = zgtcon(*args)
        seen.append(1.0 / rcond)
        return rcond, info

    monkeypatch.setattr(normalform, "zgtcon", spy)
    return seen


class TestShiftedSolve:
    @pytest.mark.parametrize("n_points", [201, 601])
    def test_estimate_tracks_two_norm_condition(self, n_points, estimates):
        # the 1e12 guard was set against the 2-norm condition number; the
        # LAPACK 1-norm estimate must stay within a small factor of it
        model = figure_model("fig2", Grid1D(length=FIG_LENGTH,
                                            n_points=n_points), r=1e-2)
        sol = continue_hopf(model)
        second_harmonic_correction(sol)
        zero_mode_correction(sol)
        tau_0 = sol.tau_n(0)
        assert len(estimates) == 2
        for estimate, mu in zip(estimates, (2j * sol.nu, 0.0)):
            condition = np.linalg.cond(
                characteristic_matrix(sol.model, sol.u, mu, tau_0))
            assert condition / 4 <= estimate <= 4 * condition

    @pytest.mark.parametrize("n_points", [3, 201])
    def test_estimate_is_the_one_norm_condition(self, n_points, estimates):
        # zgtcon is handed the 1-norm of the matrix it factored, and its
        # estimate of the inverse's 1-norm is a lower bound that is exact
        # here; the infinity norm, the 1-norm of the transpose, reads 0.67
        # of it at n = 3 and 0.8 at n = 201
        for sol, mu, tau_0, rhs, dense in _crossing_systems(n_points):
            normalform._solve_shifted(sol, mu, tau_0, rhs, "test")
            condition = np.linalg.cond(dense, 1)
            assert 0.9 * condition <= estimates[-1] <= (1 + 1e-6) * condition

    @pytest.mark.parametrize("n_points", [3, 201, 1201])
    def test_matches_dense_solve(self, n_points):
        # one tridiagonal solve, no refinement: its backward error is at
        # roundoff, and it agrees with a dense LU solve to within what
        # either can reach, eps times the condition number (np.linalg.solve
        # itself is 2-4e-12 from an extended-precision solve at n = 1201)
        eps = np.finfo(float).eps
        for sol, mu, tau_0, rhs, dense in _crossing_systems(n_points):
            x = normalform._solve_shifted(sol, mu, tau_0, rhs, "test")
            expected = np.linalg.solve(dense, rhs)
            error = np.abs(x - expected).max() / np.abs(expected).max()
            assert error <= eps * np.linalg.cond(dense, 1)
            backward = np.abs(dense @ x - rhs).max() / (
                np.linalg.norm(dense, np.inf) * np.abs(x).max())
            assert backward <= 4 * eps

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_corrections_do_not_depend_on_threshold(self, fig2_branch, n):
        # e^{-2 i nu tau_n} = e^{-2 i theta}: the corrections solved at
        # tau_n itself are the ones the normal form solves once, at tau_0
        sol = fig2_branch[1e-2]
        at_tau_n = oracles.corrections_at(sol, sol.tau_n(n))
        for correction, at_n in zip(
                (second_harmonic_correction, zero_mode_correction), at_tau_n):
            at_zero = correction(sol)
            gap = np.abs(at_n - at_zero).max()
            assert gap <= 1e-13 * np.abs(at_zero).max()


class TestReportCsv:
    def test_rows_per_threshold(self, tmp_path, fig2_branch):
        sol = fig2_branch[1e-2]
        reports = normal_form_report(sol, n_max=1)
        # n_max is keyword-only: a threshold index in its place is refused
        with pytest.raises(TypeError):
            normal_form_report(sol, 1)
        path = tmp_path / "normalform.csv"
        write_normalform_csv(path, sol, reports)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("r,d,n,")
        assert lines[1].split(",")[2] == "0"
        assert lines[2].split(",")[2] == "1"
        assert lines[1].split(",")[-2:] == ["forward", "stable"]
        assert lines[2].split(",")[-1] == "undetermined"
