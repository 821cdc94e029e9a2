"""Grid quadrature, nonlinearity derivatives, coefficient values, model data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholson.config import read_coefficient_csv
from nicholson.grid import Grid1D, spatial_average
from nicholson.model import (
    ModelParams,
    build_coefficients,
    coefficient_values,
    eval_nonlinearity,
)

from conftest import (
    FIG1_P,
    FIG2_P,
    FIG_DELTA,
    characteristic_matrix,
    figure_model,
)


class TestGrid:
    def test_nodes_and_spacing(self):
        grid = Grid1D(length=3.0, n_points=7)
        assert grid.spacing == pytest.approx(0.5)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == pytest.approx(3.0)
        assert np.all(np.diff(grid.nodes) > 0)

    def test_weights_sum_to_length(self):
        grid = Grid1D(length=math.pi, n_points=57)
        assert grid.weights.sum() == pytest.approx(math.pi, abs=1e-14)

    def test_integrate_exact_for_linear(self):
        # trapezoid rule is exact on polynomials of degree one
        grid = Grid1D(length=2.0, n_points=11)
        values = 3.0 * grid.nodes + 1.0
        assert grid.integrate(values) == pytest.approx(8.0, abs=1e-13)

    def test_spatial_average_constant(self):
        grid = Grid1D(length=5.0, n_points=23)
        assert spatial_average(np.full(23, 4.2), grid) == pytest.approx(4.2)

    def test_rejects_bad_sizes(self):
        grid = Grid1D(length=1.0, n_points=5)
        with pytest.raises(ValueError):
            grid.integrate(np.ones(6))
        with pytest.raises(ValueError):
            Grid1D(length=0.0, n_points=5)
        with pytest.raises(ValueError):
            Grid1D(length=1.0, n_points=2)

    @pytest.mark.parametrize("length, message", [
        pytest.param(math.inf, "length must be positive and finite", id="inf"),
        pytest.param(math.nan, "length must be positive and finite", id="nan"),
        # spacing**2 overflows, or underflows to zero
        pytest.param(1e200, r"1/spacing\^2 is not finite", id="1e+200"),
        pytest.param(1e-200, r"1/spacing\^2 is not finite", id="1e-200"),
    ])
    def test_rejects_nonfinite_length(self, length, message):
        with pytest.raises(ValueError, match=message):
            Grid1D(length=length, n_points=5)

    def test_arrays_frozen(self):
        grid = Grid1D(length=1.0, n_points=5)
        with pytest.raises(ValueError):
            grid.nodes[0] = 1.0

    def test_laplacian_built_once_and_frozen(self):
        grid = Grid1D(length=3.0, n_points=7)
        assert grid.laplacian is grid.laplacian
        assert grid.laplacian.main[0] == -2.0 / grid.spacing**2
        for diagonal in (grid.laplacian.main, grid.laplacian.upper,
                         grid.laplacian.lower):
            with pytest.raises(ValueError):
                diagonal[0] = 1.0

    def test_grids_compare_and_hash_by_value(self):
        # the derived arrays do not take part: two builds of one grid are
        # equal, usable as dictionary keys, and other sizes differ
        grid = Grid1D(3.0, 5)
        assert grid == Grid1D(length=3.0, n_points=5)
        assert hash(grid) == hash(Grid1D(3.0, 5))
        assert {grid: "a"}[Grid1D(3.0, 5)] == "a"
        assert grid != Grid1D(3.0, 6)
        assert grid != Grid1D(3.5, 5)
        assert len({grid, Grid1D(3.0, 5), Grid1D(3.0, 6)}) == 2

    @pytest.mark.parametrize("length", [1e-150, 0.7, 3.0, math.pi, 1e150])
    @pytest.mark.parametrize("n", [3, 301, 4801])
    def test_symmetrizer_is_weights_over_spacing(self, length, n):
        # weighted_factor and the stepper take W from the size alone
        grid = Grid1D(length=length, n_points=n)
        assert np.array_equal(grid.laplacian.symmetrizer,
                              grid.weights / grid.spacing)


class TestNonlinearity:
    def test_values_at_zero_and_one(self):
        assert eval_nonlinearity(0.0) == 0.0
        assert eval_nonlinearity(1.0) == pytest.approx(math.exp(-1.0))
        assert eval_nonlinearity(1.0, order=1) == pytest.approx(0.0, abs=1e-16)
        assert eval_nonlinearity(2.0, order=2) == pytest.approx(0.0, abs=1e-16)
        assert eval_nonlinearity(3.0, order=3) == pytest.approx(0.0, abs=1e-16)

    @given(st.floats(min_value=-2.0, max_value=8.0))
    @settings(max_examples=60, deadline=None)
    def test_derivatives_match_finite_differences(self, u):
        # central differences converge at O(step^2); check each order
        step = 1e-5
        for order in (1, 2, 3):
            fd = (
                eval_nonlinearity(u + step, order=order - 1)
                - eval_nonlinearity(u - step, order=order - 1)
            ) / (2.0 * step)
            exact = eval_nonlinearity(u, order=order)
            assert fd == pytest.approx(exact, abs=5e-9 * max(1.0, abs(exact)))

    def test_fd_error_scales_quadratically(self):
        u = 1.3
        errors = []
        for step in (1e-3, 5e-4, 2.5e-4):
            fd = (
                eval_nonlinearity(u + step) - eval_nonlinearity(u - step)
            ) / (2.0 * step)
            errors.append(abs(fd - eval_nonlinearity(u, order=1)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.05)

    def test_vector_input(self):
        u = np.array([0.0, 1.0, 2.0])
        out = eval_nonlinearity(u, order=1)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.0)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            eval_nonlinearity(1.0, order=4)


class TestCoefficientValues:
    def test_parse_sinusoid(self):
        grid = Grid1D(length=3.0, n_points=31)
        values = coefficient_values("10 + 1*sin(1*x + 0)", grid)
        assert values[0] == pytest.approx(10.0)
        assert values.max() <= 11.0

    def test_parse_cosine_and_scalar(self):
        grid = Grid1D(length=3.0, n_points=31)
        assert coefficient_values("2 + 1*cos(0.2*x + 0)", grid)[0] == pytest.approx(3.0)
        assert np.all(coefficient_values("4.25", grid) == 4.25)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="coefficient"):
            coefficient_values("10 * tan(x)", Grid1D(length=1.0, n_points=5))

    def test_from_samples_roundtrip(self):
        grid = Grid1D(length=1.0, n_points=9)
        values = 1.0 + grid.nodes**2
        assert np.allclose(coefficient_values(values, grid), values)

    def test_csv_roundtrip(self, tmp_path):
        grid = Grid1D(length=1.0, n_points=9)
        values = 2.0 + np.sin(grid.nodes)
        path = tmp_path / "coef.csv"
        lines = ["x,value"] + [
            f"{x:.12g},{v:.12g}" for x, v in zip(grid.nodes, values)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert np.allclose(read_coefficient_csv(path, grid), values, atol=1e-12)

    def test_csv_rejects_wrong_nodes(self, tmp_path):
        grid = Grid1D(length=1.0, n_points=5)
        path = tmp_path / "coef.csv"
        path.write_text("x,value\n0,1\n0.3,1\n0.5,1\n0.75,1\n1,1\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="nodes"):
            read_coefficient_csv(path, grid)

    @pytest.mark.parametrize("text, wave, phase", [
        ("2 + 0.5*sin(1.5*x - 0.25)", np.sin, -0.25),
        ("2 + 0.5*cos(1.5*x + 0.25)", np.cos, 0.25),
    ])
    def test_phase_sign_and_cos_are_bit_exact(self, text, wave, phase):
        grid = Grid1D(length=3.0, n_points=31)
        expected = 2.0 + 0.5 * wave(1.5 * grid.nodes + phase)
        assert np.array_equal(coefficient_values(text, grid), expected)

    @pytest.mark.parametrize("size", [20, 22])
    def test_nodal_values_of_the_wrong_size_are_refused(self, size):
        grid = Grid1D(length=2.0, n_points=21)
        with pytest.raises(ValueError, match=rf"\({size},\).*\b21 nodes"):
            coefficient_values(np.ones(size), grid)

    def test_build_coefficients_leaves_the_callers_array_alone(self):
        grid = Grid1D(length=2.0, n_points=21)
        samples = 1.0 + grid.nodes
        coeffs = build_coefficients(samples, 1.0, grid)
        assert not coeffs.p.flags.writeable
        assert samples.flags.writeable
        assert not np.shares_memory(coeffs.p, samples)
        samples[0] = 5.0
        assert coeffs.p[0] == 1.0


class TestBuildCoefficients:
    def test_fig1_c0_matches_reference(self, grid301):
        model = figure_model("fig1", grid301, r=10.0)
        assert model.coeffs.c0 == pytest.approx(1.2880, abs=1e-3)

    def test_fig2_c0_matches_reference(self, grid301):
        model = figure_model("fig2", grid301, r=10.0)
        assert model.coeffs.c0 == pytest.approx(2.3443, abs=1e-3)

    def test_c0_exact_for_constants(self):
        grid = Grid1D(length=2.0, n_points=21)
        coeffs = build_coefficients(math.e**2, 1.0, grid)
        assert coeffs.c0 == pytest.approx(2.0, abs=1e-14)

    def test_rejects_nonpositive(self):
        grid = Grid1D(length=2.0, n_points=21)
        samples = np.ones(21)
        samples[10] = 0.0
        with pytest.raises(ValueError, match="positive"):
            build_coefficients(samples, 1.0, grid)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        grid = Grid1D(length=2.0, n_points=21)
        samples = np.ones(21)
        samples[10] = bad
        with pytest.raises(ValueError, match="coefficient delta must be finite"):
            build_coefficients(1.0, samples, grid)

    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_c0_is_log_ratio(self, p_bar, delta_bar):
        grid = Grid1D(length=1.0, n_points=11)
        coeffs = build_coefficients(p_bar, delta_bar, grid)
        assert coeffs.c0 == pytest.approx(math.log(p_bar / delta_bar),
                                          abs=1e-12)


class TestModelParams:
    def test_unit_coherence(self, grid301):
        model = figure_model("fig2", grid301, r=0.25, tau=8.0)
        assert model.d * model.r == pytest.approx(1.0, abs=1e-15)
        assert model.tau_hat == pytest.approx(model.r * model.tau, abs=1e-15)

    def test_with_r(self, fig2_model):
        other = fig2_model.with_r(0.5, tau=1.0)
        assert other.r == 0.5
        assert other.tau == 1.0
        assert other.coeffs is fig2_model.coeffs

    def test_validation(self, grid301, fig2_model):
        with pytest.raises(ValueError):
            ModelParams(r=-1.0, a=1.0, tau=0.0, grid=grid301,
                        coeffs=fig2_model.coeffs)
        with pytest.raises(ValueError):
            ModelParams(r=1.0, a=0.0, tau=0.0, grid=grid301,
                        coeffs=fig2_model.coeffs)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_rejects_nonfinite_a(self, grid301, fig2_model, a):
        with pytest.raises(ValueError, match="a must be positive and finite"):
            ModelParams(r=1.0, a=a, tau=0.0, grid=grid301,
                        coeffs=fig2_model.coeffs)

    @pytest.mark.parametrize("key", ["r", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_r_and_tau(self, fig2_model, key, value):
        # a NaN r would otherwise reach the steady Newton and stall there
        changes = {"r": value} if key == "r" else {"r": 1.0, "tau": value}
        with pytest.raises(ValueError,
                           match=f"^{key} must be nonnegative and finite"):
            fig2_model.with_r(**changes)

    def test_zero_r_and_tau_are_accepted(self, fig2_model):
        model = fig2_model.with_r(0.0, tau=0.0)
        assert (model.r, model.tau, model.d) == (0.0, 0.0, math.inf)

    @pytest.mark.parametrize("harmonic", [0, 1, 2])
    def test_coupling_is_the_dense_operators_diagonal(self, fig2_branch,
                                                      harmonic):
        # M(mu, tau_0) = L + r coupling(u, e^{-mu tau_0}, mu / r) at the
        # three shifts that the solvers factor: mu = 0, i nu and 2 i nu
        sol = fig2_branch[1e-2]
        model, u, r = sol.model, sol.u, sol.r
        mu, tau_0 = harmonic * 1j * sol.nu, sol.tau_n(0)
        laplacian = model.grid.laplacian
        delay = np.exp(-mu * tau_0)
        diagonal = laplacian.main + r * model.coupling(u, delay, mu / r)
        dense = np.diag(characteristic_matrix(model, u, mu, tau_0))
        terms = (np.abs(laplacian.main) + abs(mu) + r * model.coeffs.delta
                 + r * model.coeffs.p * np.abs(eval_nonlinearity(u, order=1)))
        assert np.all(np.abs(diagonal - dense) <= 4 * np.finfo(float).eps * terms)

    def test_steady_coupling_is_the_jacobian_bit_for_bit(self, fig2_branch):
        sol = fig2_branch[1e-2]
        coeffs, u, r = sol.model.coeffs, sol.u, sol.r
        slope = coeffs.p * eval_nonlinearity(u, order=1) - coeffs.delta
        np.testing.assert_array_equal(r * sol.model.coupling(u, 1.0, 0.0),
                                      r * slope)
