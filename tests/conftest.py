"""Shared fixtures: built-in parameter sets and Hopf continuations.

The two coefficient families used throughout are the built-in sets
(length 3, a = 2.5, delta = 2 + cos(0.2 x), p = 10 + sin x or 30 + sin x).
Continuations are session-scoped because several test modules and the
acceptance suite compare against the same branches.  ``sparse_laplacian``
gives the reference solvers the shifted Laplacian as a SciPy matrix;
``dense_laplacian`` and ``characteristic_matrix`` give the dense oracles
the Laplacian and the delayed eigenvalue operator as NumPy arrays.
"""

import math

import numpy as np
import pytest
from scipy.sparse import csc_matrix, diags

from nicholson.grid import Grid1D
from nicholson.hopf import continue_hopf
from nicholson.model import ModelParams, build_coefficients, eval_nonlinearity

FIG1_P = "10 + 1*sin(1*x + 0)"
FIG2_P = "30 + 1*sin(1*x + 0)"
FIG_DELTA = "2 + 1*cos(0.2*x + 0)"
FIG_LENGTH = 3.0
FIG_A = 2.5


def figure_model(which: str, grid: Grid1D, r: float, tau: float = 0.0) -> ModelParams:
    p_text = FIG1_P if which == "fig1" else FIG2_P
    coeffs = build_coefficients(p_text, FIG_DELTA, grid)
    return ModelParams(r=r, a=FIG_A, tau=tau, grid=grid, coeffs=coeffs)


def sparse_laplacian(laplacian, shift=0.0) -> csc_matrix:
    """L + diag(shift) as a sparse CSC matrix, exact zeros left out."""
    return diags([laplacian.lower, laplacian.main + shift, laplacian.upper],
                 offsets=[-1, 0, 1], format="csc")


def dense_laplacian(laplacian) -> np.ndarray:
    """The tridiagonal Laplacian as a dense array."""
    return (np.diag(laplacian.main) + np.diag(laplacian.upper, 1)
            + np.diag(laplacian.lower, -1))


def characteristic_matrix(model: ModelParams, u, mu: complex,
                          tau: float) -> np.ndarray:
    """Dense matrix of the delayed eigenvalue operator at (mu, tau).

    Rows discretize  Laplace(psi) + r e^{-mu tau} p f'(u) psi
    - r delta psi - mu psi.
    """
    coeffs = model.coeffs
    shift = (model.r * np.exp(-mu * tau) * coeffs.p * eval_nonlinearity(u, order=1)
             - model.r * coeffs.delta - mu)
    return dense_laplacian(model.grid.laplacian) + np.diag(shift)


def constant_model(c0: float, grid: Grid1D, r: float,
                   delta_bar: float = 1.0) -> ModelParams:
    coeffs = build_coefficients(delta_bar * math.exp(c0), delta_bar, grid)
    return ModelParams(r=r, a=FIG_A, tau=0.0, grid=grid, coeffs=coeffs)


@pytest.fixture(scope="session")
def grid301():
    return Grid1D(length=FIG_LENGTH, n_points=301)


@pytest.fixture(scope="session")
def fig1_model(grid301):
    return figure_model("fig1", grid301, r=10.0)


@pytest.fixture(scope="session")
def fig2_model(grid301):
    return figure_model("fig2", grid301, r=1e-3)


@pytest.fixture(scope="session")
def fig2_branch(grid301):
    """Fig. 2 Hopf crossings at the three standard continuation targets."""
    model = figure_model("fig2", grid301, r=1.0)
    return {
        r: continue_hopf(model.with_r(r))
        for r in (1e-1, 1e-2, 1e-3)
    }
