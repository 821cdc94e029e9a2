"""Discrete Laplacian and positive steady states.

The steady-state problem for the normalized model is

    Laplace(u) + r * (p(x) f(u) - delta(x) u) = 0,   u > 0,

with no-flux (Neumann) boundaries.  The Laplacian is discretized with
second-order central differences; the boundary rows use mirrored ghost
nodes, which keeps the matrix exactly singular on constants (row sums zero)
and self-adjoint with respect to the trapezoid quadrature weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import spsolve

from .grid import Grid1D
from .model import ModelParams, eval_nonlinearity
from .table import write_table


class NewtonConvergenceError(RuntimeError):
    """Newton iteration failed to reach the requested residual."""

    def __init__(self, message: str, last_residual: float, iterations: int):
        super().__init__(message)
        self.last_residual = last_residual
        self.iterations = iterations


@dataclass(frozen=True)
class DiscreteLaplacian:
    """Tridiagonal Neumann Laplacian on a uniform grid.

    ``main``, ``upper`` and ``lower`` are the three diagonals.  ``apply``
    works for real and complex nodal fields; ``sparse`` gives the shifted
    matrix that the steady and Hopf solvers factor.
    ``toarray`` densifies; it serves only ``characteristic_matrix`` and the
    tests.
    """

    grid: Grid1D
    main: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values)
        out = self.main * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.lower * v[:-1]
        return out

    def toarray(self) -> np.ndarray:
        n = self.grid.n_points
        dense = np.zeros((n, n))
        idx = np.arange(n)
        dense[idx, idx] = self.main
        dense[idx[:-1], idx[:-1] + 1] = self.upper
        dense[idx[1:], idx[1:] - 1] = self.lower
        return dense

    def sparse(self, diagonal_shift: np.ndarray | float = 0.0) -> csc_matrix:
        """Laplacian + diag(shift) as a sparse CSC matrix."""
        return diags(
            [self.lower, self.main + diagonal_shift, self.upper],
            offsets=[-1, 0, 1], format="csc",
        )


def assemble_laplacian(grid: Grid1D) -> DiscreteLaplacian:
    """Second-order Neumann Laplacian with mirrored ghost nodes.

    Interior rows are the standard (1, -2, 1)/h^2 stencil.  At each boundary
    the ghost node is mirrored (u[-1] = u[1]), giving the row (−2, 2)/h^2,
    so constants are annihilated exactly and the matrix is symmetric under
    the trapezoid weights.
    """
    n = grid.n_points
    inv_h2 = 1.0 / grid.spacing**2
    main = np.full(n, -2.0 * inv_h2)
    upper = np.full(n - 1, inv_h2)
    lower = np.full(n - 1, inv_h2)
    upper[0] = 2.0 * inv_h2
    lower[-1] = 2.0 * inv_h2
    return DiscreteLaplacian(grid=grid, main=main, upper=upper, lower=lower)


@dataclass(frozen=True)
class NewtonOptions:
    """Knobs for the damped Newton iteration.

    tol is an absolute bound on the sup norm of the residual.  Note the
    attainable floor scales like eps / h^2: on very fine grids the Laplacian
    evaluation itself carries that much roundoff, so pass a looser tol there.
    """

    tol: float = 1e-10
    max_iter: int = 50


@dataclass(frozen=True)
class SteadyState:
    """Converged positive steady state of the normalized model."""

    u: np.ndarray
    r: float
    residual_norm: float
    newton_iterations: int


def steady_residual(
    u: np.ndarray, model: ModelParams, laplacian: DiscreteLaplacian | None = None
) -> np.ndarray:
    """Nodewise residual Laplace(u) + r (p f(u) - delta u)."""
    if laplacian is None:
        laplacian = assemble_laplacian(model.grid)
    u = np.asarray(u, dtype=float)
    if u.size != model.grid.n_points:
        raise ValueError("field and grid sizes disagree")
    reaction = model.coeffs.p * eval_nonlinearity(u) - model.coeffs.delta * u
    return laplacian.apply(u) + model.r * reaction


def solve_steady_state(
    model: ModelParams,
    opts: NewtonOptions | None = None,
    u0: np.ndarray | None = None,
    laplacian: DiscreteLaplacian | None = None,
) -> SteadyState:
    """Damped Newton solve for the positive steady state.

    Starts from the constant c0 unless ``u0`` is given.  Each step solves the
    tridiagonal Jacobian system directly; the step is backtracked until the
    iterate stays positive and the residual satisfies an Armijo-type decrease.

    Raises
    ------
    ValueError
        If r <= 0 or c0 <= 0 (no positive steady state to look for).
    NewtonConvergenceError
        If the residual cannot be pushed below ``opts.tol``.
    """
    if opts is None:
        opts = NewtonOptions()
    coeffs = model.coeffs
    if model.r <= 0:
        raise ValueError("solve_steady_state needs r > 0; at r = 0 the steady "
                         "state is the constant c0")
    if coeffs.c0 <= 0:
        raise ValueError(
            f"c0 = {coeffs.c0:.6g} <= 0: mean birth does not exceed mean death, "
            "no positive steady state exists"
        )
    if laplacian is None:
        laplacian = assemble_laplacian(model.grid)

    u = np.full(model.grid.n_points, coeffs.c0) if u0 is None else np.array(u0, dtype=float)
    if not np.all(u > 0):
        raise ValueError("initial guess must be strictly positive")

    residual = steady_residual(u, model, laplacian)
    res_norm = float(np.abs(residual).max())
    for iteration in range(1, opts.max_iter + 1):
        if res_norm <= opts.tol:
            return SteadyState(
                u=u, r=model.r, residual_norm=res_norm, newton_iterations=iteration - 1
            )
        slope = coeffs.p * eval_nonlinearity(u, order=1) - coeffs.delta
        step = spsolve(laplacian.sparse(model.r * slope), -residual)

        lam = 1.0
        accepted = False
        for _ in range(60):
            u_try = u + lam * step
            if np.all(u_try > 0):
                res_try = steady_residual(u_try, model, laplacian)
                norm_try = float(np.abs(res_try).max())
                # Plain Armijo on the residual norm; accept outright once
                # below tol so roundoff near the floor cannot stall us.
                if norm_try <= opts.tol or norm_try <= (1.0 - 1e-4 * lam) * res_norm:
                    u, residual, res_norm = u_try, res_try, norm_try
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            raise NewtonConvergenceError(
                f"line search stalled at residual {res_norm:.3e} "
                f"(iteration {iteration}, r = {model.r:.6g})",
                last_residual=res_norm,
                iterations=iteration,
            )
    if res_norm <= opts.tol:
        return SteadyState(
            u=u, r=model.r, residual_norm=res_norm, newton_iterations=opts.max_iter
        )
    raise NewtonConvergenceError(
        f"no convergence in {opts.max_iter} iterations; residual {res_norm:.3e} "
        f"(tol {opts.tol:.1e}, r = {model.r:.6g})",
        last_residual=res_norm,
        iterations=opts.max_iter,
    )


def write_steady_csv(path, grid: Grid1D, steady: SteadyState) -> None:
    """Dump the steady state as a two-column CSV ``x,u``."""
    write_table(path, "x,u", [grid.nodes, steady.u])
