"""Discrete Laplacian and positive steady states.

The steady-state problem for the normalized model is

    Laplace(u) + r * (p(x) f(u) - delta(x) u) = 0,   u > 0,

with no-flux (Neumann) boundaries.  The Laplacian is discretized with
second-order central differences; the boundary rows use mirrored ghost
nodes, which keeps the matrix exactly singular on constants (row sums zero)
and self-adjoint with respect to the trapezoid quadrature weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

from .grid import Grid1D
from .model import ModelParams, eval_nonlinearity
from .table import write_table

_MAX_ITERATIONS = 50  # Newton steps before solve_steady_state gives up
_EPS = float(np.finfo(float).eps)


class NewtonConvergenceError(RuntimeError):
    """Newton iteration failed to bring its residual to the roundoff floor."""

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


def _roundoff_floor(u: np.ndarray, model: ModelParams,
                    laplacian: DiscreteLaplacian) -> float:
    """Sup-norm residual that roundoff alone can leave at ``u``.

    4 eps times the largest sum of the magnitudes that the residual adds
    up before they cancel: 2|diag L| u for the Laplacian row and
    r (p f(u) + delta u) for the reaction.
    """
    reaction = model.coeffs.p * eval_nonlinearity(u) + model.coeffs.delta * u
    scale = 2.0 * np.abs(laplacian.main) * u + model.r * reaction
    return 4.0 * _EPS * float(scale.max())


def solve_steady_state(
    model: ModelParams,
    u0: np.ndarray | None = None,
    laplacian: DiscreteLaplacian | None = None,
) -> SteadyState:
    """Damped Newton solve for the positive steady state.

    Starts from the constant c0 unless ``u0`` is given.  Each step solves the
    tridiagonal Jacobian system directly; the step is backtracked until the
    iterate stays positive and the residual satisfies an Armijo-type decrease.

    There is no tolerance to set.  The iteration stops once the residual is
    below its roundoff floor (see :func:`_roundoff_floor`) and a full Newton
    step, taken if it stays at the floor, no longer halves it; so every grid
    converges with the defaults.  A residual at the floor can still carry a
    smooth part, invisible in the max norm, that the next step removes and
    that the constant mode, damped only like r, would amplify into u.

    When c0 is small next to the heterogeneity, the positive solution can
    exceed twice c0 and Newton from c0 slides to the zero solution.  If two
    steps in a row halve max(u) above the floor, or the start fails otherwise,
    the solve restarts from the supersolution M = max log(p / delta).  For
    M <= 2, f is concave on [0, M] and Newton from M descends monotonically.
    ``newton_iterations`` then counts the steps of both attempts.

    Raises
    ------
    ValueError
        If r <= 0 or c0 <= 0 (no positive steady state to look for).
    NewtonConvergenceError
        If the residual does not reach its floor within ``_MAX_ITERATIONS``
        steps, or above the floor the Jacobian is singular or the line
        search cannot reduce it.
    """
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
    if u0 is not None:
        u = np.array(u0, dtype=float)
        if not np.all(u > 0):
            raise ValueError("initial guess must be strictly positive")
        return _newton(model, u, laplacian)

    n = model.grid.n_points
    try:
        return _newton(model, np.full(n, coeffs.c0), laplacian, stop_sliding=True)
    except NewtonConvergenceError as from_c0:
        supersolution = float(np.log(np.max(coeffs.p / coeffs.delta)))
        if not supersolution > coeffs.c0:  # constant coefficients: same start
            raise
        steady = _newton(model, np.full(n, supersolution), laplacian)
        return replace(steady, newton_iterations=from_c0.iterations
                       + steady.newton_iterations)


def _newton(model: ModelParams, u: np.ndarray, laplacian: DiscreteLaplacian,
            stop_sliding: bool = False) -> SteadyState:
    """The damped Newton iteration of :func:`solve_steady_state` from ``u``."""
    coeffs = model.coeffs
    slides = 0
    residual = steady_residual(u, model, laplacian)
    res_norm = float(np.abs(residual).max())
    floor = _roundoff_floor(u, model, laplacian)

    def failure(reason: str, iterations: int) -> NewtonConvergenceError:
        return NewtonConvergenceError(
            f"{reason}; residual {res_norm:.3e}, {res_norm / floor:.3g} x its "
            f"roundoff floor (iteration {iterations}, r = {model.r:.6g})",
            last_residual=res_norm, iterations=iterations,
        )

    for iteration in range(1, _MAX_ITERATIONS + 1):
        slope = coeffs.p * eval_nonlinearity(u, order=1) - coeffs.delta
        try:
            step = splu(laplacian.sparse(model.r * slope)).solve(-residual)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            if res_norm > floor:
                raise failure(f"Jacobian: {exc}", iteration) from None
            step = np.zeros_like(u)  # no step to take, and none needed
        lam = 1.0
        for _ in range(60):
            u_try = u + lam * step
            if np.all(u_try > 0):
                res_try = steady_residual(u_try, model, laplacian)
                norm_try = float(np.abs(res_try).max())
                if norm_try <= max((1.0 - 1e-4 * lam) * res_norm, floor):
                    break
            if res_norm <= floor:
                return SteadyState(u=u, r=model.r, residual_norm=res_norm,
                                   newton_iterations=iteration - 1)
            lam *= 0.5
        else:
            raise failure("line search stalled", iteration)
        halved = lam == 1.0 and norm_try < 0.5 * res_norm
        slides = slides + 1 if u_try.max() <= 0.5 * u.max() else 0
        u, residual, res_norm = u_try, res_try, norm_try
        floor = _roundoff_floor(u, model, laplacian)
        if res_norm <= floor and not halved:
            return SteadyState(u=u, r=model.r, residual_norm=res_norm,
                               newton_iterations=iteration)
        if stop_sliding and slides >= 2 and res_norm > floor:
            raise failure("sliding to the zero solution", iteration)
    raise failure(f"no convergence in {_MAX_ITERATIONS} iterations", _MAX_ITERATIONS)


def write_steady_csv(path, grid: Grid1D, steady: SteadyState) -> None:
    """Dump the steady state as a two-column CSV ``x,u``."""
    write_table(path, "x,u", [grid.nodes, steady.u])
