"""Positive steady states.

The steady-state problem for the normalized model is

    Laplace(u) + r * (p(x) f(u) - delta(x) u) = 0,   u > 0,

with no-flux (Neumann) boundaries.  The Laplacian is the grid's own
(:attr:`~nicholson.grid.Grid1D.laplacian`): second-order central
differences with mirrored ghost nodes, exactly singular on constants and
self-adjoint with respect to the trapezoid quadrature weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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


class _SingularJacobian(NewtonConvergenceError):
    """The Newton matrix is singular above the floor.

    Where r is too small to pin the constant mode, every constant start
    passes the floor as it is, so a retry from one would return a wrong u.
    """


@dataclass(frozen=True)
class SteadyState:
    """Converged positive steady state of the normalized model."""

    u: np.ndarray
    residual_norm: float
    newton_iterations: int


def steady_residual(u: np.ndarray, model: ModelParams) -> np.ndarray:
    """Nodewise residual Laplace(u) + r (p f(u) - delta u)."""
    u = np.asarray(u, dtype=float)
    if u.size != model.grid.n_points:
        raise ValueError("field and grid sizes disagree")
    reaction = model.coeffs.p * eval_nonlinearity(u) - model.coeffs.delta * u
    return model.grid.laplacian.apply(u) + model.r * reaction


def _roundoff_floor(u: np.ndarray, model: ModelParams) -> float:
    """Sup-norm residual that roundoff alone can leave at ``u``.

    4 eps times the largest sum of the magnitudes that the residual adds
    up before they cancel: 2|diag L| u for the Laplacian row and
    r (p f(u) + delta u) for the reaction.
    """
    reaction = model.coeffs.p * eval_nonlinearity(u) + model.coeffs.delta * u
    scale = 2.0 * np.abs(model.grid.laplacian.main) * u + model.r * reaction
    return 4.0 * _EPS * float(scale.max())


def solve_steady_state(model: ModelParams) -> SteadyState:
    """Damped Newton solve for the positive steady state.

    Starts from the constant c0.  Each step solves the tridiagonal Jacobian
    system with one ``gttrf`` factor
    (:meth:`~nicholson.grid.DiscreteLaplacian.factor`); the step is backtracked until the
    iterate stays positive and the residual satisfies an Armijo-type decrease.

    There is no tolerance to set.  The iteration stops once the residual is
    below its roundoff floor (see :func:`_roundoff_floor`) and a full Newton
    step, taken if it stays at the floor, no longer halves it; so every grid
    converges with the defaults.  A residual at the floor can still carry a
    smooth part, invisible in the max norm, that the next step removes and
    that the constant mode, damped only like r, would amplify into u.

    When c0 is small next to the heterogeneity, the positive solution can
    exceed twice c0 and Newton from c0 slides to the zero solution.  If two
    steps in a row halve max(u) above the floor, or the start fails
    otherwise, the solve restarts from the supersolution
    M = max log(p / delta), bar a singular Jacobian (see
    :class:`_SingularJacobian`).  For M <= 2, f is concave on [0, M] and
    Newton from M descends monotonically.
    ``newton_iterations`` then counts the steps of both attempts.

    Raises
    ------
    ValueError
        If r <= 0 or c0 <= 0 (no positive steady state to look for).
    NewtonConvergenceError
        If the residual does not reach its floor within ``_MAX_ITERATIONS``
        steps, or above the floor the Jacobian has an exactly zero pivot or
        the line search cannot reduce it.
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
    n = model.grid.n_points
    try:
        return _newton(model, np.full(n, coeffs.c0))
    except _SingularJacobian:
        raise
    except NewtonConvergenceError as first:
        supersolution = float(np.log(np.max(coeffs.p / coeffs.delta)))
        steady = _newton(model, np.full(n, supersolution))
        return replace(steady, newton_iterations=first.iterations
                       + steady.newton_iterations)


def _newton(model: ModelParams, u: np.ndarray) -> SteadyState:
    """The damped Newton iteration of :func:`solve_steady_state` from ``u``."""
    slides = 0
    residual = steady_residual(u, model)
    res_norm = float(np.abs(residual).max())
    floor = _roundoff_floor(u, model)

    def failure(reason: str, iterations: int, kind: type = NewtonConvergenceError
                ) -> NewtonConvergenceError:
        return kind(
            f"{reason}; residual {res_norm:.3e}, {res_norm / floor:.3g} x its "
            f"roundoff floor (iteration {iterations}, r = {model.r:.6g})",
            last_residual=res_norm, iterations=iterations,
        )

    for iteration in range(1, _MAX_ITERATIONS + 1):
        try:
            step = model.grid.laplacian.factor(
                model.r * model.coupling(u, 1.0, 0.0))(-residual)[0]
        except np.linalg.LinAlgError as exc:
            if res_norm > floor:
                raise failure(f"Jacobian: {exc}", iteration,
                              _SingularJacobian) from None
            step = np.zeros_like(u)  # no step to take, and none needed
        lam = 1.0
        for _ in range(60):
            u_try = u + lam * step
            if np.all(u_try > 0):
                res_try = steady_residual(u_try, model)
                norm_try = float(np.abs(res_try).max())
                if norm_try <= max((1.0 - 1e-4 * lam) * res_norm, floor):
                    break
            if res_norm <= floor:
                return SteadyState(u=u, residual_norm=res_norm,
                                   newton_iterations=iteration - 1)
            lam *= 0.5
        else:
            raise failure("line search stalled", iteration)
        halved = lam == 1.0 and norm_try < 0.5 * res_norm
        slides = slides + 1 if u_try.max() <= 0.5 * u.max() else 0
        u, residual, res_norm = u_try, res_try, norm_try
        floor = _roundoff_floor(u, model)
        if res_norm <= floor and not halved:
            return SteadyState(u=u, residual_norm=res_norm,
                               newton_iterations=iteration)
        if slides >= 2 and res_norm > floor:
            raise failure("sliding to the zero solution", iteration)
    raise failure(f"no convergence in {_MAX_ITERATIONS} iterations", _MAX_ITERATIONS)


def write_steady_csv(path, grid: Grid1D, steady: SteadyState) -> None:
    """Dump the steady state as a two-column CSV ``x,u``."""
    write_table(path, "x,u", [grid.nodes, steady.u])
