"""Hopf bifurcation data: imaginary eigenvalue crossings and delay thresholds.

Linearizing the normalized model about its positive steady state u_r and
looking for a purely imaginary eigenvalue i*nu with eigenfunction psi leads,
after writing nu = r*omega, exp(-i nu tau) = exp(-i theta) and splitting
psi = beta*c0 + r*z into its mean and a mean-zero field z, to the system

    g1 = Laplace(z) + (exp(-i theta) p f'(u_r) - delta - i omega) (beta c0 + r z) = 0
    g2 = (beta^2 - 1) c0^2 |Omega| + r^2 ||z||^2 = 0,

with z of zero quadrature mean.  At r = 0 the system has the closed-form
solution computed by :func:`limit_hopf_data`; :func:`continue_hopf` follows
that solution to positive r by a predictor-corrector Newton continuation.
A solution yields the countable family of delay thresholds

    tau_n = (theta + 2 pi n) / nu,        n = 0, 1, 2, ...

at which eigenvalue pairs cross the imaginary axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import bmat, csc_matrix, diags
from scipy.sparse.linalg import splu

from .grid import Grid1D
from .model import CoefficientField, ModelParams, eval_nonlinearity
from .steady import (
    DiscreteLaplacian,
    NewtonConvergenceError,
    assemble_laplacian,
    solve_steady_state,
)
from .table import write_table

TWO_PI = 2.0 * math.pi
_CONTINUATION_STEP = 0.025  # largest step in r of continue_hopf
_MAX_ITERATIONS = 30  # Newton steps per continuation step
_EPS = float(np.finfo(float).eps)


class NoHopfError(ValueError):
    """The mean coefficients admit no delay-induced oscillation (c0 <= 2)."""


class SolvabilityError(ValueError):
    """Right-hand side is not orthogonal to constants within tolerance."""


class ContinuationStallError(RuntimeError):
    """Continuation could not advance past ``last_good_r``.

    ``first_failure`` is the text of the first step that failed from there,
    at the largest step size: usually the real cause.
    """

    def __init__(self, message: str, last_good_r: float,
                 first_failure: str | None = None):
        super().__init__(message)
        self.last_good_r = last_good_r
        self.first_failure = first_failure


class SimplicityWarning(UserWarning):
    """The nondegeneracy integral is close to zero; results are fragile."""


def limit_phase(c0: float) -> float:
    """Phase lag theta0 of the large-diffusion crossing, in (pi/2, pi).

    Solves cos(theta0) = 1/(1 - c0), sin(theta0) = -sqrt(c0^2 - 2 c0)/(1 - c0)
    for c0 > 2.
    """
    if c0 <= 0:
        raise NoHopfError(f"c0 = {c0:.6g} <= 0: no positive steady state, "
                          "Hopf analysis does not apply")
    if c0 <= 2.0:
        raise NoHopfError(f"c0 = {c0:.6g} <= 2: the steady state is stable for "
                          "every delay, no Hopf bifurcation exists")
    spread = math.sqrt(c0 * c0 - 2.0 * c0)
    return math.atan2(spread / (c0 - 1.0), -1.0 / (c0 - 1.0))


@dataclass(frozen=True)
class LimitHopfData:
    """Closed-form crossing data of the large-diffusion (r -> 0) limit.

    Attributes
    ----------
    theta : float
        Phase lag theta0 in (pi/2, pi).
    omega : float
        Frequency of the averaged dynamics, mean(delta)*sqrt(c0^2 - 2 c0).
    beta : float
        Mean amplitude of the eigenfunction; 1 in the limit.
    z : ndarray
        Mean-zero complex field solving
        Laplace(z) = -c0 f'(c0) p(x) e^{-i theta} + c0 delta(x) + i omega c0.
    """

    theta: float
    omega: float
    beta: float
    z: np.ndarray


@dataclass(frozen=True)
class HopfSolution:
    """One point on the branch of imaginary-axis eigenvalue crossings.

    Carries the model and steady state it was computed for, so threshold,
    nondegeneracy and normal-form evaluations need no extra context.

    ``psi = beta*c0 + r*z`` is the crossing eigenfunction and ``nu = r*omega``
    its frequency; both are stored explicitly.
    """

    model: ModelParams
    u: np.ndarray
    z: np.ndarray
    beta: float
    omega: float
    theta: float
    residual_norm: float
    nu: float = field(init=False)
    psi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", self.model.r * self.omega)
        psi = self.beta * self.model.coeffs.c0 + self.model.r * self.z
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)

    @property
    def r(self) -> float:
        return self.model.r


@dataclass(frozen=True)
class ThresholdSequence:
    """Delay thresholds tau_n = (theta + 2 pi n)/nu, n = 0..n_max.

    ``taus`` are in normalized time, ``taus_hat = r * taus`` in the time of
    the unnormalized model.  Consecutive entries differ by exactly 2 pi / nu.
    """

    taus: np.ndarray
    taus_hat: np.ndarray
    nu: float
    omega: float
    n_max: int


def solve_poisson_meanzero(
    rhs: np.ndarray,
    grid: Grid1D,
    laplacian: DiscreteLaplacian | None = None,
    scale: float | None = None,
) -> np.ndarray:
    """Solve Laplace(z) = rhs with Neumann boundaries and zero-mean z.

    The Neumann Laplacian is singular on constants; the problem is solvable
    exactly when the quadrature mean of ``rhs`` vanishes.  The mean is
    checked against the roundoff that a quadrature sum of n values of size
    ``scale`` can carry, n eps scale.  ``scale`` defaults to the rhs
    magnitude; callers whose rhs is a difference of large terms should pass
    the pre-cancellation magnitude so an all-roundoff rhs is accepted as
    zero.  The residual mean is projected out, and the system is solved in
    bordered form

        [A  1] [z     ]   [rhs]
        [w  0] [lambda] = [0  ]

    which is nonsingular; the bordered matrix is sparse-LU factored as a
    whole.

    Raises
    ------
    SolvabilityError
        If the quadrature mean of rhs exceeds its roundoff bound.
    """
    if laplacian is None:
        laplacian = assemble_laplacian(grid)
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.size != grid.n_points:
        raise ValueError("rhs and grid sizes disagree")
    if scale is None:
        scale = float(np.abs(rhs).max())
    if scale == 0.0:
        return np.zeros(grid.n_points, dtype=complex)
    mean = grid.integrate(rhs) / grid.length
    if abs(mean) > grid.n_points * _EPS * scale:
        raise SolvabilityError(
            f"rhs has quadrature mean {abs(mean):.3e} (relative "
            f"{abs(mean) / scale:.3e}); the Neumann problem is unsolvable"
        )
    solution = _bordered_solve(
        laplacian.sparse(),
        np.ones((grid.n_points, 1)),
        grid.weights[np.newaxis, :],
        np.zeros((1, 1)),
        np.append(rhs - mean, 0.0),
    )
    return solution[:-1]


def limit_hopf_data(coeffs: CoefficientField, grid: Grid1D) -> LimitHopfData:
    """Closed-form r -> 0 crossing data for c0 > 2.

    theta0 and omega0 depend only on c0 and mean(delta); the field z is the
    unique mean-zero solution of the limiting eigenfunction equation.

    Raises
    ------
    NoHopfError
        If c0 <= 2 (covers both the stable regime 0 < c0 <= 2 and the
        regime c0 <= 0 without positive steady states).
    """
    c0 = coeffs.c0
    theta = limit_phase(c0)
    omega = coeffs.delta_bar * math.sqrt(c0 * c0 - 2.0 * c0)
    fprime = eval_nonlinearity(c0, order=1)
    rhs = -c0 * (
        np.exp(-1j * theta) * coeffs.p * fprime
        - coeffs.delta
        - 1j * omega
    )
    # The rhs is a difference of O(c0 * delta_bar) terms; for constant
    # coefficients it cancels to pure roundoff, which must count as zero.
    scale = c0 * float(
        np.abs(coeffs.p * fprime).max() + np.abs(coeffs.delta).max() + omega
    )
    z = solve_poisson_meanzero(rhs, grid, scale=scale)
    z.flags.writeable = False
    return LimitHopfData(theta=theta, omega=omega, beta=1.0, z=z)


def _delay_shift(model: ModelParams, u: np.ndarray, mu: complex, tau: float):
    """Diagonal r e^{-mu tau} p f'(u) - r delta - mu of the eigenvalue operator."""
    coeffs = model.coeffs
    return (model.r * np.exp(-mu * tau) * coeffs.p * eval_nonlinearity(u, order=1)
            - model.r * coeffs.delta - mu)


def characteristic_matrix(
    model: ModelParams,
    u: np.ndarray,
    mu: complex,
    tau: float,
    laplacian: DiscreteLaplacian | None = None,
) -> np.ndarray:
    """Dense matrix of the delayed eigenvalue operator at (mu, tau).

    Rows discretize  Laplace(psi) + r e^{-mu tau} p f'(u) psi
    - r delta psi - mu psi.
    """
    if laplacian is None:
        laplacian = assemble_laplacian(model.grid)
    dense = laplacian.toarray().astype(complex)
    dense[np.diag_indices_from(dense)] += _delay_shift(model, u, mu, tau)
    return dense


def characteristic_residual(
    mu: complex,
    tau: float,
    psi: np.ndarray,
    model: ModelParams,
    u: np.ndarray,
    laplacian: DiscreteLaplacian | None = None,
) -> np.ndarray:
    """Nodewise value of the eigenvalue operator applied to psi.

    Zero exactly when (mu, psi) is an eigenpair of the linearization about
    the steady state u at delay tau.  Linear in psi.
    """
    if laplacian is None:
        laplacian = assemble_laplacian(model.grid)
    psi = np.asarray(psi, dtype=complex)
    return laplacian.apply(psi) + _delay_shift(model, u, mu, tau) * psi


class _HopfNewtonFailure(RuntimeError):
    pass


def _bordered_solve(core, cols, rows, corner, rhs):
    """Solve [[core, cols], [rows, corner]] x = rhs by one sparse LU.

    ``core`` is a real sparse square matrix, ``cols``, ``rows`` and
    ``corner`` the dense real border blocks.  The whole bordered matrix is
    factored: the core may itself be singular (the Hopf z-block is, at the
    solution), so it is never eliminated on its own.  A complex ``rhs`` is
    solved as two real columns.
    """
    matrix = bmat(
        [[core, csc_matrix(cols)], [csc_matrix(rows), csc_matrix(corner)]],
        format="csc",
    )
    try:
        lu = splu(matrix)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise _HopfNewtonFailure(str(exc)) from None
    if np.iscomplexobj(rhs):
        solution = lu.solve(np.column_stack([rhs.real, rhs.imag]))
        return solution[:, 0] + 1j * solution[:, 1]
    return lu.solve(rhs)


def _hopf_residual(state, model, u, laplacian):
    """Stacked real residual (g1, g2, mean), its norm, floor ratio, coupling, psi.

    The norm is max(|g1|, |g2|, |mean|).  The floor ratio is the largest
    ratio of a block to eps times the terms it sums, before they cancel:
    |L||z| + (p|f'(u)| + delta + |omega|)|psi| for g1, (beta^2 + 1) c0^2
    |Omega| + r^2 ||z||^2 for g2 and int|psi| / r for the mean pins (the
    size of int z read off psi = beta c0 + r z).  Each is nonzero at the
    solution, even for constant coefficients, where z vanishes.
    """
    z, beta, omega, theta = state
    coeffs = model.coeffs
    c0 = coeffs.c0
    fprime = eval_nonlinearity(u, order=1)
    coupling = np.exp(-1j * theta) * coeffs.p * fprime - coeffs.delta - 1j * omega
    psi = beta * c0 + model.r * z
    g1 = laplacian.apply(z) + coupling * psi
    weights = model.grid.weights
    norm_sq = float(weights @ (z.real**2 + z.imag**2))
    g2 = (beta * beta - 1.0) * c0 * c0 * model.grid.length + model.r**2 * norm_sq
    mean = weights @ z
    residual = np.concatenate([g1.real, g1.imag, [g2, mean.real, mean.imag]])
    res_norm = max(float(np.abs(g1).max()), abs(g2), abs(mean))
    abs_z, abs_psi = np.abs(z), np.abs(psi)
    # |L||z| = L|z| - 2 diag(L)|z|: the diagonal is negative, the rest not
    g1_size = (laplacian.apply(abs_z) - 2.0 * laplacian.main * abs_z
               + (coeffs.p * np.abs(fprime) + coeffs.delta + abs(omega)) * abs_psi)
    g2_size = (beta * beta + 1.0) * c0 * c0 * model.grid.length + model.r**2 * norm_sq
    ratio = max(float((np.abs(g1) / g1_size).max()), abs(g2) / g2_size,
                model.r * abs(mean) / float(weights @ abs_psi)) / _EPS
    return residual, res_norm, ratio, coupling, psi


def _hopf_newton(state, model: ModelParams, u: np.ndarray,
                 laplacian: DiscreteLaplacian):
    """Newton correction of (z, beta, omega, theta) at fixed r.

    Solves the real bordered system: 2n rows for g1, one for the
    normalization g2 and two pinning the quadrature mean of z to zero.  Its
    core is the sparse 2n x 2n z-block; the bordered matrix is sparse-LU
    factored as a whole by :func:`_bordered_solve`.

    No tolerance is set: the iteration stops when every residual block is
    below 2 eps times the magnitudes it is built from (the floor ratio of
    :func:`_hopf_residual`), or below 100 eps once a step no longer halves
    that ratio.  It fails after ``_MAX_ITERATIONS`` steps or on divergence.
    """
    z, beta, omega, theta = state
    z = np.array(z, dtype=complex)
    n = model.grid.n_points
    weights = model.grid.weights
    coeffs = model.coeffs
    c0 = coeffs.c0
    fprime = eval_nonlinearity(u, order=1)
    best = math.inf
    previous = math.inf
    for iteration in range(_MAX_ITERATIONS + 1):
        state = (z, beta, omega, theta)
        residual, res_norm, ratio, coupling, psi = _hopf_residual(
            state, model, u, laplacian
        )
        if ratio <= 2.0 or 0.5 * previous < ratio <= 100.0:
            return state, res_norm
        if iteration == _MAX_ITERATIONS:
            raise _HopfNewtonFailure(
                f"no convergence in {_MAX_ITERATIONS} iterations, residual "
                f"{res_norm:.3e} ({ratio / 2.0:.3g} x its roundoff floor)"
            )
        if res_norm > 1e4 * max(best, 1.0):
            raise _HopfNewtonFailure(f"diverging, residual {res_norm:.3e}")
        best = min(best, res_norm)
        previous = ratio

        block = laplacian.sparse(model.r * coupling.real)
        im_c = diags(model.r * coupling.imag)
        core = bmat([[block, -im_c], [im_c, block]])
        # columns d/d(beta, omega, theta) of g1, split into real and imag
        cols = np.column_stack([
            coupling * c0,
            -1j * psi,
            -1j * np.exp(-1j * theta) * coeffs.p * fprime * psi,
        ])
        rows = np.zeros((3, 2 * n))
        rows[0, :n] = 2.0 * model.r**2 * weights * z.real
        rows[0, n:] = 2.0 * model.r**2 * weights * z.imag
        rows[1, :n] = weights
        rows[2, n:] = weights
        corner = np.zeros((3, 3))
        corner[0, 0] = 2.0 * beta * c0 * c0 * model.grid.length
        delta = _bordered_solve(
            core, np.vstack([cols.real, cols.imag]), rows, corner, -residual
        )
        z = z + delta[:n] + 1j * delta[n : 2 * n]
        beta += delta[2 * n]
        omega += delta[2 * n + 1]
        theta += delta[2 * n + 2]


def continue_hopf(
    model: ModelParams,
    r_target: float,
    r_cap: float = 0.5,
) -> HopfSolution:
    """Follow the imaginary-axis crossing from r = 0 to ``r_target``.

    Predictor-corrector continuation in max(1, ceil(r_target / 0.025))
    equal steps: at each step the steady state is re-solved (warm started)
    and the crossing system is Newton-corrected from the previous solution.
    Failed steps are halved; the step recovers geometrically after success.
    ``r_target = 0`` returns the closed-form limit packaged as a
    :class:`HopfSolution`.

    Parameters
    ----------
    model : ModelParams
        Supplies grid, coefficients and a; its own r is ignored.
    r_target : float
        Destination, 0 <= r_target <= r_cap.
    r_cap : float
        Guard rail for the validated small-r regime.  Raise it explicitly
        to explore further; expect stalls once eigenvalue crossings lose
        simplicity.

    Raises
    ------
    NoHopfError
        If c0 <= 2.
    ContinuationStallError
        If step halving cannot advance; carries ``last_good_r`` and ``first_failure``.
    """
    coeffs = model.coeffs
    grid = model.grid
    if r_target < 0:
        raise ValueError(f"r_target must be nonnegative, got {r_target}")
    if r_target > r_cap:
        raise ValueError(
            f"r_target = {r_target:.6g} exceeds the working cap r_cap = {r_cap:.6g}; "
            "pass a larger r_cap explicitly to go beyond the validated regime"
        )
    limit = limit_hopf_data(coeffs, grid)
    laplacian = assemble_laplacian(grid)
    state = (np.array(limit.z, dtype=complex), limit.beta, limit.omega, limit.theta)
    u_prev = np.full(grid.n_points, coeffs.c0)

    base_step = r_target / max(1, math.ceil(r_target / _CONTINUATION_STEP))
    step = base_step
    r_current = 0.0
    failures = 0
    first_failure = None
    while r_current < r_target * (1.0 - 1e-15):
        r_next = min(r_current + step, r_target)
        model_next = model.with_r(r_next)
        try:
            steady = solve_steady_state(model_next, u0=u_prev, laplacian=laplacian)
            state_next, res_norm = _hopf_newton(
                state, model_next, steady.u, laplacian
            )
        except (NewtonConvergenceError, _HopfNewtonFailure) as exc:
            failures += 1
            step *= 0.5
            failure = f"at r = {r_next:.6g}: {exc}"
            first_failure = first_failure or failure
            if failures > 40 or step < 1e-13 * r_target:
                raise ContinuationStallError(
                    f"continuation stalled at r = {r_current:.6g} "
                    f"targeting {r_target:.6g}; first failure {first_failure}; "
                    f"last failure {failure}",
                    last_good_r=r_current,
                    first_failure=first_failure,
                ) from None
            continue
        first_failure = None
        r_current = r_next
        state = state_next
        u_prev = steady.u
        step = min(2.0 * step, base_step)

    z, beta, omega, theta = state
    if beta < 0:
        beta, z = -beta, -z
    theta = theta % TWO_PI
    model_final = model.with_r(r_target)
    res = _hopf_residual((z, beta, omega, theta), model_final, u_prev, laplacian)[1]
    return HopfSolution(
        model=model_final,
        u=u_prev,
        z=z,
        beta=beta,
        omega=omega,
        theta=theta,
        residual_norm=res,
    )


def hopf_thresholds(sol: HopfSolution, n_max: int = 3) -> ThresholdSequence:
    """Delay thresholds tau_n = (theta + 2 pi n)/nu for n = 0..n_max.

    Also reports the unnormalized thresholds tau_hat_n = r * tau_n, which
    stay finite in the r -> 0 limit.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if sol.r <= 0:
        raise ValueError(
            "thresholds in normalized time are undefined at r = 0; "
            "only tau_hat = theta/omega survives the limit"
        )
    indices = np.arange(n_max + 1)
    taus_hat = (sol.theta + TWO_PI * indices) / sol.omega
    taus = taus_hat / sol.r
    return ThresholdSequence(
        taus=taus, taus_hat=taus_hat, nu=sol.nu, omega=sol.omega, n_max=n_max
    )


def nondegeneracy_integral(sol: HopfSolution, n: int = 0) -> complex:
    """Pairing integral certifying simplicity of the crossing eigenvalue.

    S_n = int(psi^2) + tau_hat_n e^{-i theta} int(p f'(u_r) psi^2); it
    normalizes the adjoint pairing in the normal-form computation and must
    stay away from zero for the crossing to be simple.  Emits a
    :class:`SimplicityWarning` when |S_n| < 1e-8 * c0^2 * |Omega|.
    """
    grid = sol.model.grid
    coeffs = sol.model.coeffs
    tau_hat_n = (sol.theta + TWO_PI * n) / sol.omega
    psi_sq = sol.psi * sol.psi
    weighted = grid.weights @ psi_sq
    delayed = grid.weights @ (coeffs.p * eval_nonlinearity(sol.u, order=1) * psi_sq)
    value = weighted + tau_hat_n * np.exp(-1j * sol.theta) * delayed
    scale = coeffs.c0**2 * grid.length
    if abs(value) < 1e-8 * scale:
        warnings.warn(
            f"nondegeneracy integral nearly vanishes (|S_{n}| = {abs(value):.3e}); "
            "the crossing eigenvalue may not be simple",
            SimplicityWarning,
            stacklevel=2,
        )
    return complex(value)


def limit_nondegeneracy_integral(c0: float, volume: float, n: int = 0) -> complex:
    """r -> 0 limit of the nondegeneracy integral.

    Equals (1 + Theta_n/s + i Theta_n) c0^2 |Omega| with s = sqrt(c0^2-2c0)
    and Theta_n = theta0 + 2 pi n; independent of the coefficient profiles
    beyond c0.
    """
    theta0 = limit_phase(c0)
    spread = math.sqrt(c0 * c0 - 2.0 * c0)
    big_theta = theta0 + TWO_PI * n
    return (1.0 + big_theta / spread + 1j * big_theta) * c0 * c0 * volume


def transversality(sol: HopfSolution, n: int = 0) -> complex:
    """Eigenvalue speed d(mu)/d(tau) at the n-th delay threshold.

    Computed from the crossing data as

        dmu/dtau = i nu r e^{-i theta} int(p f'(u_r) psi^2) / (-S_n).

    The real part must be positive (eigenvalues cross left to right); a
    nonpositive real part signals an inconsistent solution and raises.
    """
    if sol.r <= 0:
        raise ValueError("transversality is defined along the branch for r > 0")
    grid = sol.model.grid
    coeffs = sol.model.coeffs
    s_n = nondegeneracy_integral(sol, n)
    delayed = grid.weights @ (
        coeffs.p * eval_nonlinearity(sol.u, order=1) * sol.psi * sol.psi
    )
    dmu = 1j * sol.nu * sol.r * np.exp(-1j * sol.theta) * delayed / (-s_n)
    if dmu.real <= 0:
        raise RuntimeError(
            f"transversality failed: Re d(mu)/d(tau) = {dmu.real:.3e} <= 0 "
            f"at r = {sol.r:.6g}, n = {n}"
        )
    return complex(dmu)


def limit_transversality_real(
    coeffs: CoefficientField, grid: Grid1D, n: int = 0
) -> float:
    """r -> 0 limit of Re d(mu)/d(tau) / r^2 at the n-th threshold.

    Closed form (c0^2 - 2 c0) e^{-2 c0} mean(p)^2 c0^4 |Omega|^2 / |lim S_n|^2.
    """
    c0 = coeffs.c0
    numerator = (
        (c0 * c0 - 2.0 * c0)
        * math.exp(-2.0 * c0)
        * coeffs.p_bar**2
        * c0**4
        * grid.length**2
    )
    limit_s = limit_nondegeneracy_integral(c0, grid.length, n)
    return numerator / abs(limit_s) ** 2


def write_hopf_csv(path, sol: HopfSolution, thresholds: ThresholdSequence) -> None:
    """Dump a crossing: scalar block, then nodewise z and psi columns."""
    preamble = [("r", sol.r), ("d", sol.model.d), ("beta", sol.beta),
                ("h", sol.omega), ("theta", sol.theta), ("nu", sol.nu)]
    for k in range(thresholds.n_max + 1):
        preamble += [(f"tau{k}", thresholds.taus[k]),
                     (f"tau_hat{k}", thresholds.taus_hat[k])]
    write_table(path, "x,Re z,Im z,Re psi,Im psi", [
        sol.model.grid.nodes, sol.z.real, sol.z.imag, sol.psi.real, sol.psi.imag,
    ], preamble=preamble)
