"""Hopf bifurcation data: imaginary eigenvalue crossings and delay thresholds.

Linearizing the normalized model about its positive steady state u_r and
looking for a purely imaginary eigenvalue i*nu with eigenfunction psi leads,
after writing nu = r*omega, exp(-i nu tau) = exp(-i theta) and splitting
psi = beta*c0 + r*z into its mean and a mean-zero field z, to the system

    g1 = Laplace(z) + (exp(-i theta) p f'(u_r) - delta - i omega) (beta c0 + r z) = 0
    g2 = (beta^2 - 1) c0^2 |Omega| + r^2 ||z||^2 = 0,

with z of zero quadrature mean.  At r = 0 the system has a closed-form
solution, and the crossing is a smooth function of r from it (the
large-diffusion theorem), so :func:`continue_hopf` reaches the model's r by
one Newton solve started at that limit.  The resulting
:class:`HopfSolution` is the crossing at every r, the limit included, and
yields the countable family of delay thresholds

    tau_n = (theta + 2 pi n) / nu,        n = 0, 1, 2, ...

at which eigenvalue pairs cross the imaginary axis, read through
:meth:`HopfSolution.tau_n`; :meth:`HopfSolution.tau_hat_n` gives them in
the time of the unnormalized model, tau_hat_n = r tau_n, which stays finite
as r -> 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D
from .model import CoefficientField, ModelParams, eval_nonlinearity
from .steady import NewtonConvergenceError, solve_steady_state
from .table import write_table

TWO_PI = 2.0 * math.pi
_MAX_ITERATIONS = 30  # Newton steps of one crossing solve
_EPS = float(np.finfo(float).eps)


class NoHopfError(ValueError):
    """The mean coefficients admit no delay-induced oscillation (c0 <= 2)."""


class SolvabilityError(ValueError):
    """Right-hand side is not orthogonal to constants within tolerance."""


class CrossingError(RuntimeError):
    """The crossing could not be solved for.

    Raised by the Hopf Newton solve, its bordered linear solves and
    :func:`transversality`; from :func:`continue_hopf` the message names
    r, the solver that failed (steady or Hopf Newton) and its own text,
    with the solver's exception chained as ``__cause__``.
    """


class SimplicityWarning(UserWarning):
    """The nondegeneracy integral is close to zero; results are fragile."""


def limit_phase(c0: float) -> float:
    """Phase lag theta0 of the large-diffusion crossing, in (pi/2, pi).

    Solves cos(theta0) = 1/(1 - c0), sin(theta0) = -sqrt(c0^2 - 2 c0)/(1 - c0)
    for c0 > 2.
    """
    if c0 <= 0:
        raise NoHopfError(f"c0 = {c0:.4f} <= 0, no positive steady state exists")
    if c0 <= 2.0:
        raise NoHopfError(f"c0 = {c0:.4f} < 2, steady state stable for all "
                          "delays")
    spread = math.sqrt(c0 * c0 - 2.0 * c0)
    return math.atan2(spread / (c0 - 1.0), -1.0 / (c0 - 1.0))


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

    def tau_n(self, n: int) -> float:
        """n-th delay threshold in normalized time, (theta + 2 pi n) / nu.

        Undefined at r = 0, where nu = 0; only :meth:`tau_hat_n` survives
        the limit.
        """
        if self.r == 0:
            raise ValueError(
                "thresholds in normalized time are undefined at r = 0; "
                "only tau_hat_n = (theta + 2 pi n)/omega survives the limit"
            )
        return self._phase(n) / self.nu

    def tau_hat_n(self, n: int) -> float:
        """n-th delay threshold of the unnormalized model, (theta + 2 pi n)
        / omega, which is r * tau_n up to rounding; defined at r = 0 too."""
        return self._phase(n) / self.omega

    def _phase(self, n: int) -> float:
        if n < 0:
            raise ValueError(f"threshold index must be nonnegative, got {n}")
        return self.theta + TWO_PI * n


def solve_poisson_meanzero(rhs: np.ndarray, grid: Grid1D, scale: float) -> np.ndarray:
    """Solve Laplace(z) = rhs with Neumann boundaries and zero-mean z.

    The Neumann Laplacian is singular on constants; the problem is solvable
    exactly when the quadrature mean of ``rhs`` vanishes.  The mean is
    checked against the roundoff that a quadrature sum of n values of size
    ``scale`` can carry, n eps scale.  For an rhs that is a difference of
    large terms, ``scale`` is the magnitude before the cancellation, so
    that an all-roundoff rhs is accepted as zero.  The residual mean is
    projected out, and the system is solved in bordered form

        [A  1] [z     ]   [rhs]
        [w  0] [lambda] = [0  ]

    which is nonsingular, by :func:`_bordered_solve`: the complex lambda is
    two real border unknowns with columns 1 and i, and the complex mean pin
    two real rows.

    Raises
    ------
    SolvabilityError
        If the quadrature mean of rhs exceeds its roundoff bound.
    CrossingError
        If the bordered factor meets an exactly zero pivot, which the
        nonsingular Poisson core rules out.
    """
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.size != grid.n_points:
        raise ValueError("rhs and grid sizes disagree")
    mean = grid.integrate(rhs) / grid.length
    if abs(mean) > grid.n_points * _EPS * scale:
        raise SolvabilityError(
            f"rhs has quadrature mean {abs(mean):.3e} (relative "
            f"{abs(mean) / scale:.3e}); the Neumann problem is unsolvable"
        )
    ones, weights = np.ones(grid.n_points), grid.weights
    z, _ = _bordered_solve(grid, 0j, (ones, 1j * ones),
                           (weights, 1j * weights), 0.0, rhs - mean, np.zeros(2))
    return z


def _limit_state(model: ModelParams):
    """Closed-form r -> 0 crossing (z, beta, omega, theta) for c0 > 2.

    theta0 and omega0 depend only on c0 and mean(delta), beta is 1, and the
    field z is the unique mean-zero solution of the limiting eigenfunction
    equation

        Laplace(z) = -c0 f'(c0) p(x) e^{-i theta} + c0 delta(x) + i omega c0.

    Raises
    ------
    NoHopfError
        If c0 <= 2 (covers both the stable regime 0 < c0 <= 2 and the
        regime c0 <= 0 without positive steady states).
    """
    coeffs = model.coeffs
    c0 = coeffs.c0
    theta = limit_phase(c0)
    omega = coeffs.delta_bar * math.sqrt(c0 * c0 - 2.0 * c0)
    fprime = eval_nonlinearity(c0, order=1)
    rhs = -c0 * model.coupling(c0, np.exp(-1j * theta), 1j * omega)
    # The rhs is a difference of O(c0 * delta_bar) terms; for constant
    # coefficients it cancels to pure roundoff, which must count as zero.
    scale = c0 * float(
        np.abs(coeffs.p * fprime).max() + np.abs(coeffs.delta).max() + omega
    )
    return solve_poisson_meanzero(rhs, model.grid, scale=scale), 1.0, omega, theta


_DEFLATED_NODE = 1  # k of the rank-one deflation; interior on every grid


def _bordered_solve(grid: Grid1D, shift, cols, rows, corner,
                    g: np.ndarray, h: np.ndarray):
    """Solve a bordered tridiagonal system by one deflated ``zgttrf`` factor.

    The unknowns are a complex nodal field z and m real numbers p, and the
    equations, for a complex ``shift`` and L the Laplacian of ``grid``, are
    n complex and m real rows,

        (L + diag(shift)) z + sum_j p_j cols[j] = g,
        Re(conj(rows[i]) . z) + (corner p)_i    = h_i,

    so a complex pin w . z = c is the two rows ``w`` and ``1j * w``.  The
    core A = L + diag(shift) may be singular (the Hopf z-block is, at the
    solution), so it is not factored itself.  With t = z_k, k a fixed node
    and s = L[k, k], the solve factors T = A + s e_k e_k^T and writes

        z = T^-1 g + t s T^-1 e_k - sum_j p_j T^-1 cols[j]

    from one ``zgttrs`` solve with m + 2 right-hand sides.  The two real
    rows of t = z_k and the m border rows are then a dense real system of
    size m + 2 for (Re t, Im t, p).

    T is nonsingular because det T = det A + s adj(A)_kk.  For the
    Poisson core A = L, W T = W L + s w_k e_k e_k^T is negative definite:
    W L is negative semidefinite with only the constants in its kernel,
    and s < 0.  For the Hopf core at the solution det A = 0, and adj(A)_kk
    is proportional to w_k psi_k^2, which is nonzero because psi is close
    to beta c0.

    Returns ``(z, p)``.

    Raises
    ------
    CrossingError
        If T has an exactly zero pivot or the reduced system is singular.
    """
    k = _DEFLATED_NODE
    deflation = np.zeros(grid.n_points)
    deflation[k] = grid.laplacian.main[k]
    try:
        solve = grid.laplacian.factor(shift + deflation)
    except np.linalg.LinAlgError as exc:
        raise CrossingError(str(exc)) from None
    solved = solve(np.column_stack([g, deflation, *cols]))[0]
    base = solved[:, 0]
    # z = base + basis @ (Re t, Im t, p)
    basis = np.column_stack([solved[:, 1], 1j * solved[:, 1], -solved[:, 2:]])
    tie = basis[k].copy()
    tie[:2] -= (1.0, 1j)
    rows = np.conj(rows)
    border = (rows @ basis).real
    border[:, 2:] += corner
    try:
        unknowns = np.linalg.solve(
            np.vstack([tie.real, tie.imag, border]),
            np.concatenate([[-base[k].real, -base[k].imag], h - (rows @ base).real]),
        )
    except np.linalg.LinAlgError:
        raise CrossingError("the reduced bordered system is singular") from None
    return base + basis @ unknowns, unknowns[2:]


def _hopf_residual(state, model, u, pfprime):
    """Residual (g1, (g2, Re mean, Im mean)), its norm, floor ratio, coupling, psi.

    ``pfprime`` is p f'(u).  The norm is max(|g1|, |g2|, |mean|).  The
    floor ratio is the largest ratio of a block to eps times the terms it
    sums, before they cancel: |L||z| + (|pfprime| + delta + |omega|)|psi|
    for g1, (beta^2 + 1) c0^2 |Omega| + r^2 ||z||^2 for g2 and int|psi| / r
    for the mean pins (the size of int z read off psi = beta c0 + r z).
    Each is nonzero at the solution, even for constant coefficients, where
    z vanishes.
    """
    z, beta, omega, theta = state
    coeffs = model.coeffs
    c0 = coeffs.c0
    laplacian = model.grid.laplacian
    coupling = model.coupling(u, np.exp(-1j * theta), 1j * omega)
    psi = beta * c0 + model.r * z
    g1 = laplacian.apply(z) + coupling * psi
    weights = model.grid.weights
    norm_sq = float(weights @ (z.real**2 + z.imag**2))
    g2 = (beta * beta - 1.0) * c0 * c0 * model.grid.length + model.r**2 * norm_sq
    mean = weights @ z
    residual = (g1, np.array([g2, mean.real, mean.imag]))
    res_norm = max(float(np.abs(g1).max()), abs(g2), abs(mean))
    abs_z, abs_psi = np.abs(z), np.abs(psi)
    # |L||z| = L|z| - 2 diag(L)|z|: the diagonal is negative, the rest not
    g1_size = (laplacian.apply(abs_z) - 2.0 * laplacian.main * abs_z
               + (np.abs(pfprime) + coeffs.delta + abs(omega)) * abs_psi)
    g2_size = (beta * beta + 1.0) * c0 * c0 * model.grid.length + model.r**2 * norm_sq
    ratio = max(float((np.abs(g1) / g1_size).max()), abs(g2) / g2_size,
                model.r * abs(mean) / float(weights @ abs_psi)) / _EPS
    return residual, res_norm, ratio, coupling, psi


def _hopf_newton(state, model: ModelParams, u: np.ndarray):
    """Newton correction of (z, beta, omega, theta) at fixed r.

    Each step solves the bordered system of n complex rows for g1, one real
    row for the normalization g2 and two pinning the quadrature mean of z
    to zero, in dz and the real (dbeta, domega, dtheta), by
    :func:`_bordered_solve`.  Its core, L + diag(r coupling), is singular
    at the solution, with kernel psi; the deflated factor stays
    nonsingular because psi, close to beta c0, does not vanish.

    No tolerance is set: the iteration stops when every residual block is
    below 2 eps times the magnitudes it is built from (the floor ratio of
    :func:`_hopf_residual`), or below 100 eps once a step no longer halves
    that ratio.  It fails after ``_MAX_ITERATIONS`` steps or on divergence.
    """
    z, beta, omega, theta = state
    z = np.array(z, dtype=complex)
    weights = model.grid.weights
    coeffs = model.coeffs
    c0 = coeffs.c0
    fprime = eval_nonlinearity(u, order=1)
    pfprime = coeffs.p * fprime
    best = math.inf
    previous = math.inf
    for iteration in range(_MAX_ITERATIONS + 1):
        state = (z, beta, omega, theta)
        (g1, border), res_norm, ratio, coupling, psi = _hopf_residual(
            state, model, u, pfprime
        )
        if ratio <= 2.0 or 0.5 * previous < ratio <= 100.0:
            return state, res_norm
        if iteration == _MAX_ITERATIONS:
            raise CrossingError(
                f"no convergence in {_MAX_ITERATIONS} iterations, residual "
                f"{res_norm:.3e} ({ratio / 2.0:.3g} x its roundoff floor)"
            )
        if res_norm > 1e4 * max(best, 1.0):
            raise CrossingError(f"diverging, residual {res_norm:.3e}")
        best = min(best, res_norm)
        previous = ratio

        # columns d/d(beta, omega, theta) of g1
        cols = (
            coupling * c0,
            -1j * psi,
            -1j * np.exp(-1j * theta) * coeffs.p * fprime * psi,
        )
        corner = np.diag([2.0 * beta * c0 * c0 * model.grid.length, 0.0, 0.0])
        dz, (dbeta, domega, dtheta) = _bordered_solve(
            model.grid, model.r * coupling, cols,
            (2.0 * model.r**2 * weights * z, weights, 1j * weights), corner,
            -g1, -border,
        )
        z = z + dz
        beta += dbeta
        omega += domega
        theta += dtheta


def continue_hopf(model: ModelParams, r_cap: float = 0.5) -> HopfSolution:
    """The imaginary-axis crossing at the model's r.

    At r > 0 the steady state is solved from the constant c0, and the
    crossing system is Newton-corrected from the closed-form r = 0 limit
    in one solve; neither solve is retried.  At r = 0 the limit itself is
    returned, with the steady state u = c0 of the averaged equation.

    The system is unchanged by (z, beta) -> (-z, -beta) and by the
    conjugation (z, omega, theta) -> (conj z, -omega, -theta), so the
    returned crossing is the one with beta > 0, omega > 0 and theta in
    [0, 2 pi), whose delay thresholds are positive.

    Parameters
    ----------
    model : ModelParams
        Supplies grid, coefficients, a and r, which must be at most
        ``r_cap``.
    r_cap : float
        Refuses a larger r, but guards against no known failure: at
        r L^2 >= 13 Newton can converge, also inside the default cap, to a
        crossing that is not the first.  Nothing checks for that yet.

    Raises
    ------
    NoHopfError
        If c0 <= 2.
    CrossingError
        If the steady or the Hopf Newton solve fails.
    """
    r = model.r
    if not r <= r_cap:
        raise ValueError(
            f"r = {r:.6g} must be at most the working cap r_cap = "
            f"{r_cap:.6g}; pass a larger r_cap explicitly to go beyond the "
            "validated regime"
        )
    state = _limit_state(model)
    u = np.full(model.grid.n_points, model.coeffs.c0)
    if r > 0:
        try:
            u = solve_steady_state(model).u
            state, _ = _hopf_newton(state, model, u)
        except (NewtonConvergenceError, CrossingError) as exc:
            solver = "steady" if isinstance(exc, NewtonConvergenceError) else "Hopf"
            raise CrossingError(
                f"crossing failed at r = {r:.6g}; {solver} Newton: {exc}"
            ) from exc

    z, beta, omega, theta = state
    if beta < 0:
        beta, z = -beta, -z
    if omega < 0:
        z, omega, theta = z.conj(), -omega, -theta
    theta = theta % TWO_PI
    pfprime = model.coeffs.p * eval_nonlinearity(u, order=1)
    res = _hopf_residual((z, beta, omega, theta), model, u, pfprime)[1]
    return HopfSolution(
        model=model,
        u=u,
        z=z,
        beta=beta,
        omega=omega,
        theta=theta,
        residual_norm=res,
    )


def _pairings(sol: HopfSolution, n: int):
    """(S_n, D) with D = int(p f'(u_r) psi^2); warns at its caller's caller."""
    grid = sol.model.grid
    coeffs = sol.model.coeffs
    tau_hat_n = sol.tau_hat_n(n)
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
            stacklevel=3,
        )
    return complex(value), delayed


def nondegeneracy_integral(sol: HopfSolution, n: int = 0) -> complex:
    """Pairing integral certifying simplicity of the crossing eigenvalue.

    S_n = int(psi^2) + tau_hat_n e^{-i theta} int(p f'(u_r) psi^2); it
    normalizes the adjoint pairing in the normal-form computation and must
    stay away from zero for the crossing to be simple.  Emits a
    :class:`SimplicityWarning` when |S_n| < 1e-8 * c0^2 * |Omega|.
    """
    return _pairings(sol, n)[0]


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
    nonpositive one, an inconsistent solution, raises :class:`CrossingError`.
    """
    if sol.r <= 0:
        raise ValueError("transversality is defined along the branch for r > 0")
    s_n, delayed = _pairings(sol, n)
    dmu = 1j * sol.nu * sol.r * np.exp(-1j * sol.theta) * delayed / (-s_n)
    if dmu.real <= 0:
        raise CrossingError(
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


def write_hopf_csv(path, sol: HopfSolution, n_max: int) -> None:
    """Dump a crossing: scalar block with the thresholds tau_k and
    tau_hat_k for k = 0..n_max, then nodewise z and psi columns."""
    preamble = [("r", sol.r), ("d", sol.model.d), ("beta", sol.beta),
                ("h", sol.omega), ("theta", sol.theta), ("nu", sol.nu)]
    for k in range(n_max + 1):
        preamble += [(f"tau{k}", sol.tau_n(k)), (f"tau_hat{k}", sol.tau_hat_n(k))]
    write_table(path, "x,Re z,Im z,Re psi,Im psi", [
        sol.model.grid.nodes, sol.z.real, sol.z.imag, sol.psi.real, sol.psi.imag,
    ], preamble=preamble)
