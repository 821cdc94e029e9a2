"""Hopf normal form: direction and orbit stability at a delay threshold.

Given a crossing :class:`~nicholson.hopf.HopfSolution` and a threshold index
n, this module reduces the delayed model to its center manifold and computes
the cubic normal-form data (Hassard-Kazarinoff-Wan scheme adapted to the
nonlocal pairing of the problem):

* two auxiliary fields, the second-harmonic and zero-mode corrections of the
  center manifold,
* the quadratic/cubic coefficients g20, g11, g02, g21,
* the first Lyapunov coefficient C1(0) and the bifurcation verdict
  (mu2 = -Re C1 / Re d(mu)/d(tau), forward iff mu2 > 0; the orbit on the
  center manifold is stable iff Re C1 < 0, meaningful for n = 0 where no
  other eigenvalues have crossed).

The r -> 0 closed forms of all of it are provided for cross-validation; in
that limit Re C1(0) is provably negative, so the first crossing is a
supercritical Hopf bifurcation with a stable periodic orbit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

from .hopf import (
    TWO_PI,
    HopfSolution,
    characteristic_matrix,
    limit_phase,
    nondegeneracy_integral,
    transversality,
)
from .model import eval_nonlinearity
from .table import write_table


class ResonanceError(RuntimeError):
    """A shifted eigenvalue solve is near-singular (internal resonance)."""


@dataclass(frozen=True)
class GCoefficients:
    """Quadratic and cubic coefficients of the reduced normal form."""

    g20: complex
    g11: complex
    g02: complex
    g21: complex


@dataclass(frozen=True)
class NormalFormReport:
    """Normal-form data at one delay threshold.

    ``orbit_stability`` is one of 'stable', 'unstable' or 'undetermined';
    for n >= 1 only the direction is decided by this computation, since
    previously crossed eigenvalue pairs already render the orbit unstable
    in the full system.
    """

    n: int
    tau_n: float
    tau_hat_n: float
    g: GCoefficients
    c1: complex
    dmu: complex
    mu2: float
    direction: str
    orbit_stability: str
    note: str
    second_harmonic: np.ndarray
    zero_mode: np.ndarray


def _tau_n(sol: HopfSolution, n: int) -> float:
    if sol.r <= 0:
        raise ValueError("normal-form data is defined along the branch for r > 0")
    if n < 0:
        raise ValueError(f"threshold index must be nonnegative, got {n}")
    return (sol.theta + TWO_PI * n) / sol.nu


def _solve_shifted(sol: HopfSolution, mu: complex, tau: float, rhs: np.ndarray,
                   label: str) -> np.ndarray:
    """Solve the shifted eigenvalue system with a conditioning guard.

    One LU factor (``zgetrf``) serves the guard, LAPACK's 1-norm estimate
    ``1/rcond`` (``zgecon``; refused above 1e12 or at a zero pivot), the solve
    and one refinement pass, which holds the residual near roundoff.
    """
    matrix = characteristic_matrix(sol.model, sol.u, mu, tau)
    lu, piv, info = zgetrf(matrix)
    rcond = zgecon(lu, np.linalg.norm(matrix, 1))[0] if info == 0 else 0.0
    if not rcond >= 1e-12:
        raise ResonanceError(
            f"{label}: shifted solve at mu = {mu:.6g} is near-singular "
            f"(condition estimate {1.0 / rcond if rcond > 0 else math.inf:.3e})"
        )
    solution = zgetrs(lu, piv, rhs)[0]
    return solution + zgetrs(lu, piv, rhs - matrix @ solution)[0]


def second_harmonic_correction(sol: HopfSolution, n: int = 0) -> np.ndarray:
    """Center-manifold correction at twice the crossing frequency.

    Returns ``-r e^{-2 i nu tau_n} * solve(p f''(u_r) psi^2)`` at mu = 2 i nu;
    as ``e^{-2 i nu tau_n} = e^{-2 i theta}``, the field does not depend on n.
    Small-r limit: the constant ``c0 * limit_second_harmonic_ratio(c0)``.
    """
    tau_n = _tau_n(sol, n)
    coeffs = sol.model.coeffs
    rhs = coeffs.p * eval_nonlinearity(sol.u, order=2) * sol.psi**2
    return -sol.r * np.exp(-2j * sol.nu * tau_n) * _solve_shifted(
        sol, 2j * sol.nu, tau_n, rhs, "second_harmonic_correction")


def zero_mode_correction(sol: HopfSolution, n: int = 0) -> np.ndarray:
    """Zero-frequency center-manifold correction.

    Solves the mu = 0 system against ``p f''(u_r) |psi|^2``: no delay factor,
    so no dependence on n.  The small-r limit is the constant c0 (c0 - 2).
    """
    tau_n = _tau_n(sol, n)
    coeffs = sol.model.coeffs
    rhs = coeffs.p * eval_nonlinearity(sol.u, order=2) * np.abs(sol.psi) ** 2
    return -sol.r * _solve_shifted(sol, 0.0 + 0.0j, tau_n, rhs, "zero_mode_correction")


def normal_form_coefficients(
    sol: HopfSolution,
    n: int = 0,
    second_harmonic: np.ndarray | None = None,
    zero_mode: np.ndarray | None = None,
) -> GCoefficients:
    """Quadratic and cubic coefficients of the reduced dynamics.

    The delayed eigenfunction enters through phase factors
    ``e^{-i nu tau_n} = e^{-i theta}``; the pairing against the adjoint
    eigenfunction contributes one factor of psi under the integral and the
    normalization 1/S_n.  ``second_harmonic`` and ``zero_mode`` are computed
    on demand when not supplied.
    """
    tau_n = _tau_n(sol, n)
    if second_harmonic is None:
        second_harmonic = second_harmonic_correction(sol, n)
    if zero_mode is None:
        zero_mode = zero_mode_correction(sol, n)
    grid = sol.model.grid
    coeffs = sol.model.coeffs
    weights = grid.weights
    psi = sol.psi
    pf2 = coeffs.p * eval_nonlinearity(sol.u, order=2)
    pf3 = coeffs.p * eval_nonlinearity(sol.u, order=3)
    phase = sol.nu * tau_n
    forward = np.exp(-1j * phase)
    backward = np.exp(1j * phase)
    prefactor = sol.r * tau_n / nondegeneracy_integral(sol, n)

    g20 = prefactor * forward**2 * (weights @ (pf2 * psi**3))
    g11 = prefactor * (weights @ (pf2 * psi * np.abs(psi) ** 2))
    g02 = prefactor * backward**2 * (weights @ (pf2 * psi * np.conj(psi) ** 2))

    w20_delay = (
        (1j * g20 / phase) * psi * forward
        + (1j * np.conj(g02) / (3.0 * phase)) * np.conj(psi) * backward
        + second_harmonic * forward**2
    )
    w11_delay = (
        (-1j * g11 / phase) * psi * forward
        + (1j * np.conj(g11) / phase) * np.conj(psi) * backward
        + zero_mode
    )
    g21 = prefactor * (
        2.0 * forward * (weights @ (pf2 * psi**2 * w11_delay))
        + backward * (weights @ (pf2 * np.abs(psi) ** 2 * w20_delay))
        + forward * (weights @ (pf3 * psi**2 * np.abs(psi) ** 2))
    )
    return GCoefficients(g20=complex(g20), g11=complex(g11),
                         g02=complex(g02), g21=complex(g21))


def first_lyapunov_coefficient(g: GCoefficients, nu: float, tau_n: float) -> complex:
    """C1(0) from the g coefficients at frequency nu and threshold tau_n."""
    phase = nu * tau_n
    return (
        1j / (2.0 * phase) * (g.g20 * g.g11 - 2.0 * abs(g.g11) ** 2
                              - abs(g.g02) ** 2 / 3.0)
        + g.g21 / 2.0
    )


def bifurcation_verdict(c1: complex, dmu: complex, n: int = 0):
    """Direction and orbit stability from C1(0) and the crossing speed.

    Returns (mu2, direction, orbit_stability, note).  mu2 > 0 means the
    periodic orbits exist for delays beyond the threshold (forward).  Orbit
    stability is decided by sign(Re C1) only at the first threshold; for
    n >= 1 it is reported as 'undetermined' because earlier crossings have
    already destabilized the steady state.
    """
    if dmu.real <= 0:
        raise ValueError(
            f"crossing speed has nonpositive real part ({dmu.real:.3e}); "
            "verdict undefined"
        )
    mu2 = -c1.real / dmu.real
    direction = "forward" if mu2 > 0 else "backward"
    if n == 0:
        orbit_stability = "stable" if c1.real < 0 else "unstable"
        note = ""
    else:
        orbit_stability = "undetermined"
        note = ("orbit stability at n >= 1 is not decided by the first "
                "Lyapunov coefficient alone")
    if c1.real > 0:
        warnings.warn(
            f"Re C1(0) = {c1.real:.6g} > 0 at n = {n}: outside the "
            "large-diffusion regime where the limit is provably negative; "
            "interpret with care",
            UserWarning,
            stacklevel=2,
        )
    return mu2, direction, orbit_stability, note


def normal_form_report(sol: HopfSolution, n: int = 0,
                       second_harmonic: np.ndarray | None = None,
                       zero_mode: np.ndarray | None = None) -> NormalFormReport:
    """Full normal-form evaluation at the n-th threshold of a crossing.

    ``second_harmonic`` and ``zero_mode`` are computed when not supplied;
    neither depends on n, so one report's fields serve every threshold.
    """
    tau_n = _tau_n(sol, n)
    if second_harmonic is None:
        second_harmonic = second_harmonic_correction(sol, n)
    if zero_mode is None:
        zero_mode = zero_mode_correction(sol, n)
    g = normal_form_coefficients(sol, n, second_harmonic, zero_mode)
    c1 = first_lyapunov_coefficient(g, sol.nu, tau_n)
    dmu = transversality(sol, n)
    mu2, direction, orbit_stability, note = bifurcation_verdict(c1, dmu, n)
    return NormalFormReport(
        n=n,
        tau_n=tau_n,
        tau_hat_n=sol.r * tau_n,
        g=g,
        c1=c1,
        dmu=dmu,
        mu2=mu2,
        direction=direction,
        orbit_stability=orbit_stability,
        note=note,
        second_harmonic=second_harmonic,
        zero_mode=zero_mode,
    )


# --- closed-form r -> 0 limits -------------------------------------------

def limit_second_harmonic_ratio(c0: float) -> complex:
    """Limit of (second harmonic correction)/c0; spatially constant.

    Equals -e^{-2 i theta0} (c0 - 2) c0 / (e^{-2 i theta0} (1 - c0) - 1
    - 2 i sqrt(c0^2 - 2 c0)).
    """
    theta0 = limit_phase(c0)
    spread = math.sqrt(c0 * c0 - 2.0 * c0)
    twist = np.exp(-2j * theta0)
    return complex(
        -twist * (c0 - 2.0) * c0 / (twist * (1.0 - c0) - 1.0 - 2j * spread)
    )


def limit_zero_mode_ratio(c0: float) -> float:
    """Limit of (zero mode correction)/c0, equal to c0 - 2."""
    if c0 <= 2.0:
        raise ValueError(f"limit requires c0 > 2, got {c0:.6g}")
    return c0 - 2.0


def limit_pairing_factor(c0: float, n: int = 0) -> complex:
    """Limit of g11 * e^{-i theta0} at the n-th threshold.

    With s = sqrt(c0^2 - 2 c0) and Theta = theta0 + 2 pi n,

        lim g11 = Theta (c0 - 2) c0 / (s + Theta + i s Theta).
    """
    theta0 = limit_phase(c0)
    spread = math.sqrt(c0 * c0 - 2.0 * c0)
    big_theta = theta0 + TWO_PI * n
    g11_limit = big_theta * (c0 - 2.0) * c0 / (
        spread + big_theta + 1j * spread * big_theta
    )
    return complex(g11_limit * np.exp(-1j * theta0))


def limit_lyapunov_real(c0: float, n: int = 0) -> float:
    """Closed-form r -> 0 limit of Re C1(0) at the n-th threshold.

    All cross terms of the Poincare constant cancel in the limit, leaving

        lim Re C1(0) = (1/2) Re[ lim(g11 e^{-i theta0})
                        * (E/c0 + 2F/c0 + c0/(c0-2) - c0) ],

    with E, F the second-harmonic and zero-mode limits.  Strictly negative
    for every c0 > 2 and n >= 0: the bifurcating orbits are stable at the
    first threshold in the large-diffusion regime.
    """
    pairing = limit_pairing_factor(c0, n)
    bracket = (
        limit_second_harmonic_ratio(c0)
        + 2.0 * limit_zero_mode_ratio(c0)
        + c0 / (c0 - 2.0)
        - c0
    )
    return 0.5 * (pairing * bracket).real


def lyapunov_sign_bounds(c0: float) -> tuple[float, float]:
    """Certificate pair (A, B) whose joint negativity bounds the limit sign.

    The numerator of the limit of Re C1(0) is bounded above by
    Theta * A + Theta^2 * B with both A and B strictly negative for c0 > 2:

        A = 2 (c0^2-2c0)^{7/2} (c0-2)/(c0-1) - K (c0-1),
        B = -K,
        K = (c0^2-3)(c0-2)^2 c0^2 + (5c0^4-14c0^3+9c0^2)(c0^2-5c0+8).
    """
    if c0 <= 2.0:
        raise ValueError(f"certificates require c0 > 2, got {c0:.6g}")
    common = (c0 * c0 - 3.0) * (c0 - 2.0) ** 2 * c0 * c0 + (
        5.0 * c0**4 - 14.0 * c0**3 + 9.0 * c0 * c0
    ) * (c0 * c0 - 5.0 * c0 + 8.0)
    bound_a = (
        2.0 * (c0 * c0 - 2.0 * c0) ** 3.5 * (c0 - 2.0) / (c0 - 1.0)
        - common * (c0 - 1.0)
    )
    return bound_a, -common


def write_normalform_csv(path, sol: HopfSolution, reports) -> None:
    """One row per threshold index with the scalar normal-form data."""
    header = (
        "r,d,n,tau_n,tau_hat_n,Re_g20,Im_g20,Re_g11,Im_g11,Re_g02,Im_g02,"
        "Re_g21,Im_g21,Re_C1,Im_C1,Re_dmu,Im_dmu,mu2,direction,orbit_stability"
    )
    rows = [
        (sol.r, sol.model.d, report.n, report.tau_n, report.tau_hat_n,
         report.g.g20.real, report.g.g20.imag, report.g.g11.real,
         report.g.g11.imag, report.g.g02.real, report.g.g02.imag,
         report.g.g21.real, report.g.g21.imag, report.c1.real, report.c1.imag,
         report.dmu.real, report.dmu.imag, report.mu2, report.direction,
         report.orbit_stability)
        for report in reports
    ]
    write_table(path, header, list(zip(*rows)))
