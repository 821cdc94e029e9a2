"""Independent scalar-equation oracles used to validate the PDE pipeline.

Everything here works on the spatially averaged scalar delay equation

    v'(t) = -delta_bar v(t) + p_bar f(v(t - tau_check)),   f(v) = v e^{-v},

whose linearization at the equilibrium c0 = log(p_bar/delta_bar) has the
characteristic equation

    lam = -delta_bar + delta_bar (1 - c0) e^{-lam tau_check}.

The root tracker below is deliberately brute force (dense multistart Newton
plus bisection on the delay) and shares no code with the package; the
normal-form oracle follows the classic scalar Hassard recipe with the
textbook q(0) = 1 eigenvector convention, so its coefficients relate to the
package's (eigenfunction amplitude c0, time rescaled by the threshold) by
the exact conversion C1_package = tau_check * c0^2 * C1_textbook.

The last oracles are the exceptions, built from the package's own solves.
:func:`stepped_crossing` reaches a crossing by walking in r from the r = 0
limit, as ``continue_hopf`` once did; it checks that the one-step solve
lands on the root the walk follows.  :func:`threshold_report` evaluates the
normal form at one threshold from corrections solved at that threshold's own
delay, as ``normal_form_report`` once did; it checks that one pair of
corrections, solved at tau_0, serves the whole ladder.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from nicholson import normalform
from nicholson.hopf import _hopf_newton, _limit_state, transversality
from nicholson.model import eval_nonlinearity
from nicholson.steady import _newton


def _char(lam: complex, tau: float, delta_bar: float, c0: float) -> complex:
    return lam + delta_bar - delta_bar * (1.0 - c0) * cmath.exp(-lam * tau)


def _char_prime(lam: complex, tau: float, delta_bar: float, c0: float) -> complex:
    return 1.0 + tau * delta_bar * (1.0 - c0) * cmath.exp(-lam * tau)


def characteristic_roots(tau: float, delta_bar: float, c0: float,
                         re_range=(-8.0, 4.0), im_range=(0.0, 25.0),
                         n_starts: int = 40) -> list[complex]:
    """All distinct roots found by dense multistart Newton (upper half plane)."""
    roots: list[complex] = []
    for i in range(n_starts):
        for j in range(n_starts):
            lam = complex(
                re_range[0] + (re_range[1] - re_range[0]) * i / (n_starts - 1),
                im_range[0] + (im_range[1] - im_range[0]) * j / (n_starts - 1),
            )
            ok = False
            for _ in range(80):
                if (-lam * tau).real > 500.0 or abs(lam) > 1e8:
                    break
                step = _char(lam, tau, delta_bar, c0) / _char_prime(
                    lam, tau, delta_bar, c0
                )
                lam -= step
                if abs(step) < 1e-13 * max(1.0, abs(lam)):
                    ok = True
                    break
            if (not ok or (-lam * tau).real > 500.0
                    or abs(_char(lam, tau, delta_bar, c0)) > 1e-9):
                continue
            lam = complex(lam.real, abs(lam.imag))
            if all(abs(lam - seen) > 1e-6 for seen in roots):
                roots.append(lam)
    return roots


def rightmost_root(tau: float, delta_bar: float, c0: float) -> complex:
    roots = characteristic_roots(tau, delta_bar, c0)
    if not roots:
        raise RuntimeError("root search found nothing")
    return max(roots, key=lambda lam: lam.real)


@functools.cache
def first_crossing_delay(delta_bar: float, c0: float,
                         bracket=(1e-3, 6.0), tol: float = 1e-12) -> float:
    """Bisect on the delay for Re(rightmost root) = 0."""
    lo, hi = bracket
    if rightmost_root(lo, delta_bar, c0).real >= 0:
        raise RuntimeError("lower bracket is not stable")
    if rightmost_root(hi, delta_bar, c0).real <= 0:
        raise RuntimeError("upper bracket is not unstable")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if rightmost_root(mid, delta_bar, c0).real < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossing_speed_fd(delta_bar: float, c0: float, tau0: float,
                      step: float = 1e-4) -> float:
    """d Re(rightmost root)/d tau by central difference across tau0."""
    above = rightmost_root(tau0 + step, delta_bar, c0).real
    below = rightmost_root(tau0 - step, delta_bar, c0).real
    return (above - below) / (2.0 * step)


def scalar_normal_form(p_bar: float, delta_bar: float, tau0: float,
                       omega: float) -> dict:
    """Textbook Hassard data for the scalar equation at a crossing.

    Works in unrescaled time with eigenvector q(theta) = e^{i omega theta};
    returns the g coefficients, the corrections E (second harmonic) and
    F (zero mode), C1(0) and the analytic crossing speed.
    """
    c0 = math.log(p_bar / delta_bar)
    b1 = p_bar * (1.0 - c0) * math.exp(-c0)
    b2 = p_bar * (c0 - 2.0) * math.exp(-c0)
    b3 = p_bar * (3.0 - c0) * math.exp(-c0)
    rot = cmath.exp(-1j * omega * tau0)
    pairing = 1.0 / (1.0 + tau0 * b1 * rot)

    g20 = pairing * b2 * rot**2
    g11 = pairing * b2
    g02 = pairing * b2 * rot.conjugate() ** 2

    second = b2 * rot**2 / (2j * omega + delta_bar - b1 * rot**2)
    zero = b2 / (delta_bar - b1)
    w20_delay = (
        (1j * g20 / omega) * rot
        + (1j * g02.conjugate() / (3.0 * omega)) * rot.conjugate()
        + second * rot**2
    )
    w11_delay = (
        (-1j * g11 / omega) * rot
        + (1j * g11.conjugate() / omega) * rot.conjugate()
        + zero
    )
    g21 = pairing * (
        2.0 * b2 * w11_delay * rot + b2 * w20_delay * rot.conjugate()
        + b3 * rot
    )
    c1 = (
        1j / (2.0 * omega) * (g20 * g11 - 2.0 * abs(g11) ** 2
                              - abs(g02) ** 2 / 3.0)
        + g21 / 2.0
    )
    speed = -1j * omega * b1 * rot / (1.0 + tau0 * b1 * rot)
    return {
        "g20": g20, "g11": g11, "g02": g02, "g21": g21,
        "second_harmonic": second, "zero_mode": zero,
        "c1": c1, "crossing_speed": speed,
    }


def stepped_crossing(model, max_step: float = 0.025):
    """Raw crossing (u, z, beta, omega, theta) at ``model.r`` by the r-walk.

    Equal steps in r of at most ``max_step`` from the closed-form limit;
    each step runs the steady Newton iteration from the previous steady
    state and corrects the crossing from the previous state.  No sign or
    phase normalization.
    """
    steps = max(1, math.ceil(model.r / max_step))
    state = _limit_state(model)
    u = np.full(model.grid.n_points, model.coeffs.c0)
    for k in range(1, steps + 1):
        stage = model.with_r(model.r * k / steps)
        u = _newton(stage, u).u
        state, _ = _hopf_newton(state, stage, u)
    return (u, *state)


def corrections_at(sol, tau: float):
    """The (second-harmonic, zero-mode) corrections solved at delay ``tau``."""
    pf2 = sol.model.coeffs.p * eval_nonlinearity(sol.u, order=2)
    second = -sol.r * np.exp(-2j * sol.nu * tau) * normalform._solve_shifted(
        sol, 2j * sol.nu, tau, pf2 * sol.psi**2, "second_harmonic_correction")
    zero = -sol.r * normalform._solve_shifted(
        sol, 0.0 + 0.0j, tau, pf2 * np.abs(sol.psi) ** 2, "zero_mode_correction")
    return second, zero


def threshold_report(sol, n: int):
    """Normal-form report at threshold n, corrections solved at tau_n."""
    tau_n = sol.tau_n(n)
    g = normalform.normal_form_coefficients(sol, n, *corrections_at(sol, tau_n))
    c1 = normalform.first_lyapunov_coefficient(g, sol.nu, tau_n)
    dmu = transversality(sol, n)
    return normalform.NormalFormReport(
        n, tau_n, sol.tau_hat_n(n), g, c1, dmu,
        *normalform.bifurcation_verdict(c1, dmu, n))
