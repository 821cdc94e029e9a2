"""Model data: birth nonlinearity, coefficient fields, parameter bundle.

The population model is a delayed reaction-diffusion equation on an interval,

    du/dt = d * Laplace(u) + p(x) * u(x, t - tau_hat) * exp(-a u(x, t - tau_hat))
            - delta(x) * u,

with no-flux boundary conditions, spatially varying birth rate p(x) > 0 and
death rate delta(x) > 0.  Scaling time by d, delay by 1/d and density by a
gives the normalized form used by the solvers,

    du/dt = Laplace(u) + r p(x) f(u(x, t - tau)) - r delta(x) u,

with f(u) = u exp(-u) and r = 1/d.  The scalar

    c0 = log(mean(p) / mean(delta))

controls everything in the large-diffusion regime: positive steady states
exist only for c0 > 0 and delay-driven oscillations only for c0 > 2.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, spatial_average


def eval_nonlinearity(u, order: int = 0):
    """Evaluate f(u) = u * exp(-u) or one of its first three derivatives.

    Parameters
    ----------
    u : array_like
        Points of evaluation, any shape.
    order : int
        0 for f, 1..3 for the corresponding derivative.

    Returns
    -------
    ndarray or scalar
        f has the closed-form derivatives
        f'(u) = (1 - u) e^{-u}, f''(u) = (u - 2) e^{-u}, f'''(u) = (3 - u) e^{-u}.
    """
    u = np.asarray(u, dtype=float)
    decay = np.exp(-u)
    if order == 0:
        out = u * decay
    elif order == 1:
        out = (1.0 - u) * decay
    elif order == 2:
        out = (u - 2.0) * decay
    elif order == 3:
        out = (3.0 - u) * decay
    else:
        raise ValueError(f"order must be 0, 1, 2 or 3, got {order}")
    return out if out.ndim else float(out)


# Parametric coefficient: base + amplitude*sin(wavenumber*x + phase), sin or cos.
_PARAMETRIC = re.compile(
    r"""^\s*(?P<base>[-+]?[\d.eE+-]+)\s*
        \+\s*(?P<amp>[-+]?[\d.eE+-]+)\s*\*\s*
        (?P<kind>sin|cos)\(\s*(?P<wav>[-+]?[\d.eE+-]+)\s*\*\s*x\s*
        (?P<psign>[-+])\s*(?P<phase>[\d.eE+-]+)\s*\)\s*$""",
    re.VERBOSE,
)


def coefficient_values(spec, grid: Grid1D) -> np.ndarray:
    """Nodal values of one coefficient field, as a new array.

    ``spec`` is a number, the text of a number, the text of a sinusoid
    ``"base + amplitude*sin(wavenumber*x + phase)"`` (``cos`` too, and
    ``- phase``), or a 1-D array of nodal values, which is copied.
    """
    if isinstance(spec, str):
        match = _PARAMETRIC.match(spec)
        if match:
            try:
                base, amplitude, wavenumber, phase = (
                    float(match.group(key)) for key in ("base", "amp", "wav", "phase"))
            except ValueError as exc:
                raise ValueError(f"cannot parse coefficient {spec!r}: {exc}") from None
            if match.group("psign") == "-":
                phase = -phase
            wave = np.sin if match.group("kind") == "sin" else np.cos
            return base + amplitude * wave(wavenumber * grid.nodes + phase)
    elif np.ndim(spec):
        values = np.array(spec, dtype=float)
        if values.shape != (grid.n_points,):
            raise ValueError(
                f"nodal values of shape {values.shape} do not match the "
                f"grid's {grid.n_points} nodes"
            )
        return values
    try:
        return np.full(grid.n_points, float(spec))
    except ValueError:
        raise ValueError(
            f"cannot parse coefficient {spec!r}; expected a number or "
            "'base + amplitude*sin(wavenumber*x + phase)' with sin or cos"
        ) from None


class CoefficientError(ValueError):
    """Coefficient ``name`` (``"p"`` or ``"delta"``) is not finite and positive."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


@dataclass(frozen=True)
class CoefficientField:
    """Sampled birth/death coefficients with their means and c0.

    Attributes
    ----------
    p, delta : ndarray
        Nodal birth and death rates, strictly positive.
    p_bar, delta_bar : float
        Quadrature means over the domain.
    c0 : float
        ``log(p_bar / delta_bar)``, the constant steady state of the
        large-diffusion limit.
    """

    p: np.ndarray
    delta: np.ndarray
    p_bar: float
    delta_bar: float
    c0: float


def build_coefficients(p, delta, grid: Grid1D) -> CoefficientField:
    """Sample both coefficients on the grid and compute means and c0.

    ``p`` and ``delta`` each take any form :func:`coefficient_values` reads.

    Raises
    ------
    CoefficientError
        A ValueError: either coefficient is not finite and strictly
        positive at every node.
    """
    p = coefficient_values(p, grid)
    delta = coefficient_values(delta, grid)
    for name, values in (("p", p), ("delta", delta)):
        bad = ~((values > 0) & (values < np.inf))
        if bad.any():
            raise CoefficientError(name, (
                f"coefficient {name} must be finite and strictly positive; "
                f"sample {values[bad][0]} at x = {grid.nodes[bad][0]:.6g}"
            ))
    p.flags.writeable = False
    delta.flags.writeable = False
    p_bar = float(spatial_average(p, grid))
    delta_bar = float(spatial_average(delta, grid))
    return CoefficientField(
        p=p,
        delta=delta,
        p_bar=p_bar,
        delta_bar=delta_bar,
        c0=math.log(p_bar / delta_bar),
    )


@dataclass(frozen=True)
class ModelParams:
    """Parameter bundle for the normalized model.

    Parameters
    ----------
    r : float
        Inverse diffusion rate, ``r = 1/d``.  Nonnegative and finite; r = 0
        is the formal large-diffusion limit.
    a : float
        Density scaling of the birth response in the unnormalized model.
    tau : float
        Normalized delay, nonnegative and finite.  The unnormalized delay
        is ``tau_hat = r * tau``.
    grid : Grid1D
    coeffs : CoefficientField
    """

    r: float
    a: float
    tau: float
    grid: Grid1D
    coeffs: CoefficientField

    def __post_init__(self) -> None:
        if not 0 <= self.r < math.inf:
            raise ValueError(f"r must be nonnegative and finite, got {self.r}")
        if not 0 < self.a < math.inf:
            raise ValueError(f"a must be positive and finite, got {self.a}")
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be nonnegative and finite, got {self.tau}")
        if self.coeffs.p.size != self.grid.n_points:
            raise ValueError("coefficients were sampled on a different grid")

    @property
    def d(self) -> float:
        """Diffusion rate of the unnormalized model, ``1/r``."""
        return math.inf if self.r == 0 else 1.0 / self.r

    @property
    def tau_hat(self) -> float:
        """Delay of the unnormalized model, ``r * tau``."""
        return self.r * self.tau

    def coupling(self, u, delay_factor, rate):
        """``delay_factor p f'(u) - delta - rate``: the linearization about ``u``
        has the eigenvalue operator M(mu, tau) = L + r diag(coupling(u, e^{-mu
        tau}, mu / r)), which the steady, Hopf and normal-form solves factor."""
        return (delay_factor * self.coeffs.p * eval_nonlinearity(u, order=1)
                - self.coeffs.delta - rate)

    def with_r(self, r: float, tau: float | None = None) -> "ModelParams":
        """Copy of the bundle at a different r (and optionally delay)."""
        return ModelParams(
            r=r,
            a=self.a,
            tau=self.tau if tau is None else tau,
            grid=self.grid,
            coeffs=self.coeffs,
        )
