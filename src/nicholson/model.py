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


@dataclass(frozen=True)
class CoefficientSpec:
    """Recipe for one spatial coefficient field.

    Three flavors: a constant, a sinusoid ``base + amplitude*sin(wavenumber*x
    + phase)`` (or cos), or explicit nodal samples.  The textual forms parsed
    by :meth:`parse` are a bare number or the five-number sinusoid above.
    """

    kind: str  # 'const' | 'sin' | 'cos' | 'samples'
    base: float = 0.0
    amplitude: float = 0.0
    wavenumber: float = 0.0
    phase: float = 0.0
    samples: np.ndarray | None = None

    @classmethod
    def constant(cls, value: float) -> "CoefficientSpec":
        return cls(kind="const", base=float(value))

    @classmethod
    def sinusoid(
        cls,
        base: float,
        amplitude: float,
        wavenumber: float,
        phase: float = 0.0,
        kind: str = "sin",
    ) -> "CoefficientSpec":
        if kind not in ("sin", "cos"):
            raise ValueError(f"kind must be 'sin' or 'cos', got {kind!r}")
        return cls(
            kind=kind,
            base=float(base),
            amplitude=float(amplitude),
            wavenumber=float(wavenumber),
            phase=float(phase),
        )

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "CoefficientSpec":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("samples must be a 1-D array of nodal values")
        return cls(kind="samples", samples=values)

    @classmethod
    def parse(cls, text: str) -> "CoefficientSpec":
        """Parse ``"10 + 1*sin(1*x + 0)"``, ``"2 + 1*cos(0.2*x + 0)"`` or ``"2.5"``."""
        match = _PARAMETRIC.match(text)
        if match:
            sign = -1.0 if match.group("psign") == "-" else 1.0
            try:
                return cls.sinusoid(
                    base=float(match.group("base")),
                    amplitude=float(match.group("amp")),
                    wavenumber=float(match.group("wav")),
                    phase=sign * float(match.group("phase")),
                    kind=match.group("kind"),
                )
            except ValueError as exc:
                raise ValueError(f"cannot parse coefficient {text!r}: {exc}") from None
        try:
            return cls.constant(float(text))
        except ValueError:
            raise ValueError(
                f"cannot parse coefficient {text!r}; expected a number or "
                "'base + amplitude*sin(wavenumber*x + phase)' with sin or cos"
            ) from None

    @classmethod
    def from_csv(cls, path, grid: Grid1D) -> "CoefficientSpec":
        """Load nodal samples from a two-column CSV with header ``x,value``.

        The x column must match the grid nodes in order.
        """
        raw = np.genfromtxt(path, delimiter=",", names=True)
        names = raw.dtype.names
        if names is None or len(names) != 2 or names[0] != "x":
            raise ValueError(f"{path}: expected CSV header 'x,value'")
        x = np.atleast_1d(raw[names[0]])
        values = np.atleast_1d(raw[names[1]])
        if x.size != grid.n_points:
            raise ValueError(
                f"{path}: {x.size} rows but grid has {grid.n_points} nodes"
            )
        if not np.allclose(x, grid.nodes, atol=1e-9 * max(1.0, grid.length)):
            raise ValueError(f"{path}: x column does not match the grid nodes")
        return cls.from_samples(values)

    def sample(self, grid: Grid1D) -> np.ndarray:
        """Evaluate the coefficient on the grid nodes."""
        if self.kind == "const":
            return np.full(grid.n_points, self.base)
        if self.kind in ("sin", "cos"):
            wave = np.sin if self.kind == "sin" else np.cos
            return self.base + self.amplitude * wave(
                self.wavenumber * grid.nodes + self.phase
            )
        if self.kind == "samples":
            if self.samples is None or self.samples.size != grid.n_points:
                raise ValueError(
                    "sampled coefficient does not match the grid "
                    f"({0 if self.samples is None else self.samples.size} values, "
                    f"{grid.n_points} nodes)"
                )
            return np.array(self.samples, dtype=float)
        raise ValueError(f"unknown coefficient kind {self.kind!r}")


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


def build_coefficients(
    p_spec: CoefficientSpec, delta_spec: CoefficientSpec, grid: Grid1D
) -> CoefficientField:
    """Sample the coefficient specs on the grid and compute means and c0.

    Raises
    ------
    ValueError
        If either coefficient is not finite and strictly positive at every
        node.
    """
    p = p_spec.sample(grid)
    delta = delta_spec.sample(grid)
    for name, values in (("p", p), ("delta", delta)):
        bad = ~((values > 0) & (values < np.inf))
        if bad.any():
            raise ValueError(
                f"coefficient {name} must be finite and strictly positive; "
                f"sample {values[bad][0]} at x = {grid.nodes[bad][0]:.6g}"
            )
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

    def with_r(self, r: float, tau: float | None = None) -> "ModelParams":
        """Copy of the bundle at a different r (and optionally delay)."""
        return ModelParams(
            r=r,
            a=self.a,
            tau=self.tau if tau is None else tau,
            grid=self.grid,
            coeffs=self.coeffs,
        )
