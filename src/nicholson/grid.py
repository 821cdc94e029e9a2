"""Uniform 1-D grid with trapezoid quadrature.

Every field in the workbench lives on a :class:`Grid1D`: a uniform mesh on
the closed interval [0, length] including both endpoints.  The grid owns the
quadrature weights used for all spatial integrals and averages, so that the
discrete Laplacian, the steady-state solver and the bifurcation machinery all
agree about what "the mean of a field" is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh on [0, length] with trapezoid quadrature weights.

    Parameters
    ----------
    length : float
        Domain size, positive and finite.
    n_points : int
        Number of nodes including both endpoints, at least 3.

    Attributes
    ----------
    spacing : float
        Node distance ``length / (n_points - 1)``.
    nodes : ndarray
        Node coordinates, ``nodes[0] == 0`` and ``nodes[-1] == length``.
    weights : ndarray
        Trapezoid quadrature weights; they sum to ``length``.
    """

    length: float
    n_points: int
    spacing: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.length < np.inf:
            raise ValueError(f"length must be positive and finite, got {self.length}")
        if self.n_points < 3:
            raise ValueError(f"n_points must be at least 3, got {self.n_points}")
        h = self.length / (self.n_points - 1)
        nodes = np.linspace(0.0, self.length, self.n_points)
        weights = np.full(self.n_points, h)
        weights[0] = weights[-1] = 0.5 * h
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def integrate(self, values: np.ndarray) -> float | complex:
        """Trapezoid approximation of the integral of a nodal field."""
        values = np.asarray(values)
        if values.shape[-1] != self.n_points:
            raise ValueError(
                f"field has {values.shape[-1]} values, grid has {self.n_points} nodes"
            )
        return values @ self.weights


def spatial_average(values: np.ndarray, grid: Grid1D) -> float | complex:
    """Quadrature mean of a nodal field over the domain.

    Exact for fields that are linear in x; second-order accurate otherwise.
    Linear in the field values by construction.
    """
    return grid.integrate(values) / grid.length
