"""Uniform 1-D grid with trapezoid quadrature and its Neumann Laplacian.

Every field in the workbench lives on a :class:`Grid1D`: a uniform mesh on
the closed interval [0, length] including both endpoints.  The grid owns the
quadrature weights used for all spatial integrals and averages, and the one
discrete no-flux Laplacian that the steady-state solver, the bifurcation
machinery and the time stepper all act through, so that they agree about
what "the mean of a field" is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._lapack import dgttrf, dgttrs, dpttrf, dpttrs, zgttrf, zgttrs


@dataclass(frozen=True)
class DiscreteLaplacian:
    """Second-order Neumann Laplacian with mirrored ghost nodes.

    ``main``, ``upper`` and ``lower`` are the three diagonals.  Interior
    rows are the standard (1, -2, 1)/h^2 stencil.  At each boundary the
    ghost node is mirrored (u[-1] = u[1]), giving the row (-2, 2)/h^2, so
    constants are annihilated exactly and the matrix is symmetric under
    the trapezoid weights.

    ``apply`` works for real and complex nodal fields; ``factor`` solves
    the shifted systems of the steady Newton (real shift), of the bordered
    Poisson and Hopf solves of :mod:`.hopf` and of the normal-form
    corrections of :mod:`.normalform` (complex shift); ``weighted_factor``
    solves the Crank-Nicolson systems of the time stepper, multiplied by
    :attr:`symmetrizer` to make them symmetric positive definite.
    """

    main: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    @property
    def symmetrizer(self) -> np.ndarray:
        """W = diag(1/2, 1, ..., 1, 1/2), for which W L is symmetric; bit
        for bit the trapezoid weights over the spacing."""
        return np.r_[0.5, np.ones(self.main.size - 2), 0.5]

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values)
        out = self.main * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.lower * v[:-1]
        return out

    def factor(self, shift: np.ndarray | complex) -> partial:
        """One ``gttrf`` factor of L + diag(shift), as its solver.

        A real ``shift`` makes a ``dgttrf`` factor, a complex one a
        ``zgttrf`` factor.  Returns ``dgttrs`` or ``zgttrs`` bound to the
        factor: ``solve(b)[0]`` is the solution for the right-hand side
        ``b``, one column per system if ``b`` is two-dimensional.  A
        partial, not a function, so a solve adds no Python frame; its
        ``args``, ``(dl, d, du, du2, ipiv)``, are also the factor that
        ``?gtcon`` reads to estimate the condition number.

        Raises
        ------
        numpy.linalg.LinAlgError
            If elimination meets an exactly zero pivot.
        """
        gttrf, gttrs = ((zgttrf, zgttrs) if np.iscomplexobj(shift)
                        else (dgttrf, dgttrs))
        *lu, info = gttrf(self.lower, self.main + shift, self.upper)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"matrix is exactly singular: pivot U[{info - 1}, {info - 1}] "
                "is zero")
        return partial(gttrs, *lu)

    def weighted_factor(self, scale: float) -> partial:
        """One ``pttrf`` factor of W (I + scale L), as its solver.

        W is :attr:`symmetrizer`.  W L is exactly symmetric and negative
        semidefinite, so for ``scale <= 0`` the matrix is symmetric
        positive definite and its LDL^T factor needs no pivoting.  W only
        halves the two end rows, which is exact, so the matrix rounds as
        I + scale L does; the trapezoid weights themselves would round
        every entry again and let a solve lose the mass 1^T W u at about
        4e-13 a step at d = 100.  Returns ``dpttrs`` bound to the factor,
        used as :meth:`factor`'s solver is; ``solve(b, True)`` writes the
        solution over ``b``.

        Raises
        ------
        numpy.linalg.LinAlgError
            If the matrix is not positive definite.
        """
        weights = self.symmetrizer
        *ldl, info = dpttrf(weights * (1.0 + scale * self.main),
                            scale * weights[:-1] * self.upper)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"matrix is not positive definite: pivot D[{info - 1}] "
                "is not positive")
        return partial(dpttrs, *ldl)


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh on [0, length] with trapezoid quadrature weights.

    Grids compare and hash by ``(length, n_points)``; every other attribute
    is derived from those two.

    Parameters
    ----------
    length : float
        Domain size, positive and finite, with 1/spacing^2 finite too.
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
    laplacian : DiscreteLaplacian
        The Neumann Laplacian on the nodes, with read-only diagonals.
    """

    length: float
    n_points: int
    spacing: float = field(init=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    laplacian: DiscreteLaplacian = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.length < np.inf:
            raise ValueError(f"length must be positive and finite, got {self.length}")
        n = self.n_points
        if n < 3:
            raise ValueError(f"n_points must be at least 3, got {n}")
        h = self.length / (n - 1)
        try:
            inv_h2 = 1.0 / h**2
        except (OverflowError, ZeroDivisionError):  # h^2 out of range
            inv_h2 = math.inf
        if not inv_h2 < math.inf:
            raise ValueError(
                f"length {self.length:.6g} on {n} nodes gives spacing {h:.6g}, "
                "whose 1/spacing^2 is not finite")
        nodes = np.linspace(0.0, self.length, n)
        weights = np.full(n, h)
        weights[0] = weights[-1] = 0.5 * h
        main = np.full(n, -2.0 * inv_h2)
        upper = np.full(n - 1, inv_h2)
        lower = np.full(n - 1, inv_h2)
        upper[0] = 2.0 * inv_h2
        lower[-1] = 2.0 * inv_h2
        for array in (nodes, weights, main, upper, lower):
            array.flags.writeable = False
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "laplacian", DiscreteLaplacian(main, upper, lower))

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
