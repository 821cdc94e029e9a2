"""
Positive steady states of the heterogeneous blowflies model
===========================================================

Builds the two coefficient families used throughout the package from the
text of their sinusoids (a number or an array of nodal values works too),
solves for the positive steady state at several diffusion rates, and shows
the flattening of the profile toward the constant c0 = ln(p_bar / delta_bar)
as r = 1/d shrinks.
"""

import numpy as np

from nicholson import (
    Grid1D,
    ModelParams,
    build_coefficients,
    solve_steady_state,
)

grid = Grid1D(length=3.0, n_points=301)
delta = "2 + 1*cos(0.2*x + 0)"

for label, p_text in (
    ("low birth rate", "10 + 1*sin(1*x + 0)"),
    ("high birth rate", "30 + 1*sin(1*x + 0)"),
):
    coeffs = build_coefficients(p_text, delta, grid)
    print(f"--- {label}: p = {p_text}")
    print(f"    p_bar = {coeffs.p_bar:.6f}, delta_bar = {coeffs.delta_bar:.6f},"
          f" c0 = {coeffs.c0:.6f}")

    # the steady state exists for every r once c0 > 0; watch it flatten
    print("    r        min u      max u      max |u - c0|")
    for r in (1.0, 1e-1, 1e-2, 1e-3):
        model = ModelParams(r=r, a=2.5, tau=0.0, grid=grid, coeffs=coeffs)
        steady = solve_steady_state(model)
        spread = np.abs(steady.u - coeffs.c0).max()
        print(f"    {r:<8g} {steady.u.min():<10.6f} {steady.u.max():<10.6f}"
              f" {spread:.3e}")
    print()

# with constant coefficients the solver lands on the closed form exactly
const = build_coefficients(np.exp(3.0), 1.0, grid)
model = ModelParams(r=0.25, a=2.5, tau=0.0, grid=grid, coeffs=const)
steady = solve_steady_state(model)
print("constant coefficients, c0 = 3:"
      f" max |u - 3| = {np.abs(steady.u - 3.0).max():.3e}")
