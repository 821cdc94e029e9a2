"""
Direction and stability of the bifurcating periodic orbit
=========================================================

Evaluates the Hopf normal form at the first threshold: the cubic
coefficient C1(0), the transversal crossing speed, and the derived
verdict (forward bifurcation, orbitally stable cycle).  The finite-r
numbers are then compared with their closed-form r -> 0 limits, and the
sign certificate guaranteeing Re C1 < 0 for every c0 > 2 is sampled.
"""

import numpy as np

from nicholson import (
    Grid1D,
    ModelParams,
    build_coefficients,
    continue_hopf,
    limit_lyapunov_real,
    lyapunov_sign_bounds,
    normal_form_report,
)

grid = Grid1D(length=3.0, n_points=301)
coeffs = build_coefficients("30 + 1*sin(1*x + 0)", "2 + 1*cos(0.2*x + 0)", grid)
model = ModelParams(r=1e-2, a=2.5, tau=0.0, grid=grid, coeffs=coeffs)
sol = continue_hopf(model)

# one call evaluates the ladder; the corrections are solved once for both
report, second = normal_form_report(sol, n_max=1)
print(f"first threshold tau_hat_0 = {report.tau_hat_n:.6f}")
print(f"C1(0)        = {report.c1:.6f}")
print(f"Re d mu/d tau = {report.dmu.real:.6e}")
print(f"mu2          = {report.mu2:.4f}")
print(f"direction    = {report.direction}")
print(f"orbit        = {report.orbit_stability}")

limit = limit_lyapunov_real(coeffs.c0, 0)
gap = abs(report.c1.real - limit) / abs(limit)
print(f"\nRe C1 at r = 0.01:  {report.c1.real:.6f}")
print(f"r -> 0 closed form: {limit:.6f}   (relative gap {gap:.2e})")

# at the second threshold the cycle direction is still known, but orbital
# stability is not decided by this reduction
print(f"\nn = 1 threshold: direction = {second.direction},"
      f" orbit = {second.orbit_stability}")

# the negativity of Re C1 in the limit is not an accident of one c0: both
# polynomial certificates stay negative across the oscillatory range
print("\nc0      limit Re C1    certificate A   certificate B")
for c0 in np.linspace(2.1, 6.0, 9):
    bound_a, bound_b = lyapunov_sign_bounds(c0)
    print(f"{c0:<7.3f} {limit_lyapunov_real(c0):< 14.6f}"
          f" {bound_a:< 15.6g} {bound_b:< 15.6g}")
