"""
Time-domain cross-check of the predicted threshold
==================================================

Simulates the full delay PDE just below and just above the first Hopf
threshold computed by the spectral pipeline, classifies the tails, and
compares the measured period against the linear prediction.  The same
experiment is repeated for the spatially averaged scalar equation, whose
threshold is the first rung of the crossing's ladder at r = 0.
"""

import math
from dataclasses import replace

from nicholson import (
    Grid1D,
    ModelParams,
    build_coefficients,
    continue_hopf,
    estimate_period,
    simulate_average_dde,
    simulate_pde,
)

grid = Grid1D(length=3.0, n_points=201)
coeffs = build_coefficients("30 + 1*sin(1*x + 0)", "2 + 1*cos(0.2*x + 0)", grid)
base = ModelParams(r=1e-2, a=2.5, tau=0.0, grid=grid, coeffs=coeffs)

sol = continue_hopf(base)
tau_hat_0 = sol.tau_hat_n(0)
linear_period = 2.0 * math.pi * sol.r / sol.nu
print(f"predicted threshold tau_hat_0 = {tau_hat_0:.6f}")
print(f"predicted period at onset     = {linear_period:.6f}\n")

for factor in (0.95, 1.05):
    tau_hat = factor * tau_hat_0
    model = replace(base, tau=tau_hat / base.r)
    trace = simulate_pde(model, t_end=800.0, dt=5e-3)
    est = estimate_period(trace)
    if est.oscillating:
        print(f"tau_hat = {factor:.2f} * tau_hat_0: oscillating,"
              f" period = {est.period:.4f}, amplitude = {est.amplitude:.5f}")
    else:
        print(f"tau_hat = {factor:.2f} * tau_hat_0: settled"
              f" (tail trend ratio {est.trend_ratio:.3f})")

# the spatially averaged scalar equation shows the same transition; its
# threshold is the limit of tau_hat_0 as d = 1/r grows without bound
tau_check_0 = continue_hopf(replace(base, r=0.0)).tau_hat_n(0)
print(f"\nscalar comparison: threshold tau_check_0 = {tau_check_0:.6f}")
for factor in (0.9, 1.1):
    trace = simulate_average_dde(
        coeffs.p_bar, coeffs.delta_bar, 2.5,
        tau_check=factor * tau_check_0, t_end=400.0,
    )
    est = estimate_period(trace)
    verdict = (
        f"oscillating, period = {est.period:.4f}"
        if est.oscillating else "settled"
    )
    print(f"  tau_check = {factor:.1f} * tau_check_0: {verdict}")
