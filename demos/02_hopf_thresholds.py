"""
Delay thresholds for the onset of oscillation
=============================================

Solves for the Hopf crossing at finite r, by one Newton solve from the
large-diffusion limit, for the oscillatory coefficient family, prints the
crossing data and the ladder of delay thresholds, and checks the
convergence of the finite-r solution toward the closed-form r -> 0 limit,
which is the same kind of crossing at r = 0.  Also shows the NoHopf
verdict for a family with c0 < 2, where no threshold exists.
"""

from nicholson import (
    Grid1D,
    ModelParams,
    NoHopfError,
    build_coefficients,
    continue_hopf,
    transversality,
)

grid = Grid1D(length=3.0, n_points=301)
delta = "2 + 1*cos(0.2*x + 0)"
coeffs = build_coefficients("30 + 1*sin(1*x + 0)", delta, grid)
print(f"c0 = {coeffs.c0:.6f} > 2, so a Hopf threshold ladder exists\n")

limit = continue_hopf(ModelParams(r=0.0, a=2.5, tau=0.0, grid=grid,
                                  coeffs=coeffs))
print(f"r -> 0 limit: theta0 = {limit.theta:.9f}, omega0 = {limit.omega:.9f}")

print("\nr          theta          omega          beta         "
      "|theta - theta0|")
for r in (1e-1, 1e-2, 1e-3):
    model = ModelParams(r=r, a=2.5, tau=0.0, grid=grid, coeffs=coeffs)
    sol = continue_hopf(model)
    print(f"{r:<10g} {sol.theta:<14.9f} {sol.omega:<14.9f}"
          f" {sol.beta:<12.9f} {abs(sol.theta - limit.theta):.3e}")

# the threshold ladder at a working diffusion rate, in original time units
model = ModelParams(r=1e-2, a=2.5, tau=0.0, grid=grid, coeffs=coeffs)
sol = continue_hopf(model)
print("\ndelay thresholds at r = 0.01 (original time):")
for n in range(4):
    print(f"  tau_hat_{n} = {sol.tau_hat_n(n):.6f}")

crossing = transversality(sol, 0)
print(f"\nRe d mu / d tau at the first threshold = {crossing.real:.6e} > 0"
      "\n(the eigenvalue pair crosses the imaginary axis transversally)")

# a low-birth family never oscillates, whatever the delay
quiet = build_coefficients("10 + 1*sin(1*x + 0)", delta, grid)
model = ModelParams(r=1e-2, a=2.5, tau=0.0, grid=grid, coeffs=quiet)
try:
    continue_hopf(model)
except NoHopfError as exc:
    print(f"\nlow birth rate family: {exc}")
