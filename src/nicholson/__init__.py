"""Workbench for the spatially heterogeneous diffusive blowflies equation.

The package studies the delayed reaction-diffusion model

    du/dt = d Laplace(u) + p(x) u(x, t - tau_hat) exp(-a u(x, t - tau_hat))
            - delta(x) u,

with no-flux boundaries on an interval, in the large-diffusion regime
r = 1/d -> 0.  It computes positive steady states, delay thresholds at
which a conjugate eigenvalue pair crosses the imaginary axis, the
direction and orbit stability of the resulting Hopf bifurcations, and
cross-validates all of it against time-domain simulation of the PDE and
of its spatially averaged scalar delay equation.
"""

from .grid import DiscreteLaplacian, Grid1D, spatial_average
from .model import (
    CoefficientField,
    ModelParams,
    build_coefficients,
    coefficient_values,
    eval_nonlinearity,
)
from .steady import (
    NewtonConvergenceError,
    SteadyState,
    solve_steady_state,
    steady_residual,
    write_steady_csv,
)
from .hopf import (
    CrossingError,
    HopfSolution,
    NoHopfError,
    SimplicityWarning,
    SolvabilityError,
    continue_hopf,
    limit_nondegeneracy_integral,
    limit_phase,
    limit_transversality_real,
    nondegeneracy_integral,
    solve_poisson_meanzero,
    transversality,
    write_hopf_csv,
)
from .normalform import (
    GCoefficients,
    NormalFormReport,
    ResonanceError,
    bifurcation_verdict,
    first_lyapunov_coefficient,
    limit_lyapunov_real,
    limit_pairing_factor,
    limit_second_harmonic_ratio,
    limit_zero_mode_ratio,
    lyapunov_sign_bounds,
    normal_form_coefficients,
    normal_form_report,
    second_harmonic_correction,
    write_normalform_csv,
    zero_mode_correction,
)
from .simulate import (
    BlowUpError,
    PeriodEstimate,
    SimulationTrace,
    default_history,
    estimate_period,
    simulate_average_dde,
    simulate_pde,
    write_snapshot_csv,
    write_spacetime_csv,
    write_trace_csv,
)
from .config import ConfigError, RunConfig, load_config

__version__ = "0.1.0"
