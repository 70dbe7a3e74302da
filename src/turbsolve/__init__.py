"""Desk-scale solver and certification harness for a coupled eddy-viscosity
system with unbounded coefficients on a 2D rectangle.

The package solves the pair

    -div(nu(k) grad u) = f,   -div(a(k) grad k) = nu(k) |grad u|^2,

with homogeneous Dirichlet walls, through truncated approximations
(coefficients and source capped at a level n), and numerically certifies
the discrete counterparts of the pair's a-priori estimates: nonnegativity
of k, energy and dissipation bounds, the energy and weak product
identities, level-set extinction of u, stability of sqrt(nu(k)) in the H1
seminorm, and the sup bound on chi = k + u^2/(2 gamma) for proportional
coefficient pairs.
"""

from .coeffs import (
    HypothesisViolation,
    ViscosityModel,
    kirchhoff_A,
    kirchhoff_A_inv,
)
from .fixedpoint import (
    FrozenCoefficients,
    KStep,
    PicardConfig,
    SolveReport,
    SweepEntry,
    chi_decoupled_solve,
    dissipation_source,
    kirchhoff_k_solve,
    n_sweep,
    picard_solve,
    solve_k_given_u,
    solve_u_given_k,
)
from .grid import (
    Grid,
    ScalarField,
    integrate,
    linf_norm,
    make_grid,
    weighted_energy,
)
from .linsolve import (
    DiffusionOperator,
    LinearSolveError,
    LinearSolveReport,
    assemble,
    solve_spd,
)
from .verify import (
    InvariantReport,
    chi_bound_check,
    energy_identity_residual,
    full_report,
    holder_diagnostic,
    idee_residual,
    level_set_profile,
    lp_flux_norm,
    manufactured_errors,
    manufactured_forcing,
    manufactured_solution,
    sqrt_nu_seminorm,
    stampacchia_exponents,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "ScalarField",
    "integrate",
    "linf_norm",
    "make_grid",
    "weighted_energy",
    "HypothesisViolation",
    "ViscosityModel",
    "kirchhoff_A",
    "kirchhoff_A_inv",
    "DiffusionOperator",
    "LinearSolveError",
    "LinearSolveReport",
    "assemble",
    "solve_spd",
    "FrozenCoefficients",
    "KStep",
    "PicardConfig",
    "SolveReport",
    "SweepEntry",
    "chi_decoupled_solve",
    "dissipation_source",
    "kirchhoff_k_solve",
    "n_sweep",
    "picard_solve",
    "solve_k_given_u",
    "solve_u_given_k",
    "InvariantReport",
    "chi_bound_check",
    "energy_identity_residual",
    "full_report",
    "holder_diagnostic",
    "idee_residual",
    "level_set_profile",
    "lp_flux_norm",
    "manufactured_errors",
    "manufactured_forcing",
    "manufactured_solution",
    "sqrt_nu_seminorm",
    "stampacchia_exponents",
    "__version__",
]
