"""nsplab: steady states and small-perturbation dynamics of a viscous charged
gas in the exterior of a ball, with energy diagnostics and empirical checks of
the functional inequalities the stability analysis rests on."""

from .energy import StabilityVerdict, TimeSeries, check_theorem_bound
from .errors import (ConfigError, DegenerateFieldError, EvaluationDomainError,
                     IterationError, MonotonicityError, NsplabError,
                     ParameterError, SimulationAbort, VacuumError)
from .evolve import (PerturbationState, SimConfig, init_perturbation,
                     run_simulation)
from .grids import (FluidParams, RadialField, RadialGrid, build_radial_grid,
                    integrate, radial_derivative, sobolev_norm,
                    vector_gradient_norm, vector_sobolev_norm,
                    weighted_l2_norm)
from .elliptic import (PoissonSolution, hessian_norm_radial,
                       solve_poisson_neumann, solve_shifted)
from .steady import (BackgroundProfile, CertReport, SteadyState,
                     check_subsuper, make_profile, profile_supersolution,
                     rho_from_phi, solve_steady_monotone,
                     steady_regularity_report, subsolution_phi,
                     supersolution_phi)

__version__ = "0.1.0"

# the public surface; the submodules hold the rest
__all__ = [
    "BackgroundProfile", "CertReport", "ConfigError", "DegenerateFieldError",
    "EvaluationDomainError", "FluidParams", "IterationError",
    "MonotonicityError", "NsplabError", "ParameterError", "PerturbationState",
    "PoissonSolution", "RadialField", "RadialGrid", "SimConfig",
    "SimulationAbort", "StabilityVerdict", "SteadyState", "TimeSeries",
    "VacuumError", "build_radial_grid", "check_subsuper",
    "check_theorem_bound", "hessian_norm_radial", "init_perturbation",
    "integrate", "make_profile", "profile_supersolution", "radial_derivative",
    "rho_from_phi", "run_simulation", "sobolev_norm", "solve_poisson_neumann",
    "solve_shifted", "solve_steady_monotone", "steady_regularity_report",
    "subsolution_phi", "supersolution_phi", "vector_gradient_norm",
    "vector_sobolev_norm", "weighted_l2_norm",
]
