"""nsplab: steady states and small-perturbation dynamics of a viscous charged
gas in the exterior of a ball, with energy diagnostics and empirical checks of
the functional inequalities the stability analysis rests on."""

from .energy import StabilityVerdict, TimeSeries, check_theorem_bound
from .errors import (ConfigError, DegenerateFieldError, EvaluationDomainError,
                     IterationError, MonotonicityError, NsplabError,
                     ParameterError, SimulationAbort, VacuumError)
from .evolve import (PerturbationState, SimConfig, init_perturbation,
                     run_simulation)
from .grids import FluidParams, RadialField, RadialGrid, weighted_l2_norm
from .steady import (BackgroundProfile, CertReport, SteadyState,
                     check_subsuper, make_profile, profile_supersolution,
                     solve_steady_monotone, steady_regularity_report,
                     subsolution_phi)

__version__ = "0.1.0"

# the public surface; the submodules hold the rest
__all__ = [
    "BackgroundProfile", "CertReport", "ConfigError", "DegenerateFieldError",
    "EvaluationDomainError", "FluidParams", "IterationError",
    "MonotonicityError", "NsplabError", "ParameterError", "PerturbationState",
    "RadialField", "RadialGrid", "SimConfig", "SimulationAbort",
    "StabilityVerdict", "SteadyState", "TimeSeries", "VacuumError",
    "check_subsuper", "check_theorem_bound", "init_perturbation",
    "make_profile", "profile_supersolution", "run_simulation",
    "solve_steady_monotone", "steady_regularity_report", "subsolution_phi",
    "weighted_l2_norm",
]
