"""nsplab: steady states and small-perturbation dynamics of a viscous charged
gas in the exterior of a ball, with energy diagnostics and empirical checks of
the functional inequalities the stability analysis rests on."""

from .energy import (EnergySample, StabilityVerdict, TimeSeries,
                     basic_energy_identity_residual, check_theorem_bound,
                     dissipation_D, energy_E, mass)
from .errors import (ConfigError, DegenerateFieldError, EvaluationDomainError,
                     IterationError, MonotonicityError, NsplabError,
                     ParameterError, SimulationAbort, VacuumError)
from .evolve import (PerturbationState, SimConfig, Tendencies, compute_rhs,
                     init_perturbation, run_simulation, step_imex)
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
