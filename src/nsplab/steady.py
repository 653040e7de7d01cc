"""Construction and certification of the zero-velocity steady state.

The density/potential pair obeys  Lap(Phi) = rho - b  together with the
compatibility  grad(Phi) = gamma * rho**(gamma-2) * grad(rho),  far-field
density c_star, and a homogeneous Neumann condition at the inner sphere.
Eliminating rho turns this into the semilinear problem

    Lap(Phi) - F(Phi) + b = 0,
    F(Phi) = ((gamma-1)/gamma * (Phi + c1))**(1/(gamma-1)),
    c1 = gamma/(gamma-1) * c_star**(gamma-1),

with the log branch F(Phi) = c_star * exp(Phi) at gamma = 1.  The
normalization F(0) = c_star pins every constant: Phi == 0 corresponds to the
flat state rho == c_star.

Explicit bracketing solutions exist when the background stays inside
c_star <= b <= c_star + 1/r: zero from below, and from above

    gamma in (1, 2]:  Phi_sup = gamma/(gamma-1) * (c_star + 1/r)**(gamma-1) - c1,
    gamma == 1:       Phi_sup = log(1 + 1/(c_star * r)),
    general gamma>1:  Phi_sup = c0 * r**(-eps)   (envelope background bound).

The solver runs the shifted fixed-point iteration

    (Lap - M) Phi_{k+1} = F(Phi_k) - b - M Phi_k,      M > sup F',

from both brackets in lockstep; the discrete comparison principle makes the
two sequences monotone and keeps them ordered, so once they agree within tol
their average is within tol/2 of the solution, which is the uniqueness
certificate.

The background profile carries the gas (FluidParams) it was built for, and
the gas owns F and F' (FluidParams.density, FluidParams.density_slope), so
the solver, the brackets, the certificates and the steady state read them
from profile.fluid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .elliptic import laplacian
from .errors import IterationError, MonotonicityError, ParameterError
from .grids import (FluidParams, RadialField, RadialGrid, _check_count,
                    _hessian_norms, _integrals, _vector_hessian_norms,
                    cutoff, differentiate, weighted_l2_norm)

PROFILE_KINDS = ("constant", "admissible_bump", "general_gamma_envelope")

# backgrounds return to c_star beyond the grids.cutoff of the effective
# shell width so truncation does not fight the far field.  The effective
# width is capped at FAR_FIELD_CAP_RADII inner radii: anything beyond that is
# far-field territory reserved for the truncation, so widening the box leaves
# the physical problem unchanged.
FAR_FIELD_CAP_RADII = 15.0


def effective_length(r_inner: float, r_outer: float) -> float:
    return min(r_outer - r_inner, FAR_FIELD_CAP_RADII * r_inner)


@dataclass(frozen=True)
class BackgroundProfile:
    """Prescribed background charge density b(r) with its admissibility data
    and the gas it was built for: the steady problem of this background is
    solved at fluid.gamma and fluid.c_star."""

    kind: str
    fluid: FluidParams
    amplitude: float
    values: RadialField
    envelope_c0: float | None = None
    envelope_eps: float | None = None


@dataclass(frozen=True)
class CertReport:
    """Pointwise sign certificate for a sub- or supersolution candidate."""

    role: str
    passed: bool
    max_residual: float
    min_residual: float
    boundary_normal_derivative: float
    tol: float


@dataclass(frozen=True)
class SteadyState:
    """Converged steady pair with its certificates and the settings of the
    monotone iteration that solved it.  The brackets step in lockstep, so
    iterations_super == iterations_sub."""

    rho_tilde: RadialField
    phi_tilde: RadialField
    profile: BackgroundProfile
    residual_elliptic: float
    bounds_ok: bool
    iterations_super: int
    iterations_sub: int
    limit_gap: float
    monotonicity_defect: float
    tol: float
    max_iter: int


def make_profile(kind: str, fluid: FluidParams, amplitude: float,
                 grid: RadialGrid, envelope_c0: float = 1.0,
                 envelope_eps: float = 0.5) -> BackgroundProfile:
    """Build a background profile of the requested kind for the gas fluid.

    constant:               b == c_star
    admissible_bump:        b = c_star + amplitude * s(r) / r, smooth mask s
    general_gamma_envelope: b tracking the power-law envelope bound for the
                            chosen (c0, eps), cut off near R_max
    """
    if kind not in PROFILE_KINDS:
        raise ParameterError(f"unknown profile kind {kind!r}")
    if not (0.0 <= amplitude <= 1.0):
        raise ParameterError(f"amplitude must lie in [0, 1], got {amplitude}")

    c_star = fluid.c_star
    r = grid.r
    mask = cutoff(r, grid.r_inner, effective_length(grid.r_inner, grid.r_outer))
    if kind == "constant":
        vals = np.full_like(r, c_star)
        return BackgroundProfile(kind, fluid, amplitude, RadialField(vals, grid))
    if kind == "admissible_bump":
        vals = c_star + amplitude * mask / r
        return BackgroundProfile(kind, fluid, amplitude, RadialField(vals, grid))

    # envelope: b = F(amplitude * c0 * r**(-eps) * s(r)) for the gamma branch
    if fluid.gamma <= 1.0:
        raise ParameterError("general_gamma_envelope requires gamma > 1")
    if not (0.0 < envelope_eps < 1.0):
        raise ParameterError(f"envelope_eps must lie in (0, 1), got {envelope_eps}")
    if not (np.isfinite(envelope_c0) and envelope_c0 > 0.0):
        raise ParameterError(
            f"envelope_c0 must be finite and > 0, got {envelope_c0}")
    phi_env = amplitude * envelope_c0 * r ** (-envelope_eps) * mask
    vals = fluid.density(phi_env)
    return BackgroundProfile(kind, fluid, amplitude, RadialField(vals, grid),
                             envelope_c0=envelope_c0, envelope_eps=envelope_eps)


def subsolution_phi(grid: RadialGrid) -> RadialField:
    """The zero potential; a subsolution whenever b >= c_star."""
    return grid.zeros()


def profile_supersolution(profile: BackgroundProfile) -> RadialField:
    """The explicit supersolution that brackets the steady problem for this
    background: the envelope c0 * r**(-eps) (any gamma > 1) for the envelope
    profile; otherwise the closed form of the gas, the power law for gamma
    in (1, 2] and the log form at gamma = 1."""
    grid, fluid = profile.values.grid, profile.fluid
    gamma, r = fluid.gamma, grid.r
    if profile.kind == "general_gamma_envelope":
        if gamma <= 1.0:
            raise ParameterError("envelope supersolution requires gamma > 1")
        return grid.field(profile.envelope_c0 * r ** (-profile.envelope_eps))
    if gamma == 1.0:
        return grid.field(np.log(1.0 + 1.0 / (fluid.c_star * r)))
    if gamma > 2.0:
        raise ParameterError(
            "explicit supersolution needs gamma in [1, 2]; use the envelope form")
    return grid.field(gamma / (gamma - 1.0) * (fluid.c_star + 1.0 / r)
                      ** (gamma - 1.0) - fluid._c1())


def check_subsuper(phi: RadialField, role: str, profile: BackgroundProfile, *,
                   tol: float = 1e-8) -> CertReport:
    """Evaluate the pointwise residual Lap(phi) - F(phi) + b on interior nodes
    and the inner normal derivative (n points toward the origin, so
    d/dn = -d/dr).

    A supersolution must keep the residual <= tol and the normal derivative
    >= -tol; a subsolution the mirrored signs.
    """
    if role not in ("sub", "super"):
        raise ParameterError(f"role must be 'sub' or 'super', got {role!r}")
    phi.grid.require_same(profile.values.grid, "phi and the background profile")
    lap = laplacian(phi.grid) @ phi.values
    residual = lap - profile.fluid.density(phi.values) + profile.values.values
    interior = residual[1:-1]
    normal = -float(differentiate(phi.grid, phi.values, 1)[0])
    if role == "super":
        passed = bool(np.max(interior) <= tol and normal >= -tol)
    else:
        passed = bool(np.min(interior) >= -tol and normal <= tol)
    return CertReport(role=role, passed=passed,
                      max_residual=float(np.max(interior)),
                      min_residual=float(np.min(interior)),
                      boundary_normal_derivative=normal, tol=tol)


def check_tol(tol: float) -> None:
    """The monotone iteration stops at a finite tolerance > 0."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tol must be finite and > 0, got {tol}")


def solve_steady_monotone(profile: BackgroundProfile, *, tol: float,
                          max_iter: int) -> SteadyState:
    """Solve the semilinear steady problem by bracketing monotone iteration
    on the profile's grid, for the profile's gas.

    Steps the supersolution (nonincreasing) and the subsolution
    (nondecreasing) together, within max_iter steps, until they agree within
    tol; the shift M = 1.1 * sup F' over the bracket keeps both sequences
    monotone and ordered under the discrete comparison principle, so they
    hold the solution between them and their average, the returned
    potential, is within tol/2 of it.  A sequence that moved the wrong way,
    or limits that crossed, by more than roundoff void that certificate.
    """
    check_tol(tol)
    _check_count("max_iter", max_iter, 1)
    grid, fluid = profile.values.grid, profile.fluid
    phi_super = profile_supersolution(profile)
    phi_sub = subsolution_phi(grid)

    fp_max = float(np.max(fluid.density_slope(phi_super.values)))
    fp_zero = float(np.max(fluid.density_slope(np.zeros(1))))
    shift = 1.1 * max(fp_max, fp_zero)

    b, op = profile.values.values, laplacian(grid, shift)

    def step(phi):
        nxt = op.solve_refined(fluid.density(phi) - b - shift * phi)
        if not np.all(np.isfinite(nxt)):
            raise ParameterError("elliptic solve produced non-finite values")
        return nxt

    upper, lower, defect = phi_super.values, phi_sub.values, 0.0
    gap = float(np.max(np.abs(upper - lower)))
    for it in range(1, max_iter + 1):
        nxt_upper, nxt_lower = step(upper), step(lower)
        defect = max(defect, float(np.max(nxt_upper - upper)),
                     float(np.max(lower - nxt_lower)))
        upper, lower = nxt_upper, nxt_lower
        gap = float(np.max(np.abs(upper - lower)))
        if gap < tol:
            break
    else:
        raise IterationError(
            f"bracket limits differ by {gap:.3e} after {max_iter} iterations "
            f"(tol {tol:g}); no uniqueness certificate")

    scale = max(1.0, float(np.max(np.abs(phi_super.values))))
    crossing = float(np.max(lower - upper))
    if max(crossing, defect) > 1e-9 * scale:
        raise MonotonicityError(
            f"bracketing sequences not monotone and ordered: crossing "
            f"{crossing:.3e}, monotonicity defect {defect:.3e}; discretization "
            "too coarse, shift too small or background outside the bracket")

    phi_vals = 0.5 * (upper + lower)
    phi_tilde = RadialField(phi_vals, grid)
    rho_tilde = RadialField(fluid.density(phi_vals), grid)

    residual = laplacian(grid) @ phi_vals - (rho_tilde.values - b)
    residual_norm = weighted_l2_norm(RadialField(residual, grid))

    ceiling = fluid.density(phi_super.values)
    slack = 100.0 * tol
    bounds_ok = bool(np.all(rho_tilde.values >= fluid.c_star - slack)
                     and np.all(rho_tilde.values <= ceiling + slack))

    return SteadyState(rho_tilde=rho_tilde, phi_tilde=phi_tilde,
                       profile=profile, residual_elliptic=residual_norm,
                       bounds_ok=bounds_ok, iterations_super=it,
                       iterations_sub=it, limit_gap=gap,
                       monotonicity_defect=defect, tol=tol, max_iter=max_iter)


def compatibility_residual(steady: SteadyState) -> float:
    """Max-norm defect of grad(Phi) = gamma * rho**(gamma-2) * grad(rho);
    O(h^2) for a converged state."""
    rho = steady.rho_tilde
    dphi, drho = differentiate(rho.grid, np.stack((steady.phi_tilde.values,
                                                   rho.values)), 1)
    rhs = steady.profile.fluid.enthalpy_weight(rho.values) * drho
    return float(np.max(np.abs(dphi - rhs)))


@dataclass(frozen=True)
class RegularityReport:
    """Discrete derivative norms of the steady pair with stability checks."""

    norms: dict
    refined_norms: dict
    widened_norms: dict
    stable_under_refinement: bool
    stable_under_widening: bool


def _derivative_norms(state: SteadyState) -> dict:
    """||f'||, the Hessian norm of f and the second-gradient norm of
    f'(r)*rhat for f = rho and Phi, from one (2, n) stack of the pair."""
    grid = state.rho_tilde.grid
    f = np.stack((state.rho_tilde.values, state.phi_tilde.values))
    d1 = differentiate(grid, f, 1)
    norms = {"grad": np.sqrt(_integrals(grid, d1**2)),
             "hess": _hessian_norms(grid, f),
             "third": _vector_hessian_norms(grid, d1,
                                            differentiate(grid, d1, 1))}
    return {f"{kind}_{name}": float(vals[i])
            for i, name in enumerate(("rho", "phi"))
            for kind, vals in norms.items()}


def steady_regularity_report(steady: SteadyState) -> RegularityReport:
    """Report the L2 norms of the first three gradients of rho and Phi and
    check they stay within a factor 2 under one refinement of the steady
    state's grid and one doubling of its truncation radius, both at the
    grid's stretch and solved with the steady state's tol and max_iter."""
    base = _derivative_norms(steady)
    prof = steady.profile
    grid = prof.values.grid

    def resolve(**changes):
        return solve_steady_monotone(make_profile(
            prof.kind, prof.fluid, prof.amplitude,
            replace(grid, n_cells=2 * grid.n_cells, **changes),
            envelope_c0=prof.envelope_c0, envelope_eps=prof.envelope_eps),
            tol=steady.tol, max_iter=steady.max_iter)

    fine = resolve()
    wide = resolve(r_outer=grid.r_inner + 2.0 * (grid.r_outer - grid.r_inner))
    fine_norms = _derivative_norms(fine)
    wide_norms = _derivative_norms(wide)

    def stable(other):
        for key, val in base.items():
            ref = other[key]
            floor = 1e-8
            if max(val, ref) < floor:
                continue
            if ref > 2.0 * val + floor or val > 2.0 * ref + floor:
                return False
        return True

    return RegularityReport(norms=base, refined_norms=fine_norms,
                            widened_norms=wide_norms,
                            stable_under_refinement=stable(fine_norms),
                            stable_under_widening=stable(wide_norms))


def write_profile(field: RadialField, path) -> None:
    """Export a radial profile as two-column text (r, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        for r, v in zip(field.grid.r, field.values):
            fh.write(f"{r:.17g} {v:.17g}\n")
