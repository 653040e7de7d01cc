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

from both brackets; the discrete comparison principle makes the two sequences
monotone and keeps them ordered, and agreement of the limits is the
uniqueness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import laplacian, solve_shifted
from .errors import (EvaluationDomainError, IterationError, MonotonicityError,
                     ParameterError)
from .grids import (RadialField, RadialGrid, build_radial_grid, cutoff,
                    differentiate, radial_derivative, vector_gradient_norm,
                    vector_hessian_norm, weighted_l2_norm)

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
    """Prescribed background charge density b(r) with its admissibility data."""

    kind: str
    c_star: float
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
    """Converged steady pair with its certificates."""

    rho_tilde: RadialField
    phi_tilde: RadialField
    gamma: float
    profile: BackgroundProfile
    residual_elliptic: float
    bounds_ok: bool
    iterations_super: int
    iterations_sub: int
    limit_gap: float
    monotonicity_defect: float


class _Branch:
    """Nonlinearity F, its derivative, and the density map for one gamma."""

    def __init__(self, gamma: float, c_star: float):
        if gamma < 1.0:
            raise ParameterError(f"gamma must be >= 1, got {gamma}")
        self.gamma = gamma
        self.c_star = c_star
        self.c1 = (gamma / (gamma - 1.0) * c_star ** (gamma - 1.0)
                   if gamma > 1.0 else None)

    def _scaled(self, phi: np.ndarray) -> np.ndarray:
        """(gamma-1)/gamma * (Phi + c1), which stays near c_star**(gamma-1)
        as gamma -> 1.  F and F' raise it to a power as one product: near
        gamma = 1 the split form ((gamma-1)/gamma)**(1/(gamma-1)) *
        (Phi + c1)**(1/(gamma-1)) is 0 * inf."""
        base = phi + self.c1
        if np.any(base <= 0.0):
            raise EvaluationDomainError("Phi + c1 must stay positive for gamma > 1")
        return (self.gamma - 1.0) / self.gamma * base

    def F(self, phi: np.ndarray) -> np.ndarray:
        if self.gamma == 1.0:
            return self.c_star * np.exp(phi)
        return self._scaled(phi) ** (1.0 / (self.gamma - 1.0))

    def Fprime(self, phi: np.ndarray) -> np.ndarray:
        if self.gamma == 1.0:
            return self.c_star * np.exp(phi)
        expo = (2.0 - self.gamma) / (self.gamma - 1.0)
        return self._scaled(phi) ** expo / self.gamma


def make_profile(kind: str, c_star: float, amplitude: float, grid: RadialGrid,
                 envelope_c0: float = 1.0, envelope_eps: float = 0.5,
                 gamma: float | None = None) -> BackgroundProfile:
    """Build a background profile of the requested kind.

    constant:               b == c_star
    admissible_bump:        b = c_star + amplitude * s(r) / r, smooth mask s
    general_gamma_envelope: b tracking the power-law envelope bound for the
                            chosen (c0, eps), cut off near R_max
    """
    if kind not in PROFILE_KINDS:
        raise ParameterError(f"unknown profile kind {kind!r}")
    if not (0.0 <= amplitude <= 1.0):
        raise ParameterError(f"amplitude must lie in [0, 1], got {amplitude}")
    if c_star <= 0.0:
        raise ParameterError(f"c_star must be > 0, got {c_star}")

    r = grid.r
    mask = cutoff(r, grid.r_inner, effective_length(grid.r_inner, grid.r_outer))
    if kind == "constant":
        vals = np.full_like(r, c_star)
        return BackgroundProfile(kind, c_star, amplitude, RadialField(vals, grid))
    if kind == "admissible_bump":
        vals = c_star + amplitude * mask / r
        return BackgroundProfile(kind, c_star, amplitude, RadialField(vals, grid))

    # envelope: b = F(amplitude * c0 * r**(-eps) * s(r)) for the gamma branch
    if gamma is None or gamma <= 1.0:
        raise ParameterError("general_gamma_envelope requires gamma > 1")
    if not (0.0 < envelope_eps < 1.0):
        raise ParameterError(f"envelope_eps must lie in (0, 1), got {envelope_eps}")
    if envelope_c0 <= 0.0:
        raise ParameterError(f"envelope_c0 must be > 0, got {envelope_c0}")
    branch = _Branch(gamma, c_star)
    phi_env = amplitude * envelope_c0 * r ** (-envelope_eps) * mask
    vals = branch.F(phi_env)
    return BackgroundProfile(kind, c_star, amplitude, RadialField(vals, grid),
                             envelope_c0=envelope_c0, envelope_eps=envelope_eps)


def profile_upper_bound(profile: BackgroundProfile, gamma: float) -> np.ndarray:
    """Pointwise admissible ceiling for both b and the steady density."""
    grid = profile.values.grid
    r = grid.r
    if profile.kind == "general_gamma_envelope":
        branch = _Branch(gamma, profile.c_star)
        return branch.F(profile.envelope_c0 * r ** (-profile.envelope_eps))
    return profile.c_star + 1.0 / r


def subsolution_phi(gamma: float, grid: RadialGrid) -> RadialField:
    """The zero potential; a subsolution whenever b >= c_star."""
    if gamma < 1.0:
        raise ParameterError(f"gamma must be >= 1, got {gamma}")
    return grid.zeros()


def supersolution_phi(gamma: float, c_star: float, grid: RadialGrid,
                      envelope_c0: float | None = None,
                      envelope_eps: float | None = None) -> RadialField:
    """Explicit supersolution for the branch.

    gamma in (1, 2] uses the closed power-law form, gamma = 1 the log form.
    Passing (envelope_c0, envelope_eps) selects the power-law envelope
    c0 * r**(-eps), valid for any gamma > 1.
    """
    if gamma < 1.0:
        raise ParameterError(f"gamma must be >= 1, got {gamma}")
    r = grid.r
    if envelope_c0 is not None:
        if gamma <= 1.0:
            raise ParameterError("envelope supersolution requires gamma > 1")
        return RadialField(envelope_c0 * r ** (-envelope_eps), grid)
    if gamma == 1.0:
        return RadialField(np.log(1.0 + 1.0 / (c_star * r)), grid)
    if gamma > 2.0:
        raise ParameterError(
            "explicit supersolution needs gamma in [1, 2]; use the envelope form")
    branch = _Branch(gamma, c_star)
    vals = gamma / (gamma - 1.0) * (c_star + 1.0 / r) ** (gamma - 1.0) - branch.c1
    return RadialField(vals, grid)


def profile_supersolution(profile: BackgroundProfile,
                          gamma: float) -> RadialField:
    """The explicit supersolution that brackets the steady problem for this
    background: the envelope form for the envelope profile, the closed form
    (gamma in [1, 2] only) otherwise."""
    grid = profile.values.grid
    if profile.kind == "general_gamma_envelope":
        return supersolution_phi(gamma, profile.c_star, grid,
                                 envelope_c0=profile.envelope_c0,
                                 envelope_eps=profile.envelope_eps)
    return supersolution_phi(gamma, profile.c_star, grid)


def rho_from_phi(phi: RadialField, gamma: float, c_star: float) -> RadialField:
    """Density from potential: the F map (c_star * exp(Phi) at gamma = 1)."""
    branch = _Branch(gamma, c_star)
    return RadialField(branch.F(phi.values), phi.grid)


def check_subsuper(phi: RadialField, role: str, gamma: float,
                   profile: BackgroundProfile, tol: float = 1e-8) -> CertReport:
    """Evaluate the pointwise residual Lap(phi) - F(phi) + b on interior nodes
    and the inner normal derivative (n points toward the origin, so
    d/dn = -d/dr).

    A supersolution must keep the residual <= tol and the normal derivative
    >= -tol; a subsolution the mirrored signs.
    """
    if role not in ("sub", "super"):
        raise ParameterError(f"role must be 'sub' or 'super', got {role!r}")
    branch = _Branch(gamma, profile.c_star)
    lap = laplacian(phi.grid) @ phi.values
    residual = lap - branch.F(phi.values) + profile.values.values
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


def _iterate(branch: _Branch, b: np.ndarray, grid: RadialGrid, start: np.ndarray,
             shift: float, direction: int, tol: float, max_iter: int):
    """Run the shifted fixed-point iteration from one bracket.

    direction +1 expects a nondecreasing sequence (subsolution start), -1 a
    nonincreasing one.  Monotonicity defects are tracked, not fatal: they stay
    at roundoff size (comparison-principle slack) for admissible data.
    """
    phi = start.copy()
    defect = 0.0
    for it in range(1, max_iter + 1):
        rhs = branch.F(phi) - b - shift * phi
        nxt = solve_shifted(shift, RadialField(rhs, grid)).values
        step = nxt - phi
        defect = max(defect, float(np.max(-direction * step)))
        increment = float(np.max(np.abs(step)))
        phi = nxt
        if increment < tol:
            return phi, it, defect
    raise IterationError(
        f"monotone iteration did not reach {tol:g} within {max_iter} iterations")


def check_tol(tol: float) -> None:
    """The monotone iteration stops at a finite tolerance > 0."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tol must be finite and > 0, got {tol}")


def solve_steady_monotone(gamma: float, profile: BackgroundProfile,
                          grid: RadialGrid, tol: float = 1e-10,
                          max_iter: int = 200) -> SteadyState:
    """Solve the semilinear steady problem by bracketing monotone iteration.

    Runs from the supersolution (nonincreasing) and the subsolution
    (nondecreasing); the shift M = 1.1 * sup F' over the bracket keeps both
    sequences monotone under the discrete comparison principle.  The two
    limits must agree within 10*tol, which doubles as a uniqueness
    certificate; the returned potential is their average.
    """
    check_tol(tol)
    c_star = profile.c_star
    branch = _Branch(gamma, c_star)
    phi_super = profile_supersolution(profile, gamma)
    phi_sub = subsolution_phi(gamma, grid)

    fp_max = float(np.max(branch.Fprime(phi_super.values)))
    fp_zero = float(np.max(branch.Fprime(np.zeros(1))))
    shift = 1.1 * max(fp_max, fp_zero)

    upper, it_super, defect_s = _iterate(branch, profile.values.values, grid,
                                         phi_super.values, shift, -1, tol, max_iter)
    lower, it_sub, defect_b = _iterate(branch, profile.values.values, grid,
                                       phi_sub.values, shift, +1, tol, max_iter)

    scale = max(1.0, float(np.max(np.abs(phi_super.values))))
    crossing = float(np.max(lower - upper))
    if crossing > 1e-9 * scale:
        raise MonotonicityError(
            f"bracketing sequences crossed by {crossing:.3e}; "
            "discretization too coarse or shift too small")

    gap = float(np.max(np.abs(upper - lower)))
    if gap > 10.0 * tol:
        raise IterationError(
            f"bracket limits differ by {gap:.3e} (> 10*tol); no uniqueness certificate")

    phi_vals = 0.5 * (upper + lower)
    phi_tilde = RadialField(phi_vals, grid)
    rho_tilde = rho_from_phi(phi_tilde, gamma, c_star)

    residual = laplacian(grid) @ phi_vals - (rho_tilde.values
                                              - profile.values.values)
    residual_norm = weighted_l2_norm(RadialField(residual, grid))

    ceiling = profile_upper_bound(profile, gamma)
    slack = 100.0 * tol
    bounds_ok = bool(np.all(rho_tilde.values >= c_star - slack)
                     and np.all(rho_tilde.values <= ceiling + slack))

    return SteadyState(rho_tilde=rho_tilde, phi_tilde=phi_tilde, gamma=gamma,
                       profile=profile, residual_elliptic=residual_norm,
                       bounds_ok=bounds_ok, iterations_super=it_super,
                       iterations_sub=it_sub, limit_gap=gap,
                       monotonicity_defect=max(defect_s, defect_b))


def compatibility_residual(steady: SteadyState) -> float:
    """Max-norm defect of grad(Phi) = gamma * rho**(gamma-2) * grad(rho);
    O(h^2) for a converged state."""
    rho = steady.rho_tilde
    dphi, drho = differentiate(rho.grid, np.stack((steady.phi_tilde.values,
                                                   rho.values)), 1)
    rhs = steady.gamma * rho.values ** (steady.gamma - 2.0) * drho
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
    out = {}
    for name, fld in (("rho", state.rho_tilde), ("phi", state.phi_tilde)):
        d1 = radial_derivative(fld, 1)
        out[f"grad_{name}"] = weighted_l2_norm(d1)
        out[f"hess_{name}"] = vector_gradient_norm(d1)
        out[f"third_{name}"] = vector_hessian_norm(d1)
    return out


def steady_regularity_report(steady: SteadyState,
                             grid: RadialGrid) -> RegularityReport:
    """Report the L2 norms of the first three gradients of rho and Phi and
    check they stay within a factor 2 under one grid refinement and one
    doubling of the truncation radius, both at the grid's stretch."""
    base = _derivative_norms(steady)
    prof = steady.profile
    n_cells = grid.n_nodes - 1

    def resolve(new_grid):
        p = make_profile(prof.kind, prof.c_star, prof.amplitude, new_grid,
                         envelope_c0=prof.envelope_c0 or 1.0,
                         envelope_eps=prof.envelope_eps or 0.5,
                         gamma=steady.gamma)
        return solve_steady_monotone(steady.gamma, p, new_grid)

    r0, r1, stretch = grid.r_inner, grid.r_outer, grid.stretch
    fine = resolve(build_radial_grid(r0, r1, 2 * n_cells, stretch))
    wide = resolve(build_radial_grid(r0, r0 + 2.0 * (r1 - r0), 2 * n_cells,
                                     stretch))
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
