"""Empirical verification of functional inequalities on the truncated
exterior shell, using a tensor-product spherical grid.

Checked inequalities (ratios are measured over seeded ensembles; empirical
constants are reported, never asserted against an abstract bound):

* div-curl:        ||grad v|| <= C (||div v|| + ||curl v||) for tangent fields
                   (the exterior of a ball is simply connected, so no
                   harmonic-field obstruction exists);
* trace scaling:   |v|^2 on the inner sphere <= C* R ||grad v||^2 with C*
                   independent of the ball radius R;
* boundary pairing (constant exactly 1):
                   |int_{r=R} v . grad f| <= ||grad v|| ||grad f||;
* Sobolev embedding: ||f||_L6 <= C ||grad f||_L2;
* curl-free elastostatic estimate: with u = grad psi, psi a radial Neumann
  potential, and g = -(2 mu + lambda) d_r(Lap psi),
                   ||grad^2 u|| <= C (||g|| + ||grad u||);
* Neumann-Poisson regularity: ||grad^2 phi|| <= C ||q|| for the radial solver.

One seeded mode sum builds the tangent and the scalar fields, with low
azimuthal orders and a sin^2(theta) taper so the pole-free midpoint grid sees
only smooth data; the div-curl and pairing reports read one TangentEnsemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .elliptic import hessian_norm_radial, solve_poisson_neumann
from .errors import DegenerateFieldError, ParameterError
from .grids import (RadialField, RadialGrid, build_radial_grid, cutoff,
                    differentiate, radial_derivative, vector_gradient_norm,
                    vector_hessian_norm, volume_weights, weighted_l2_norm)


@dataclass(frozen=True, eq=False)
class SphericalGrid:
    """Tensor grid: radial nodes, pole-offset midpoint theta nodes, periodic
    azimuth nodes, and separable quadrature weights whose product integrates
    the shell volume exactly."""

    r: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    w_r: np.ndarray
    w_theta: np.ndarray
    w_phi: float

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.r.size, self.theta.size, self.phi.size)

    @property
    def r_inner(self) -> float:
        return float(self.r[0])

    @property
    def r_outer(self) -> float:
        return float(self.r[-1])

    def integrate(self, f: np.ndarray) -> float:
        return float(np.einsum("i,j,ijk->", self.w_r, self.w_theta, f)
                     * self.w_phi)

    @cached_property
    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(r, sin theta, cot theta), shaped to broadcast over the grid;
        computed once per grid."""
        r = self.r[:, None, None]
        sin = np.sin(self.theta)[None, :, None]
        cot = (np.cos(self.theta) / np.sin(self.theta))[None, :, None]
        return r, sin, cot


@dataclass(frozen=True, eq=False)
class VectorField3:
    """Spherical components (v_r, v_theta, v_phi) on a SphericalGrid."""

    vr: np.ndarray
    vtheta: np.ndarray
    vphi: np.ndarray
    grid: SphericalGrid

    def __post_init__(self):
        for comp in (self.vr, self.vtheta, self.vphi):
            if comp.shape != self.grid.shape:
                raise ParameterError("component shape does not match the grid")
            if not np.all(np.isfinite(comp)):
                raise ParameterError("field components must be finite")


@dataclass(frozen=True)
class IneqReport:
    """Measured ensemble statistics for one inequality."""

    inequality: str
    n_samples: int
    max_ratio: float
    mean_ratio: float
    claimed_constant: float | None = None
    quadrature_allowance: float | None = None
    passed: bool | None = None
    details: dict = field(default_factory=dict)


def build_spherical_grid(r_inner: float, r_outer: float, nr: int, ntheta: int,
                         nphi: int) -> SphericalGrid:
    """The nodes of the uniform radial grid, midpoint theta nodes avoiding
    the poles, and a periodic azimuth; requires nr >= 16, ntheta >= 8,
    nphi >= 8."""
    if nr < 16 or ntheta < 8 or nphi < 8:
        raise ParameterError("resolution too coarse: need nr>=16, ntheta>=8, nphi>=8")
    r = build_radial_grid(r_inner, r_outer, nr).r
    dtheta = math.pi / ntheta
    theta = (np.arange(ntheta) + 0.5) * dtheta
    phi = np.arange(nphi) * (2.0 * math.pi / nphi)

    w_r = volume_weights(r)
    # exact solid-angle cell weights: integral of sin over each theta cell
    w_theta = 2.0 * math.sin(0.5 * dtheta) * np.sin(theta)
    w_phi = 2.0 * math.pi / nphi
    return SphericalGrid(r=r, theta=theta, phi=phi, w_r=w_r, w_theta=w_theta,
                         w_phi=w_phi)


def _d_axis(grid: SphericalGrid, f: np.ndarray, axis: int) -> np.ndarray:
    """Centered difference along r (axis 0) or theta (axis 1), one-sided
    second order at both ends."""
    nodes = grid.r if axis == 0 else grid.theta
    h = nodes[1] - nodes[0]
    g = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    d = np.moveaxis(out, axis, 0)
    d[1:-1] = (g[2:] - g[:-2]) / (2.0 * h)
    d[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h)
    d[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * h)
    return out


def _d_phi(grid: SphericalGrid, f: np.ndarray) -> np.ndarray:
    """Periodic centered difference in azimuth."""
    h = 2.0 * math.pi / grid.phi.size
    out = np.empty_like(f)
    np.subtract(f[:, :, 2:], f[:, :, :-2], out=out[:, :, 1:-1])
    np.subtract(f[:, :, 1], f[:, :, -1], out=out[:, :, 0])
    np.subtract(f[:, :, 0], f[:, :, -2], out=out[:, :, -1])
    out /= 2.0 * h
    return out


def grad_scalar(grid: SphericalGrid, f: np.ndarray) -> VectorField3:
    r, sin, _ = grid.geometry
    return VectorField3(vr=_d_axis(grid, f, 0),
                        vtheta=_d_axis(grid, f, 1) / r,
                        vphi=_d_phi(grid, f) / (r * sin),
                        grid=grid)


def divergence(v: VectorField3) -> np.ndarray:
    grid = v.grid
    r, sin, _ = grid.geometry
    return (_d_axis(grid, r**2 * v.vr, 0) / r**2
            + _d_axis(grid, sin * v.vtheta, 1) / (r * sin)
            + _d_phi(grid, v.vphi) / (r * sin))


def curl(v: VectorField3) -> VectorField3:
    grid = v.grid
    r, sin, _ = grid.geometry
    cr = (_d_axis(grid, sin * v.vphi, 1) - _d_phi(grid, v.vtheta)) / (r * sin)
    ct = _d_phi(grid, v.vr) / (r * sin) - _d_axis(grid, r * v.vphi, 0) / r
    cp = (_d_axis(grid, r * v.vtheta, 0) - _d_axis(grid, v.vr, 1)) / r
    return VectorField3(vr=cr, vtheta=ct, vphi=cp, grid=grid)


def gradient_squared(v: VectorField3) -> np.ndarray:
    """Pointwise |grad v|^2: all nine orthonormal covariant components."""
    grid = v.grid
    r, sin, cot = grid.geometry
    comps = (
        _d_axis(grid, v.vr, 0),
        _d_axis(grid, v.vr, 1) / r - v.vtheta / r,
        _d_phi(grid, v.vr) / (r * sin) - v.vphi / r,
        _d_axis(grid, v.vtheta, 0),
        _d_axis(grid, v.vtheta, 1) / r + v.vr / r,
        _d_phi(grid, v.vtheta) / (r * sin) - cot * v.vphi / r,
        _d_axis(grid, v.vphi, 0),
        _d_axis(grid, v.vphi, 1) / r,
        _d_phi(grid, v.vphi) / (r * sin) + v.vr / r + cot * v.vtheta / r,
    )
    total = np.zeros(grid.shape)
    for c in comps:
        total += c**2
    return total


def l2_norm(grid: SphericalGrid, f: np.ndarray) -> float:
    return math.sqrt(grid.integrate(f**2))


def l2_norm_vec(v: VectorField3) -> float:
    return math.sqrt(v.grid.integrate(v.vr**2 + v.vtheta**2 + v.vphi**2))


def l6_norm(grid: SphericalGrid, f: np.ndarray) -> float:
    f2 = f * f  # f**6 would go through pow(), several times slower
    return grid.integrate(f2 * f2 * f2) ** (1.0 / 6.0)


def grad_norm(v: VectorField3) -> float:
    return math.sqrt(v.grid.integrate(gradient_squared(v)))


def _boundary_integral(grid: SphericalGrid, f: np.ndarray) -> np.ndarray:
    """Integrals over the inner sphere r = R of fields sampled on (theta,
    phi), the last two axes of f."""
    return (np.einsum("j,...jk->...", grid.w_theta, f) * grid.w_phi
            * grid.r_inner**2)


def boundary_l2_sq(v: VectorField3) -> float:
    """|v|^2 integrated over the inner sphere."""
    f2d = v.vr[0] ** 2 + v.vtheta[0] ** 2 + v.vphi[0] ** 2
    return float(_boundary_integral(v.grid, f2d))


def _mode_sum(rng: np.random.Generator, grid: SphericalGrid, modes: int,
              n_comp: int, n_phases: int) -> list[np.ndarray]:
    """n_comp sums of the same `modes` seeded separable terms, one amplitude
    per component: a trig pattern in (theta, phi) with a sin^2(theta) pole
    taper times a cut-off radial envelope in x = (r - R)/(R_max - R)."""
    if modes < 1:
        raise ParameterError("modes must be >= 1")
    r = grid.r[:, None, None]
    x = (r - grid.r_inner) / (grid.r_outer - grid.r_inner)
    theta = grid.theta[None, :, None]
    phi = grid.phi[None, None, :]
    taper = np.sin(theta) ** 2
    cut = cutoff(r, grid.r_inner, grid.r_outer - grid.r_inner)
    comps = [np.zeros(grid.shape) for _ in range(n_comp)]
    for _ in range(modes):
        l_phi = rng.integers(0, 5)
        l_theta = rng.integers(1, 4)
        k_r = rng.integers(1, 3)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n_phases)
        amps = rng.uniform(-1.0, 1.0, size=n_comp)
        angular = (np.cos(l_phi * phi + phases[0])
                   * np.cos(l_theta * theta + phases[1]) * taper)
        envelope = cut * (0.5 + 0.5 * np.cos(k_r * math.pi * x + phases[2]))
        for c in range(n_comp):
            comps[c] += amps[c] * angular * envelope
    return comps


def random_tangent_field(seed: int, grid: SphericalGrid,
                         modes: int = 3) -> VectorField3:
    """Seed-deterministic smooth field with v_r(R) = 0 exactly: the radial
    component of a three-component mode sum carries the extra factor
    1 - exp(-((r-R)/w)^2).  All components vanish well before R_max, and the
    same seed on a geometrically similar grid yields the rescaled field."""
    # draws 4 phases, uses 3: keeps the seeded streams (perfbench reference)
    vr, vtheta, vphi = _mode_sum(np.random.default_rng([seed, 3]), grid,
                                 modes, 3, 4)
    r = grid.r[:, None, None]
    w = 0.15 * (grid.r_outer - grid.r_inner)
    vr = vr * (1.0 - np.exp(-(((r - grid.r_inner) / w) ** 2)))
    return VectorField3(vr=vr, vtheta=vtheta, vphi=vphi, grid=grid)


def random_scalar_field(seed: int, grid: SphericalGrid,
                        modes: int = 3) -> np.ndarray:
    """Seed-deterministic smooth scalar, decaying before the outer boundary."""
    return _mode_sum(np.random.default_rng([seed, 7]), grid, modes, 1, 3)[0]


def _ensemble_report(inequality: str, ratios) -> IneqReport:
    """Max and mean of an ensemble's ratios; passed when all are finite."""
    return IneqReport(inequality=inequality, n_samples=len(ratios),
                      max_ratio=float(np.max(ratios)),
                      mean_ratio=float(np.mean(ratios)),
                      passed=bool(np.all(np.isfinite(ratios))))


def _div_curl_ratio(num: float, denom: float) -> float:
    if denom < 1e-14 * max(1.0, num):
        raise DegenerateFieldError(
            "div and curl both vanish; a decaying tangent field with that "
            "property must be zero")
    return num / denom


def _div_curl_norm(v: VectorField3) -> float:
    return l2_norm(v.grid, divergence(v)) + l2_norm_vec(curl(v))


def verify_div_curl(v: VectorField3) -> float:
    """Ratio ||grad v|| / (||div v|| + ||curl v||) for a tangent field."""
    return _div_curl_ratio(grad_norm(v), _div_curl_norm(v))


def _traces(v: VectorField3) -> np.ndarray:
    """The three components on the inner sphere, shape (3, ntheta, nphi)."""
    return np.stack((v.vr[0], v.vtheta[0], v.vphi[0]))


@dataclass(frozen=True, eq=False)
class TangentEnsemble:
    """What the div-curl and boundary-pairing reports need of the seeded
    tangent fields seed, seed + 1, ..., seed + n - 1: per member ||grad v||,
    ||div v|| + ||curl v||, and the inner-sphere traces, shape
    (n, 3, ntheta, nphi)."""

    grid: SphericalGrid
    seed: int
    modes: int
    grad_norms: np.ndarray
    div_curl_norms: np.ndarray
    traces: np.ndarray


def tangent_ensemble(grid: SphericalGrid, n_fields: int, seed: int = 0,
                     modes: int = 3) -> TangentEnsemble:
    """One streamed pass over the ensemble: each field is built once, reduced
    to its norms and traces, and dropped."""
    grad_norms = np.empty(n_fields)
    div_curl_norms = np.empty(n_fields)
    traces = np.empty((n_fields, 3) + grid.shape[1:])
    for i in range(n_fields):
        v = random_tangent_field(seed + i, grid, modes)
        grad_norms[i] = grad_norm(v)
        div_curl_norms[i] = _div_curl_norm(v)
        traces[i] = _traces(v)
    return TangentEnsemble(grid=grid, seed=seed, modes=modes,
                           grad_norms=grad_norms,
                           div_curl_norms=div_curl_norms, traces=traces)


def div_curl_report(ens: TangentEnsemble) -> IneqReport:
    ratios = [_div_curl_ratio(num, denom)
              for num, denom in zip(ens.grad_norms, ens.div_curl_norms)]
    return _ensemble_report("div_curl", ratios)


def check_outer_factor(outer_factor: float) -> None:
    """The trace-scaling shells run from R to outer_factor * R."""
    if not (math.isfinite(outer_factor) and outer_factor > 1.0):
        raise ParameterError(f"trace_outer_factor must be finite and > 1, "
                             f"got {outer_factor}")


def trace_radii(r_inner: float) -> tuple[float, float, float]:
    """Inner radii of the trace-scaling shells: R, 2R and 4R."""
    return (r_inner, 2.0 * r_inner, 4.0 * r_inner)


def verify_trace_scaling(r_values=trace_radii(1.0), outer_factor: float = 4.0,
                         nr: int = 32, ntheta: int = 16, nphi: int = 32,
                         seed: int = 0, modes: int = 3,
                         rel_tol: float = 0.30) -> IneqReport:
    """Boundary-trace ratio |v|^2_{r=R} / (R ||grad v||^2) for one field shape
    rescaled across inner radii; the ratio should be R-independent."""
    check_outer_factor(outer_factor)
    ratios = []
    for r_in in r_values:
        grid = build_spherical_grid(r_in, outer_factor * r_in, nr, ntheta, nphi)
        v = random_tangent_field(seed, grid, modes)
        ratio = boundary_l2_sq(v) / (r_in * grad_norm(v) ** 2)
        ratios.append(ratio)
    spread = (max(ratios) - min(ratios)) / max(ratios)
    return IneqReport(inequality="trace_scaling", n_samples=len(ratios),
                      max_ratio=float(max(ratios)),
                      mean_ratio=float(np.mean(ratios)),
                      passed=bool(spread < rel_tol),
                      details={"ratios": [float(x) for x in ratios],
                               "relative_spread": float(spread),
                               "r_values": [float(x) for x in r_values]})


def _boundary_pairings(grid: SphericalGrid, v_traces: np.ndarray,
                       g_traces: np.ndarray) -> np.ndarray:
    """int_{r=R} v . g for every pair of traces from the stacks v_traces
    (n_v, 3, ntheta, nphi) and g_traces (n_g, 3, ntheta, nphi); shape
    (n_v, n_g)."""
    v = v_traces[:, None]
    g = g_traces[None, :]
    integrand = v[:, :, 0] * g[:, :, 0]
    integrand += v[:, :, 1] * g[:, :, 1]
    integrand += v[:, :, 2] * g[:, :, 2]
    return _boundary_integral(grid, integrand)


def verify_boundary_pairing(v: VectorField3, f: np.ndarray) -> tuple[float, float]:
    """Return (|int_{r=R} v . grad f|, ||grad v|| ||grad f||)."""
    grid = v.grid
    gf = grad_scalar(grid, f)
    lhs = abs(float(_boundary_pairings(grid, _traces(v)[None],
                                       _traces(gf)[None])[0, 0]))
    rhs = grad_norm(v) * l2_norm_vec(gf)
    return lhs, rhs


def check_allowance(allowance: float) -> None:
    """The pairing report passes up to 1 + allowance."""
    if not (math.isfinite(allowance) and allowance >= 0.0):
        raise ParameterError(f"allowance must be finite and >= 0, "
                             f"got {allowance}")


def boundary_pairing_report(ens: TangentEnsemble, n_scalars: int = 20,
                            allowance: float = 0.05) -> IneqReport:
    """Check |int v . grad f| <= (1 + allowance) ||grad v|| ||grad f|| over
    the ensemble times n_scalars seeded scalars; the claimed constant is
    exactly 1 and the measured excess over 1 is the quadrature allowance.
    The pairings are one contraction of the tangent traces against the
    scalar-gradient traces."""
    check_allowance(allowance)
    grid, seed, modes = ens.grid, ens.seed, ens.modes
    g_traces = np.empty((n_scalars, 3) + grid.shape[1:])
    g_norms = np.empty(n_scalars)
    for j in range(n_scalars):
        gf = grad_scalar(grid, random_scalar_field(seed + 1000 + j, grid,
                                                   modes))
        g_traces[j] = _traces(gf)
        g_norms[j] = l2_norm_vec(gf)
    lhs = np.abs(_boundary_pairings(grid, ens.traces, g_traces))
    rhs = ens.grad_norms[:, None] * g_norms[None, :]
    kept = rhs > 0.0
    ratios = lhs[kept] / rhs[kept]
    max_ratio = float(np.max(ratios))
    measured_excess = max(0.0, max_ratio - 1.0)
    return IneqReport(inequality="boundary_pairing", n_samples=ratios.size,
                      max_ratio=max_ratio, mean_ratio=float(np.mean(ratios)),
                      claimed_constant=1.0,
                      quadrature_allowance=measured_excess,
                      passed=bool(max_ratio <= 1.0 + allowance),
                      details={"allowance_budget": allowance})


def verify_sobolev_l6(grid: SphericalGrid, f: np.ndarray) -> float:
    """Ratio ||f||_L6 / ||grad f||_L2 for a smooth decaying scalar."""
    denom = l2_norm_vec(grad_scalar(grid, f))
    num = l6_norm(grid, f)
    if denom < 1e-14 * max(1.0, num):
        raise DegenerateFieldError("gradient vanishes; ratio undefined")
    return num / denom


def sobolev_l6_report(grid: SphericalGrid, n_samples: int = 100, seed: int = 0,
                      modes: int = 3) -> IneqReport:
    ratios = [verify_sobolev_l6(grid, random_scalar_field(seed + i, grid, modes))
              for i in range(n_samples)]
    return _ensemble_report("sobolev_l6", ratios)


def verify_lame_gradient_case(psi: RadialField, mu: float,
                              lambda_: float) -> IneqReport:
    """Curl-free elastostatic estimate on a radial potential: with u = grad
    psi and g = -(2 mu + lambda) d_r(Lap psi), report
    C_emp = ||grad^2 u|| / (||g|| + ||grad u||)."""
    grid = psi.grid
    u = radial_derivative(psi, 1)
    lap = differentiate(grid, psi.values, 2) + 2.0 * u.values / grid.r
    g = RadialField(-(2.0 * mu + lambda_) * differentiate(grid, lap, 1), grid)
    hess_u = vector_hessian_norm(u)
    denom = weighted_l2_norm(g) + vector_gradient_norm(u)
    if denom < 1e-14 * max(1.0, hess_u):
        return IneqReport(inequality="lame_gradient_case", n_samples=1,
                          max_ratio=0.0, mean_ratio=0.0, passed=True,
                          details={"trivial": True})
    c_emp = hess_u / denom
    return IneqReport(inequality="lame_gradient_case", n_samples=1,
                      max_ratio=c_emp, mean_ratio=c_emp,
                      passed=bool(math.isfinite(c_emp)))


def _random_radial_source(seed: int, grid: RadialGrid) -> RadialField:
    """Smooth seeded source: a few Gaussian bumps, supported inside the shell.

    The parameters are drawn once from the seed, so the same seed on a
    refined grid samples the same underlying function.
    """
    rng = np.random.default_rng([seed, 13])
    r = grid.r
    length = grid.r_outer - grid.r_inner
    vals = np.zeros_like(r)
    for _ in range(3):
        center = grid.r_inner + rng.uniform(0.1, 0.7) * length
        width = rng.uniform(0.05, 0.2) * length
        amp = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        vals += amp * np.exp(-(((r - center) / width) ** 2))
    return RadialField(vals, grid)


def lame_report(grid: RadialGrid, n_samples: int = 20, seed: int = 0,
                mu: float = 1.0, lambda_: float = 1.0) -> IneqReport:
    """Ensemble version of the curl-free elastostatic check: potentials come
    from Neumann-Poisson solves of seeded sources."""
    ratios = []
    for i in range(n_samples):
        q = _random_radial_source(seed + i, grid)
        psi = solve_poisson_neumann(q).phi
        rep = verify_lame_gradient_case(psi, mu, lambda_)
        ratios.append(rep.max_ratio)
    return _ensemble_report("lame_gradient_case", ratios)


def poisson_regularity_report(grid: RadialGrid, n_samples: int = 100,
                              seed: int = 0) -> IneqReport:
    """Measured constant in ||grad^2 phi|| <= C ||q|| over seeded sources."""
    ratios = []
    for i in range(n_samples):
        q = _random_radial_source(seed + i, grid)
        sol = solve_poisson_neumann(q)
        ratios.append(hessian_norm_radial(sol.phi) / weighted_l2_norm(q))
    return _ensemble_report("poisson_regularity", ratios)
