"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's quadrature and derivative
machinery: integrals come from dense plain trapezoid sums over analytic
callables, and the steady-state oracle is a damped Newton iteration on the
discrete system (same operator, independent solution path).  There are two
exceptions.  The radial grid norms, and the batch-of-one forms of the
package's stacked norms and Lame ratios, are the package's own formulas,
which only tests call.  The 3-D spherical operators at the end apply the
package's one-axis stencils and the spherical grid's weights to whole 3-D
arrays and inner-sphere traces, an independent evaluation path for the
mode-factored ensembles.  The seeded ensembles member by member, with
numpy's own draws and one-column solves, are the oracle of the stacked
ensembles.  ``stencil_loop_differentiate`` applies the package's stencil
rows column by column over a whole stack, the reference of the flat block
pass.  The module also holds ``tendencies``, the suite's one way to
evaluate a single state's tendencies through a run workspace,
``sample_row``, its sampled row, and ``gas``, the suite's FluidParams.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import Polynomial
from scipy.linalg import solve_banded

from nsplab.config import _SCHEMA
from nsplab.elliptic import laplacian
from nsplab.energy import _sample_row
from nsplab.errors import ParameterError
from nsplab.evolve import SimConfig, _tendencies, _Workspace
from nsplab.grids import (FluidParams, _hessian_norms, _stencil_rows,
                          _vector_gradient_norms, _vector_hessian_norms,
                          cutoff, differentiate)
from nsplab.ineqlab import (IneqReport, SphericalGrid, _lame_ratios,
                            _periodic, _three_point)

FOUR_PI = 4.0 * np.pi

# the monotone iteration's settings at their [steady] defaults
STEADY = {key: _SCHEMA["steady"][key][1] for key in ("tol", "max_iter")}


def dense_volume_integral(func, r_inner, r_outer, n=20001):
    """Plain trapezoid of func(r) * 4 pi r^2 on a dense uniform sampling."""
    r = np.linspace(r_inner, r_outer, n)
    return np.trapezoid(func(r) * FOUR_PI * r**2, r)


def dense_l2_norm(func, r_inner, r_outer, n=20001):
    return np.sqrt(dense_volume_integral(lambda r: func(r) ** 2,
                                         r_inner, r_outer, n))


def geometric_nodes(r_inner, r_outer, n_cells, stretch):
    """Closed-form geometric progression the stretched grid must match."""
    ratio = np.exp(stretch / (n_cells - 1))
    h0 = (r_outer - r_inner) * (ratio - 1.0) / (ratio**n_cells - 1.0)
    k = np.arange(n_cells + 1)
    nodes = r_inner + h0 * (ratio**k - 1.0) / (ratio - 1.0)
    nodes[-1] = r_outer
    return nodes


def banded_layout(sub, diag, sup):
    """The (3, n) ``scipy.linalg.solve_banded`` layout (rows super, diag,
    sub) of a tridiagonal matrix given by row-aligned diagonals."""
    return np.array([np.r_[0.0, sup[:-1]], diag, np.r_[sub[1:], 0.0]])


def gas(gamma, c_star=1.0, mu=0.5):
    """FluidParams with lambda = 0: the gas every test problem is built for."""
    return FluidParams(gamma=gamma, mu=mu, lambda_=0.0, c_star=c_star)


def newton_steady(profile, tol=2e-11, max_iter=60):
    """Damped Newton on the discrete semilinear system
    L_h Phi - F(Phi) + b = 0 of the profile's gas and grid (same operator
    as the production solver, independent iteration)."""
    grid = profile.values.grid
    fluid = profile.fluid
    lap = laplacian(grid)
    b = profile.values.values
    phi = np.zeros(grid.n_nodes)

    def residual(p):
        return lap @ p - fluid.density(p) + b

    g = residual(phi)
    for _ in range(max_iter):
        norm = np.max(np.abs(g))
        if norm < tol:
            return phi
        jac = banded_layout(lap.sub, lap.diag - fluid.density_slope(phi),
                            lap.sup)
        step = solve_banded((1, 1), jac, -g)
        lam = 1.0
        while lam > 1e-6:
            trial = phi + lam * step
            try:
                g_trial = residual(trial)
            except Exception:
                lam *= 0.5
                continue
            if np.max(np.abs(g_trial)) < norm:
                phi, g = trial, g_trial
                break
            lam *= 0.5
        else:
            raise RuntimeError("Newton damping failed")
    raise RuntimeError("Newton did not converge")


def radial_vector_h3_norm_dense(u_funcs, r_inner, r_outer, n=40001):
    """H^3 norm of a radial vector field from analytic derivative callables.

    ``u_funcs`` maps derivative order 0..3 to a callable; the u/r channel and
    its derivatives are assembled analytically from those.  Uses the same
    norm convention as the package (gradient channels u' and sqrt(2) u/r,
    differentiated radially) but evaluates everything with dense plain
    trapezoid quadrature.
    """
    r = np.linspace(r_inner, r_outer, n)
    u0, u1, u2, u3 = (u_funcs[k](r) for k in range(4))
    over = u0 / r
    over1 = u1 / r - u0 / r**2
    over2 = u2 / r - 2.0 * u1 / r**2 + 2.0 * u0 / r**3

    def integral(vals):
        return np.trapezoid(vals**2 * FOUR_PI * r**2, r)

    total = integral(u0)
    total += integral(u1) + 2.0 * integral(over)
    total += integral(u2) + 2.0 * integral(over1)
    total += integral(u3) + 2.0 * integral(over2)
    return np.sqrt(total)


# The grid norms below are the package's own discrete formulas (its radial
# stencils, weights and H^k terms), kept here for the tests that pin those
# formulas and compare the E/D functionals with their parts; nothing in the
# package calls them.

def radial_integral(f):
    """Discrete integral of the field f over the shell with the 4 pi r^2
    measure."""
    return float(np.dot(f.grid.weights, f.values))


def _weighted_sq(grid, f):
    return float(np.dot(grid.weights, f**2))


def sobolev_terms(grid, derivs, channels=()):
    """Squared terms of a discrete H^k norm from the caller's derivatives
    derivs[j] = d^j f, one quadrature per term: term j is ||d^j f||^2.
    Given the channels channels[i] = d^i (u/r) of a radial vector field
    u(r)*rhat, term j >= 1 also carries 2 ||d^(j-1) (u/r)||^2, so terms 1..
    are those of grad u."""
    terms = [_weighted_sq(grid, d) for d in derivs]
    for j, c in enumerate(channels, 1):
        terms[j] += 2.0 * _weighted_sq(grid, c)
    return terms


def sobolev_norm(f, k):
    """Discrete H^k norm of a scalar profile: sqrt of the summed squared L2
    norms of the radial derivatives of orders 0..k."""
    if k not in (0, 1, 2, 3):
        raise ParameterError(f"Sobolev order must be in 0..3, got {k}")
    derivs = [differentiate(f.grid, f.values, j) if j else f.values
              for j in range(k + 1)]
    return math.sqrt(sum(sobolev_terms(f.grid, derivs)))


def vector_sobolev_norm(u, k):
    """Discrete H^k norm of the radial vector field u(r)*rhat: the channels
    u' and u/r (multiplicity two) of its gradient, each differentiated
    radially."""
    if k not in (0, 1, 2, 3):
        raise ParameterError(f"Sobolev order must be in 0..3, got {k}")
    grid = u.grid
    over_r = u.values / grid.r
    derivs = [differentiate(grid, u.values, j) if j else u.values
              for j in range(k + 1)]
    channels = [differentiate(grid, over_r, j) if j else over_r
                for j in range(k)]
    return math.sqrt(sum(sobolev_terms(grid, derivs, channels)))


# Batch-of-one wrappers of the package's stacked norms and of its Lame
# ratios: the package only runs their stacks (the steady regularity report
# and the inequality ensembles), and the tests pin the formulas one profile
# at a time.

def vector_gradient_norm(u):
    """L2 norm of grad(u(r)*rhat): sqrt(int (u'^2 + 2 (u/r)^2))."""
    grid, vals = u.grid, u.values[None]
    return float(_vector_gradient_norms(grid, vals,
                                        differentiate(grid, vals, 1))[0])


def vector_hessian_norm(u):
    """L2 norm of the full second gradient of the radial vector field
    u(r)*rhat (see grids._vector_hessian_norms)."""
    grid, vals = u.grid, u.values[None]
    return float(_vector_hessian_norms(grid, vals,
                                       differentiate(grid, vals, 1))[0])


def hessian_norm_radial(phi):
    """Discrete L2 norm of the second gradient of a radial scalar:
    sqrt(||phi''||^2 + 2 ||phi'/r||^2)."""
    return float(_hessian_norms(phi.grid, phi.values[None])[0])


def verify_lame_gradient_case(psi, longitudinal_viscosity):
    """Curl-free elastostatic estimate on one radial potential: with u = grad
    psi and g = -(2 mu + lambda) d_r(Lap psi), 2 mu + lambda being the
    longitudinal viscosity, report C_emp = ||grad^2 u|| / (||g|| + ||grad u||).
    It is trivial where the member loop's denominator vanishes."""
    (c_emp,) = _lame_ratios(psi.grid, psi.values[None],
                            longitudinal_viscosity)
    hess_u, denom = _lame_parts(psi.grid, psi.values, longitudinal_viscosity)
    trivial = denom < 1e-14 * max(1.0, hess_u)
    return IneqReport(inequality="lame_gradient_case", n_samples=1,
                      max_ratio=float(c_emp), mean_ratio=float(c_emp),
                      passed=bool(trivial or np.isfinite(c_emp)),
                      details={"trivial": True} if trivial else {})


def tendencies(state, steady, mode="nonlinear"):
    """The tendencies (q_t, u_t, phi_t, q_tt) of one state, as arrays,
    evaluated afresh by a run workspace of its own, as a run evaluates the
    state it samples."""
    ws = _Workspace(steady, SimConfig(mode=mode))
    q, u = state.q.values, state.u.values
    return _tendencies(ws, q, u, ws.rhs(q, u))


def sample_row(state, tend, steady):
    """The sampled row (E, D, D_no_qtt, mass, E_basic, min_density,
    grad_u_sq) of one state about steady and its tendencies tend (see
    ``tendencies``), on a run workspace of its own."""
    ws = _Workspace(steady, SimConfig())
    return _sample_row(ws, state.q.values, state.u.values, state.phi.values,
                       tend)


# the terms of the perturbation equations a manufactured forcing can scale
MMS_TERMS = ("advection", "pressure", "field", "viscous", "flux")


def _bump_derivatives(r, center, width, orders):
    """B = (1 - x^2)^8 on |x| < 1, x = (r - center)/width, and its radial
    derivatives of the given orders; exact polynomial derivatives in x on
    the support, zero outside (B is C^7 there)."""
    b = Polynomial([1.0, 0.0, -1.0]) ** 8
    x = (r - center) / width
    inside = np.abs(x) < 1.0
    out = []
    for k in orders:
        d = np.zeros_like(r)
        d[inside] = b.deriv(k)(x[inside]) / width**k
        out.append(d)
    return out


def background_density(r):
    """rho_tilde = 1 + e^(-(r-1)^2)/2 and its radial derivative."""
    e = np.exp(-((r - 1.0) ** 2))
    return 1.0 + 0.5 * e, -(r - 1.0) * e


class Manufactured:
    """Closed-form manufactured solution of the radial perturbation
    equations on the nodes r:

        phi_m = a (1 + sin(t)/2) B(r; 5, 2),   q_m = Lap phi_m,
        u_m = a sin(2t + 0.3) B(r; 4, 2),

    with B the bump of ``_bump_derivatives``, and the forcing (S_q, S_u)
    that makes them exact:

        S_q = d_t q_m + (1/r^2) d_r(r^2 rho u_m)
        S_u = d_t u_m + d_r(dh) - (c/rho) d_r(div u_m) - d_r phi_m
              + u_m d_r u_m

    with rho = rho_tilde + q_m and dh = h(rho) - h(rho_tilde) when
    ``nonlinear``; the linear equations take rho = rho_tilde,
    dh = h'(rho_tilde) q_m and no advection.  h'(s) = gamma s^(gamma-2) and
    c is the longitudinal viscosity.  ``scale`` maps names in MMS_TERMS to
    factors on the matching forcing terms (c/rho for "viscous").
    """

    def __init__(self, r, gamma, c_visc, amplitude, nonlinear=True,
                 scale=None):
        self.r, self.gamma, self.c_visc = r, gamma, c_visc
        self.a, self.nonlinear = amplitude, nonlinear
        self.scale = {name: 1.0 for name in MMS_TERMS}
        self.scale.update(scale or {})
        b1, b2, b3 = _bump_derivatives(r, 5.0, 2.0, (1, 2, 3))
        self.phi1 = b1
        self.lap = b2 + 2.0 * b1 / r
        self.lap1 = b3 + 2.0 * b2 / r - 2.0 * b1 / r**2
        self.u0, self.u1, u2 = _bump_derivatives(r, 4.0, 2.0, (0, 1, 2))
        self.div_grad = u2 + 2.0 * self.u1 / r - 2.0 * self.u0 / r**2
        self.rho_s, self.rho_s1 = background_density(r)

    def _hp(self, s):
        return self.gamma * s ** (self.gamma - 2.0)

    def exact(self, t):
        """(q_m, u_m) at time t."""
        a = self.a
        return (a * (1.0 + 0.5 * math.sin(t)) * self.lap,
                a * math.sin(2.0 * t + 0.3) * self.u0)

    def forcing(self, t):
        """(S_q, S_u) at time t."""
        a, r, k = self.a, self.r, self.scale
        tp, tu = 1.0 + 0.5 * math.sin(t), math.sin(2.0 * t + 0.3)
        q, q1 = a * tp * self.lap, a * tp * self.lap1
        u, u1 = a * tu * self.u0, a * tu * self.u1
        rho, rho1 = self.rho_s, self.rho_s1
        if self.nonlinear:
            rho, rho1 = rho + q, rho1 + q1
            dh1 = self._hp(rho) * rho1 - self._hp(self.rho_s) * self.rho_s1
        else:
            g = self.gamma
            dh1 = (g * (g - 2.0) * self.rho_s ** (g - 3.0) * self.rho_s1 * q
                   + self._hp(self.rho_s) * q1)
        s_q = (a * 0.5 * math.cos(t) * self.lap
               + k["flux"] * (rho1 * u + rho * (u1 + 2.0 * u / r)))
        s_u = (2.0 * a * math.cos(2.0 * t + 0.3) * self.u0
               + k["pressure"] * dh1
               - k["viscous"] * self.c_visc / rho * (a * tu * self.div_grad)
               - k["field"] * a * tp * self.phi1)
        if self.nonlinear:
            s_u += k["advection"] * u * u1
        return s_q, s_u


def fornberg_weights(z, x, m):
    """Finite-difference weights for the m-th derivative at z on nodes x,
    one scalar Fornberg recursion (Math. Comp. 51, 1988)."""
    n = x.size
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def stencil_window(i, n, order, uniform):
    """Node window [lo, hi) of the package's derivative stencil at node i:
    centered in the interior, one-sided with second-order accuracy at the
    ends (four points for a one-sided or non-uniform second derivative)."""
    if order == 1:
        size, lo = 3, i - 1
    elif order == 2:
        if uniform and 1 <= i <= n - 2:
            size, lo = 3, i - 1
        else:
            size = 4
            lo = i - 2 if i >= 2 else i - 1
    else:
        size, lo = 5, i - 2
    lo = max(0, min(lo, n - size))
    return lo, lo + size


def derivative_csr(grid, order):
    """The derivative stencil as a CSR matrix, one scalar Fornberg call per
    node."""
    n = grid.n_nodes
    rows, cols, vals = [], [], []
    for i in range(n):
        lo, hi = stencil_window(i, n, order, grid.uniform)
        rows.extend([i] * (hi - lo))
        cols.extend(range(lo, hi))
        vals.extend(fornberg_weights(grid.r[i], grid.r[lo:hi], order))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def stencil_loop_differentiate(grid, values, order):
    """differentiate as one broadcast multiply-add per window column over
    the centered rows of the whole stack, then one gather of the end rows,
    each row summed from its first product: the reference of the flat block
    pass, its bits and its floating-point warnings.  Unlike csr @ row,
    which sums from +0, it keeps a row whose products are all -0 at -0."""
    lo, w, size = _stencil_rows(grid, order)
    n = lo.size
    inner = np.flatnonzero(lo == np.arange(n) - size // 2)
    ends = np.flatnonzero(lo != np.arange(n) - size // 2)
    a, b = inner[0], inner[-1] + 1
    s = a - lo[a]
    out = np.empty_like(values, dtype=float)
    acc = w[a:b, 0] * values[..., a - s:b - s]
    for j in range(1, size[a]):
        acc += w[a:b, j] * values[..., a - s + j:b - s + j]
    out[..., a:b] = acc
    terms = values[..., lo[ends, None] + np.arange(w.shape[1])] * w[ends]
    acc = terms[..., 0] + terms[..., 1]
    for j in range(2, terms.shape[-1]):
        acc += terms[..., j]
    out[..., ends] = acc
    return out


def premerge_tangent_field(seed, grid, modes=3):
    """(v_r, v_theta, v_phi) of the seeded tangent field on the 3-D grid,
    built directly from the seeded draws: the field the 3-D operators take
    as the oracle of the mode-factored ensembles (nsplab builds its members
    from 1-D factors only)."""
    rng = np.random.default_rng([seed, 3])
    r = grid.r[:, None, None]
    x = (r - grid.r_inner) / (grid.r_outer - grid.r_inner)
    theta = grid.theta[None, :, None]
    phi = grid.phi[None, None, :]
    taper = np.sin(theta) ** 2
    cut = cutoff(grid.r, grid.r_inner,
                 grid.r_outer - grid.r_inner)[:, None, None]
    w = 0.15 * (grid.r_outer - grid.r_inner)
    vr_factor = 1.0 - np.exp(-(((r - grid.r_inner) / w) ** 2))

    comps = [np.zeros(grid_shape(grid)) for _ in range(3)]
    for _ in range(modes):
        l_phi = rng.integers(0, 5)
        l_theta = rng.integers(1, 4)
        k_r = rng.integers(1, 3)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
        amps = rng.uniform(-1.0, 1.0, size=3)
        angular = (np.cos(l_phi * phi + phases[0])
                   * np.cos(l_theta * theta + phases[1]) * taper)
        envelope = cut * (0.5 + 0.5 * np.cos(k_r * math.pi * x + phases[2]))
        for c in range(3):
            comps[c] += amps[c] * angular * envelope
    comps[0] = comps[0] * vr_factor
    return tuple(comps)


def premerge_scalar_field(seed, grid, modes=3):
    """The seeded scalar field on the 3-D grid, built directly from the
    seeded draws: the oracle field of the scalar ensembles."""
    rng = np.random.default_rng([seed, 7])
    r = grid.r[:, None, None]
    x = (r - grid.r_inner) / (grid.r_outer - grid.r_inner)
    theta = grid.theta[None, :, None]
    phi = grid.phi[None, None, :]
    taper = np.sin(theta) ** 2
    cut = cutoff(grid.r, grid.r_inner,
                 grid.r_outer - grid.r_inner)[:, None, None]
    out = np.zeros(grid_shape(grid))
    for _ in range(modes):
        l_phi = rng.integers(0, 5)
        l_theta = rng.integers(1, 4)
        k_r = rng.integers(1, 3)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        amp = rng.uniform(-1.0, 1.0)
        out += (amp * np.cos(l_phi * phi + phases[0])
                * np.cos(l_theta * theta + phases[1]) * taper
                * cut * (0.5 + 0.5 * np.cos(k_r * math.pi * x + phases[2])))
    return out


# The per-field operators on the 3-D spherical grid and on its inner
# sphere: the oracle of the mode-factored ensembles in nsplab.ineqlab,
# which form no 3-D field.

def grid_shape(grid):
    """(nr, ntheta, nphi): the shape of a 3-D field on the grid."""
    return (grid.r.size, grid.theta.size, grid.phi.size)


@cache
def geometry(grid):
    """(r, sin theta, cot theta), shaped to broadcast over the grid;
    computed once per grid."""
    r = grid.r[:, None, None]
    sin = np.sin(grid.theta)[None, :, None]
    cot = (np.cos(grid.theta) / np.sin(grid.theta))[None, :, None]
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
            if comp.shape != grid_shape(self.grid):
                raise ParameterError("component shape does not match the grid")
            if not np.all(np.isfinite(comp)):
                raise ParameterError("field components must be finite")


def d_axis(grid, f, axis):
    """Centered difference along r (axis 0) or theta (axis 1)."""
    d = _three_point(np.moveaxis(f, axis, -1), grid.steps[axis])
    return np.moveaxis(d, -1, axis)


def d_phi(grid, f):
    """Periodic centered difference in azimuth."""
    return _periodic(f, grid.steps[2])


def grad_scalar(grid, f):
    r, sin, _ = geometry(grid)
    return VectorField3(vr=d_axis(grid, f, 0),
                        vtheta=d_axis(grid, f, 1) / r,
                        vphi=d_phi(grid, f) / (r * sin),
                        grid=grid)


def divergence(v):
    grid = v.grid
    r, sin, _ = geometry(grid)
    return (d_axis(grid, r**2 * v.vr, 0) / r**2
            + d_axis(grid, sin * v.vtheta, 1) / (r * sin)
            + d_phi(grid, v.vphi) / (r * sin))


def curl(v):
    grid = v.grid
    r, sin, _ = geometry(grid)
    cr = (d_axis(grid, sin * v.vphi, 1) - d_phi(grid, v.vtheta)) / (r * sin)
    ct = d_phi(grid, v.vr) / (r * sin) - d_axis(grid, r * v.vphi, 0) / r
    cp = (d_axis(grid, r * v.vtheta, 0) - d_axis(grid, v.vr, 1)) / r
    return VectorField3(vr=cr, vtheta=ct, vphi=cp, grid=grid)


def gradient_squared(v):
    """Pointwise |grad v|^2: all nine orthonormal covariant components."""
    grid = v.grid
    r, sin, cot = geometry(grid)
    comps = (
        d_axis(grid, v.vr, 0),
        d_axis(grid, v.vr, 1) / r - v.vtheta / r,
        d_phi(grid, v.vr) / (r * sin) - v.vphi / r,
        d_axis(grid, v.vtheta, 0),
        d_axis(grid, v.vtheta, 1) / r + v.vr / r,
        d_phi(grid, v.vtheta) / (r * sin) - cot * v.vphi / r,
        d_axis(grid, v.vphi, 0),
        d_axis(grid, v.vphi, 1) / r,
        d_phi(grid, v.vphi) / (r * sin) + v.vr / r + cot * v.vtheta / r,
    )
    total = np.zeros(grid_shape(grid))
    for c in comps:
        total += c**2
    return total


def integrate(grid, f):
    """Integral over the shell of a field sampled on the grid."""
    w = np.repeat(grid.w_theta, grid.phi.size)  # (theta, phi) row-major
    return float(grid.w_r @ (f.reshape(grid.r.size, -1) @ w) * grid.w_phi)


def l2_norm(grid, f):
    return math.sqrt(integrate(grid, f**2))


def l2_norm_vec(v):
    return math.sqrt(integrate(v.grid, v.vr**2 + v.vtheta**2 + v.vphi**2))


def grad_norm(v):
    return math.sqrt(integrate(v.grid, gradient_squared(v)))


def l6_norm(grid, f):
    f2 = f * f  # f**6 would go through pow(), several times slower
    f6 = f2 * f2
    f6 *= f2
    return integrate(grid, f6) ** (1.0 / 6.0)


def div_curl_norm(v):
    return l2_norm(v.grid, divergence(v)) + l2_norm_vec(curl(v))


def inner_traces(v):
    """The three components on the inner sphere, shape (3, ntheta, nphi)."""
    return np.stack((v.vr[0], v.vtheta[0], v.vphi[0]))


def sphere_traces(inner):
    """Components given as pieces whose radial factors are taken at r = R
    (ineqlab.TangentEnsemble.inner), multiplied out on the inner sphere:
    shape (..., 3, ntheta, nphi)."""
    return np.stack([(rad * pol).mT @ azi for rad, pol, azi in inner],
                    axis=-3)


def boundary_integral(grid, f):
    """Integrals over the inner sphere r = R of fields sampled on (theta,
    phi), the last two axes of f."""
    return (np.einsum("j,...jk->...", grid.w_theta, f) * grid.w_phi
            * grid.r_inner**2)


def boundary_l2_sq(grid, traces):
    """|v|^2 integrated over the inner sphere, from the traces of v, shape
    (3, ntheta, nphi)."""
    return float(boundary_integral(grid, np.sum(traces**2, axis=0)))


def boundary_pairings(grid, v_traces, g_traces):
    """int_{r=R} v . g for every pair of traces from the stacks v_traces
    (n_v, 3, ntheta, nphi) and g_traces (n_g, 3, ntheta, nphi); shape
    (n_v, n_g)."""
    weighted = g_traces * (grid.w_theta[:, None] * grid.w_phi
                           * grid.r_inner**2)
    return np.einsum("vcjk,gcjk->vg", v_traces, weighted)


def tangent_field(seed, grid, modes=3):
    """The seeded tangent field on the 3-D grid, from the seeded draws."""
    return VectorField3(*premerge_tangent_field(seed, grid, modes), grid=grid)


# The seeded ensembles member by member, with the draws of rng.uniform and
# rng.choice and a one-column solve per member: the oracle of ineqlab's
# draw helpers, of its mode-sum factors, one cos per mode and family, and
# of its radial ensembles, which draw, solve and differentiate their
# members as the rows of stacks.

def mode_sum_factors(rng, grid, modes, n_comp, n_phases):
    """(amps, radial, polar, azimuthal) of ineqlab._mode_sum, built mode by
    mode."""
    x = (grid.r - grid.r_inner) / (grid.r_outer - grid.r_inner)
    cut = cutoff(grid.r, grid.r_inner, grid.r_outer - grid.r_inner)
    taper = np.sin(grid.theta) ** 2
    amps = np.empty((modes, n_comp))
    radial = np.empty((modes, grid.r.size))
    polar = np.empty((modes, grid.theta.size))
    azimuthal = np.empty((modes, grid.phi.size))
    for m in range(modes):
        l_phi = rng.integers(0, 5)
        l_theta = rng.integers(1, 4)
        k_r = rng.integers(1, 3)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n_phases)
        amps[m] = rng.uniform(-1.0, 1.0, size=n_comp)
        azimuthal[m] = np.cos(l_phi * grid.phi + phases[0])
        polar[m] = np.cos(l_theta * grid.theta + phases[1]) * taper
        radial[m] = cut * (0.5 + 0.5 * np.cos(k_r * math.pi * x + phases[2]))
    return amps, radial, polar, azimuthal


def radial_source(seed, grid):
    """The seeded source of the radial ensembles: three Gaussian bumps."""
    rng = np.random.default_rng([seed, 13])
    r = grid.r
    length = grid.r_outer - grid.r_inner
    vals = np.zeros_like(r)
    for _ in range(3):
        center = grid.r_inner + rng.uniform(0.1, 0.7) * length
        width = rng.uniform(0.05, 0.2) * length
        amp = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        vals += amp * np.exp(-(((r - center) / width) ** 2))
    return vals


def poisson_regularity_ratios(grid, n_samples, seed):
    """||grad^2 phi|| / ||q|| per member of the Poisson-regularity
    ensemble, one source and one solve at a time."""
    lap, r, ratios = laplacian(grid), grid.r, []
    for i in range(n_samples):
        q = radial_source(seed + i, grid)
        phi = lap.solve_refined(q)
        d1, d2 = (differentiate(grid, phi, k) for k in (1, 2))
        hess = math.sqrt(float(np.dot(grid.weights,
                                      d2**2 + 2.0 * (d1 / r) ** 2)))
        ratios.append(hess / math.sqrt(_weighted_sq(grid, q)))
    return ratios


def _lame_parts(grid, psi, longitudinal_viscosity):
    """The numerator ||grad^2 u|| and denominator ||g|| + ||grad u|| of
    C_emp for one potential psi (n,)."""
    r = grid.r
    u = differentiate(grid, psi, 1)
    lap_psi = differentiate(grid, psi, 2) + 2.0 * u / r
    g = -longitudinal_viscosity * differentiate(grid, lap_psi, 1)
    b = u / r
    a = differentiate(grid, u, 1) - b
    ap, bp = differentiate(grid, np.stack((a, b)), 1)
    hess_u = math.sqrt(float(np.dot(
        grid.weights,
        ap**2 + 4.0 * (a / r) ** 2 + 3.0 * bp**2 + 2.0 * ap * bp)))
    grad_u = math.sqrt(_weighted_sq(grid, differentiate(grid, u, 1))
                       + 2.0 * _weighted_sq(grid, u / r))
    return hess_u, math.sqrt(_weighted_sq(grid, g)) + grad_u


def lame_ratios(grid, n_samples, seed, longitudinal_viscosity):
    """C_emp = ||grad^2 u|| / (||g|| + ||grad u||) per member of the Lame
    ensemble (0 where the denominator vanishes), one source and one solve
    at a time."""
    lap, ratios = laplacian(grid), []
    for i in range(n_samples):
        psi = lap.solve_refined(radial_source(seed + i, grid))
        hess_u, denom = _lame_parts(grid, psi, longitudinal_viscosity)
        ratios.append(0.0 if denom < 1e-14 * max(1.0, hess_u)
                      else hess_u / denom)
    return ratios
