"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's quadrature and derivative
machinery: integrals come from dense plain trapezoid sums over analytic
callables, and the steady-state oracle is a damped Newton iteration on the
discrete system (same operator, independent solution path).  The one
exception is the 3-D spherical operators at the end: they apply the
package's one-axis stencils and quadrature to whole 3-D arrays, an
independent evaluation path for the mode-factored ensembles.  The module
also holds ``tendencies``, the suite's one way to evaluate a single state's
tendencies through a run workspace, and ``sample_norms``, its E/D sample.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import Polynomial
from scipy.linalg import solve_banded

from nsplab.elliptic import laplacian
from nsplab.energy import _sample_norms
from nsplab.errors import ParameterError
from nsplab.evolve import SimConfig, _tendencies, _Workspace
from nsplab.grids import cutoff
from nsplab.ineqlab import SphericalGrid, _periodic, _three_point
from nsplab.steady import _Branch

FOUR_PI = 4.0 * np.pi


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


def newton_steady(gamma, profile, grid, tol=2e-11, max_iter=60):
    """Damped Newton on the discrete semilinear system
    L_h Phi - F(Phi) + b = 0 (same operator as the production solver,
    independent iteration)."""
    branch = _Branch(gamma, profile.c_star)
    lap = laplacian(grid)
    b = profile.values.values
    phi = np.zeros(grid.n_nodes)

    def residual(p):
        return lap @ p - branch.F(p) + b

    g = residual(phi)
    for _ in range(max_iter):
        norm = np.max(np.abs(g))
        if norm < tol:
            return phi
        jac = banded_layout(lap.sub, lap.diag - branch.Fprime(phi), lap.sup)
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


def tendencies(state, steady, params, mode="nonlinear"):
    """The tendencies (q_t, u_t, phi_t, q_tt) of one state, as arrays,
    evaluated afresh by a run workspace of its own, as a run evaluates the
    state it samples."""
    ws = _Workspace(SimConfig(params=params, grid=state.q.grid, steady=steady,
                              mode=mode))
    q, u, phi = state.q.values, state.u.values, state.phi.values
    return _tendencies(ws, q, u, ws.rhs(q, u, phi))


def sample_norms(state, tend):
    """The E/D sample of one state and its tendencies tend (see
    ``tendencies``)."""
    return _sample_norms(state.q.grid, state.q.values, state.u.values,
                         state.phi.values, tend)


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

    comps = [np.zeros(grid.shape) for _ in range(3)]
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
    out = np.zeros(grid.shape)
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


# The per-field operators on the 3-D spherical grid: the oracle of the
# mode-factored ensembles in nsplab.ineqlab, which form a 3-D field only
# for the L6 norm.

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


def d_axis(grid, f, axis):
    """Centered difference along r (axis 0) or theta (axis 1)."""
    return _three_point(f, grid.steps[axis], axis)


def d_phi(grid, f):
    """Periodic centered difference in azimuth."""
    return _periodic(f, grid.steps[2])


def grad_scalar(grid, f):
    r, sin, _ = grid.geometry
    return VectorField3(vr=d_axis(grid, f, 0),
                        vtheta=d_axis(grid, f, 1) / r,
                        vphi=d_phi(grid, f) / (r * sin),
                        grid=grid)


def divergence(v):
    grid = v.grid
    r, sin, _ = grid.geometry
    return (d_axis(grid, r**2 * v.vr, 0) / r**2
            + d_axis(grid, sin * v.vtheta, 1) / (r * sin)
            + d_phi(grid, v.vphi) / (r * sin))


def curl(v):
    grid = v.grid
    r, sin, _ = grid.geometry
    cr = (d_axis(grid, sin * v.vphi, 1) - d_phi(grid, v.vtheta)) / (r * sin)
    ct = d_phi(grid, v.vr) / (r * sin) - d_axis(grid, r * v.vphi, 0) / r
    cp = (d_axis(grid, r * v.vtheta, 0) - d_axis(grid, v.vr, 1)) / r
    return VectorField3(vr=cr, vtheta=ct, vphi=cp, grid=grid)


def gradient_squared(v):
    """Pointwise |grad v|^2: all nine orthonormal covariant components."""
    grid = v.grid
    r, sin, cot = grid.geometry
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
    total = np.zeros(grid.shape)
    for c in comps:
        total += c**2
    return total


def l2_norm(grid, f):
    return math.sqrt(grid.integrate(f**2))


def l2_norm_vec(v):
    return math.sqrt(v.grid.integrate(v.vr**2 + v.vtheta**2 + v.vphi**2))


def grad_norm(v):
    return math.sqrt(v.grid.integrate(gradient_squared(v)))


def div_curl_norm(v):
    return l2_norm(v.grid, divergence(v)) + l2_norm_vec(curl(v))


def inner_traces(v):
    """The three components on the inner sphere, shape (3, ntheta, nphi)."""
    return np.stack((v.vr[0], v.vtheta[0], v.vphi[0]))


def tangent_field(seed, grid, modes=3):
    """The seeded tangent field on the 3-D grid, from the seeded draws."""
    return VectorField3(*premerge_tangent_field(seed, grid, modes), grid=grid)
