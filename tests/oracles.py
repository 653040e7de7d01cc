"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's quadrature and derivative
machinery: integrals come from dense plain trapezoid sums over analytic
callables, and the steady-state oracle is a damped Newton iteration on the
discrete system (same operator, independent solution path).
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from nsplab.elliptic import _apply_banded, _banded_operator
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


def newton_steady(gamma, profile, grid, tol=2e-11, max_iter=60):
    """Damped Newton on the discrete semilinear system
    L_h Phi - F(Phi) + b = 0 (same operator as the production solver,
    independent iteration)."""
    branch = _Branch(gamma, profile.c_star)
    ab = _banded_operator(grid, 0.0)
    b = profile.values.values
    phi = np.zeros(grid.n_nodes)

    def residual(p):
        return _apply_banded(ab, p) - branch.F(p) + b

    g = residual(phi)
    for _ in range(max_iter):
        norm = np.max(np.abs(g))
        if norm < tol:
            return phi
        jac = np.array(ab)
        jac[1] = jac[1] - branch.Fprime(phi)
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
