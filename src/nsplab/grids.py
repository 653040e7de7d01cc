"""Radial shell grids, quadrature, finite differences, and discrete norms.

Everything downstream works on scalar profiles f(r) over a truncated shell
[R, R_max].  Volume integrals carry the 4*pi*r^2 measure; the quadrature is a
trapezoid rule in the volume coordinate r^3/3, which integrates constants
exactly and is second-order for smooth integrands.  Radial vector fields
u(r)*rhat are stored as their scalar radial component; the angular metric
terms (the 2*(u/r)^2 family) are added in one routine, ``sobolev_terms``,
never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class FluidParams:
    """Physical constants of the gas: adiabatic exponent, viscosities, slip
    friction, and the far-field density the flow relaxes to.

    ``lambda_`` is the second viscosity; ``mu > 0`` and
    ``lambda_ + 2*mu/3 >= 0`` are required.  ``alpha`` is the boundary slip
    friction; it does not enter the radial dynamics (a radial velocity field
    has no tangential component at the inner sphere) and is recorded only so
    configurations are complete.
    """

    gamma: float
    mu: float
    lambda_: float
    alpha: float = 0.0
    c_star: float = 1.0

    def __post_init__(self):
        vals = (self.gamma, self.mu, self.lambda_, self.alpha, self.c_star)
        if not all(math.isfinite(v) for v in vals):
            raise ParameterError("fluid parameters must be finite")
        if self.gamma < 1.0:
            raise ParameterError(f"gamma must be >= 1, got {self.gamma}")
        if self.mu <= 0.0:
            raise ParameterError(f"mu must be > 0, got {self.mu}")
        if self.lambda_ + 2.0 * self.mu / 3.0 < 0.0:
            raise ParameterError("viscosity condition lambda + 2*mu/3 >= 0 violated")
        if self.c_star <= 0.0:
            raise ParameterError(f"c_star must be > 0, got {self.c_star}")

    @property
    def longitudinal_viscosity(self) -> float:
        """Coefficient 2*mu + lambda acting on grad(div u) in the radial reduction."""
        return 2.0 * self.mu + self.lambda_

    def sound_speed(self, rho):
        """Adiabatic sound speed sqrt(gamma * rho**(gamma-1))."""
        return np.sqrt(self.gamma * np.power(rho, self.gamma - 1.0))

    def enthalpy_weight(self, rho):
        """h'(rho) = p'(rho)/rho = gamma * rho**(gamma-2); pressure linearization weight."""
        return self.gamma * np.power(rho, self.gamma - 2.0)

    def enthalpy_increment_about(self, rho_base):
        """The map q -> h(rho_base + q) - h(rho_base), evaluated without
        cancellation; its q-independent factor is computed once, here.

        The naive difference loses ~|log10 q| digits for small perturbations;
        the expm1/log1p form is exact at q = 0 and accurate uniformly in q.
        """
        g = self.gamma
        if g == 1.0:
            return lambda q: np.log1p(q / rho_base)
        prefactor = (g / (g - 1.0)) * np.power(rho_base, g - 1.0)
        return lambda q: prefactor * np.expm1((g - 1.0)
                                              * np.log1p(q / rho_base))


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Nodes r_0 = R < ... < r_N = R_max with positive quadrature weights.

    ``weights[i]`` realizes the integral of f * 4*pi*r^2 dr; the rule is exact
    for f == 1 (weights sum to the shell volume to machine precision).
    """

    r: np.ndarray
    weights: np.ndarray
    uniform: bool
    stretch: float = 0.0  # as given to build_radial_grid
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        w = np.array(self.weights, dtype=float)
        if r.ndim != 1 or r.size < 3 or w.shape != r.shape:
            raise ParameterError("grid needs matching 1-D node and weight arrays")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(w))):
            raise ParameterError("grid nodes and weights must be finite")
        if np.any(np.diff(r) <= 0.0):
            raise ParameterError("grid nodes must be strictly increasing")
        if np.any(w <= 0.0):
            raise ParameterError("quadrature weights must be positive")
        r.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "weights", w)

    @property
    def n_nodes(self) -> int:
        return self.r.size

    @property
    def r_inner(self) -> float:
        return float(self.r[0])

    @property
    def r_outer(self) -> float:
        return float(self.r[-1])

    @property
    def min_spacing(self) -> float:
        return float(np.min(np.diff(self.r)))

    def field(self, values) -> "RadialField":
        return RadialField(values, self)

    def zeros(self) -> "RadialField":
        return RadialField(np.zeros(self.n_nodes), self)


@dataclass(frozen=True, eq=False)
class RadialField:
    """One scalar value per grid node; immutable after construction."""

    values: np.ndarray
    grid: RadialGrid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_nodes,):
            raise ParameterError(
                f"field length {vals.shape} does not match grid ({self.grid.n_nodes},)"
            )
        if not np.isfinite(vals).all():
            raise ParameterError("field values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def volume_weights(r: np.ndarray) -> np.ndarray:
    """Trapezoid weights in the volume coordinate r^3/3 for nodes r, per unit
    solid angle: they sum to (r_N^3 - r_0^3)/3 exactly."""
    cubes = r**3
    w = np.empty_like(r)
    w[1:-1] = (cubes[2:] - cubes[:-2]) / 6.0
    w[0] = (cubes[1] - cubes[0]) / 6.0
    w[-1] = (cubes[-1] - cubes[-2]) / 6.0
    return w


def build_radial_grid(r_inner: float, r_outer: float, n_cells: int,
                      stretch: float = 0.0) -> RadialGrid:
    """Build a shell grid with n_cells intervals (n_cells + 1 nodes).

    ``stretch == 0`` gives uniform spacing.  ``stretch > 0`` gives a geometric
    progression clustered near the inner radius: the cell widths grow by a
    constant ratio chosen so that the last cell is exp(stretch) times wider
    than the first.
    """
    # r_outer**3 is formed as a product: a Python float power would raise
    for name, v in (("r_inner", r_inner), ("r_outer", r_outer), ("stretch", stretch),
                    ("4 pi r_outer**3", FOUR_PI * r_outer * r_outer * r_outer)):
        if not math.isfinite(v):
            raise ParameterError(f"{name} must be finite")
    if r_inner <= 0.0:
        raise ParameterError(f"r_inner must be > 0, got {r_inner}")
    if r_outer <= r_inner:
        raise ParameterError(f"r_outer must exceed r_inner, got [{r_inner}, {r_outer}]")
    if n_cells < 8:
        raise ParameterError(f"n_cells must be >= 8, got {n_cells}")
    if stretch < 0.0:
        raise ParameterError(f"stretch must be >= 0, got {stretch}")

    n = int(n_cells)
    try:
        ratio = math.exp(stretch / (n - 1))
        growth = ratio**n
    except OverflowError:
        raise ParameterError(f"stretch = {stretch:g} is too large: the growth "
                             f"of the cell widths over {n} cells overflows "
                             "double precision") from None
    if ratio == 1.0:  # stretch == 0, or too small to show in double precision
        r = np.linspace(r_inner, r_outer, n + 1)
        uniform = True
    else:
        # first width from the geometric-series sum h0*(ratio^n - 1)/(ratio - 1)
        h0 = (r_outer - r_inner) * (ratio - 1.0) / (growth - 1.0)
        widths = h0 * ratio ** np.arange(n)
        r = r_inner + np.concatenate(([0.0], np.cumsum(widths)))
        r[-1] = r_outer
        if np.any(np.diff(r) <= 0.0):
            raise ParameterError(f"stretch = {stretch:g} is too large: cells "
                                 f"from the first width {h0:.3g} on vanish in "
                                 f"the roundoff of r_inner = {r_inner:g}")
        uniform = False

    w = volume_weights(r)
    w *= FOUR_PI
    return RadialGrid(r=r, weights=w, uniform=uniform, stretch=stretch)


def smoothstep(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    def f(t):
        out = np.zeros_like(t)
        pos = t > 0.0
        out[pos] = np.exp(-1.0 / t[pos])
        return out
    fx = f(np.asarray(x, dtype=float))
    f1 = f(1.0 - np.asarray(x, dtype=float))
    return fx / (fx + f1)


# radial cutoff as fractions of a shell length: 1 up to the first fraction
# past the inner radius, 0 beyond the second
CUT_START = 0.6
CUT_END = 0.8


def cutoff(r: np.ndarray, r_inner: float, length: float) -> np.ndarray:
    """Smooth mask: 1 for r <= r_inner + CUT_START*length, 0 for
    r >= r_inner + CUT_END*length."""
    c1 = r_inner + CUT_START * length
    c2 = r_inner + CUT_END * length
    return 1.0 - smoothstep((r - c1) / (c2 - c1))


def _fornberg_weights(z: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at each z[k] on the
    nodes x[k, :]: Fornberg's recursion (Math. Comp. 51, 1988), run on all
    rows at once."""
    rows, n = x.shape
    c = np.zeros((n, m + 1, rows))
    c1 = np.ones(rows)
    c4 = x[:, 0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = np.ones(rows)
        c5 = c4
        c4 = x[:, i] - z
        for j in range(i):
            c3 = x[:, i] - x[:, j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m].T


class _Stencil(NamedTuple):
    """Derivative rows of one order: row i weighs x[lo[i]:lo[i] + k] by
    w[i, :k], k its window size, with w zero-padded to the widest window.
    The rows in ``inner`` share one centered window of ``width`` nodes and
    are applied by slices; the few ``ends`` rows gather the nodes
    ``end_nodes`` and weigh them by ``end_w``, all columns of w."""

    lo: np.ndarray
    w: np.ndarray
    inner: slice
    width: int
    ends: np.ndarray
    end_nodes: np.ndarray
    end_w: np.ndarray


def _stencil(grid: RadialGrid, order: int) -> _Stencil:
    """The derivative rows of one order on this grid, built once.

    Interior stencils are centered; end stencils are one-sided with enough
    points for second-order accuracy (a one-sided second derivative needs
    four points, as does the second derivative on a non-uniform grid).
    """
    key = ("stencil", order)
    cached = grid._cache.get(key)
    if cached is not None:
        return cached
    if order not in (1, 2, 3):
        raise ParameterError(f"derivative order must be 1, 2 or 3, got {order}")
    r = grid.r
    n = r.size
    if n < order + 2:
        raise ParameterError("grid has too few nodes for this derivative order")
    size = np.full(n, order + 2)
    if order == 2 and grid.uniform:
        size[1:-1] = 3
    centered = np.arange(n) - size // 2
    lo = np.clip(centered, 0, n - size)
    w = np.zeros((n, int(size.max())), order="F")  # contiguous columns
    for k in np.unique(size):
        rows = np.flatnonzero(size == k)
        window = r[lo[rows, None] + np.arange(k)]
        w[rows, :k] = _fornberg_weights(r[rows], window, order)
    inner = np.flatnonzero(lo == centered)
    ends = np.flatnonzero(lo != centered)
    st = _Stencil(lo, w, slice(inner[0], inner[-1] + 1), int(size[inner[0]]),
                  ends, lo[ends, None] + np.arange(w.shape[1]), w[ends])
    grid._cache[key] = st
    return st


def differentiate(grid: RadialGrid, values: np.ndarray,
                  order: int) -> np.ndarray:
    """Finite-difference derivative of formal order 2 of the profile
    ``values`` (shape (n,)) or of each row of a stack (shape (k, n)):
    centered in the interior, one-sided at both ends.  Each row sums its
    weighted nodes from left to right."""
    if np.shape(values)[-1] != grid.n_nodes:
        raise ParameterError("values do not match the grid nodes")
    st = _stencil(grid, order)
    out = np.empty_like(values, dtype=float)
    a, b = st.inner.start, st.inner.stop
    s = a - st.lo[a]
    acc = st.w[a:b, 0] * values[..., a - s:b - s]
    for j in range(1, st.width):
        acc += st.w[a:b, j] * values[..., a - s + j:b - s + j]
    out[..., a:b] = acc
    terms = values[..., st.end_nodes] * st.end_w
    acc = terms[..., 0] + terms[..., 1]
    for j in range(2, terms.shape[-1]):
        acc += terms[..., j]
    out[..., st.ends] = acc
    return out


def radial_derivative(f: RadialField, order: int) -> RadialField:
    """Finite-difference derivative of formal order 2 of a field (see
    ``differentiate``)."""
    return RadialField(differentiate(f.grid, f.values, order), f.grid)


def integrate(f: RadialField) -> float:
    """Discrete integral of f over the shell with the 4*pi*r^2 measure."""
    return float(np.dot(f.grid.weights, f.values))


def weighted_l2_norm(f: RadialField) -> float:
    """Discrete L2 norm sqrt(sum w_i f_i^2)."""
    return math.sqrt(float(np.dot(f.grid.weights, f.values**2)))


def _wsq(grid: RadialGrid, values: np.ndarray) -> float:
    return float(np.dot(grid.weights, values**2))


def sobolev_terms(grid: RadialGrid, derivs, channels=()) -> list:
    """Squared terms of a discrete H^k norm from the caller's derivatives
    derivs[j] = d^j f: term j is ||d^j f||^2.  Given the channels
    channels[i] = d^i (u/r) of a radial vector field u(r)*rhat, term j >= 1
    also carries 2 ||d^(j-1) (u/r)||^2, so terms 1.. are those of grad u."""
    terms = [_wsq(grid, d) for d in derivs]
    for j, c in enumerate(channels, 1):
        terms[j] += 2.0 * _wsq(grid, c)
    return terms


def sobolev_norm(f: RadialField, k: int) -> float:
    """Discrete H^k norm of a scalar profile: sqrt of the summed squared L2
    norms of the radial derivatives of orders 0..k."""
    if k not in (0, 1, 2, 3):
        raise ParameterError(f"Sobolev order must be in 0..3, got {k}")
    derivs = [differentiate(f.grid, f.values, j) if j else f.values
              for j in range(k + 1)]
    return math.sqrt(sum(sobolev_terms(f.grid, derivs)))


def vector_sobolev_norm(u: RadialField, k: int) -> float:
    """Discrete H^k norm of the radial vector field u(r)*rhat, including the
    angular metric contributions (|grad u|^2 = u'^2 + 2 (u/r)^2 and its
    radial derivatives).

    The gradient of a radial vector field has the two scalar channels u' and
    u/r (the latter with multiplicity two); higher derivatives differentiate
    each channel radially.
    """
    if k not in (0, 1, 2, 3):
        raise ParameterError(f"Sobolev order must be in 0..3, got {k}")
    grid = u.grid
    over_r = u.values / grid.r
    derivs = [differentiate(grid, u.values, j) if j else u.values
              for j in range(k + 1)]
    channels = [differentiate(grid, over_r, j) if j else over_r
                for j in range(k)]
    return math.sqrt(sum(sobolev_terms(grid, derivs, channels)))


def vector_gradient_norm(u: RadialField) -> float:
    """L2 norm of grad(u(r)*rhat): sqrt(int (u'^2 + 2 (u/r)^2))."""
    grid = u.grid
    _, grad = sobolev_terms(grid, (u.values, differentiate(grid, u.values, 1)),
                            (u.values / grid.r,))
    return math.sqrt(grad)


def vector_hessian_norm(u: RadialField) -> float:
    """L2 norm of the full second gradient of the radial vector field u(r)*rhat.

    With a = u' - u/r and b = u/r, the nine-index contraction reduces to
    |grad^2 u|^2 = a'^2 + 4 (a/r)^2 + 3 b'^2 + 2 a' b'.
    """
    grid = u.grid
    r = grid.r
    b = u.values / r
    a = differentiate(grid, u.values, 1) - b
    ap, bp = differentiate(grid, np.stack((a, b)), 1)
    dens = ap**2 + 4.0 * (a / r) ** 2 + 3.0 * bp**2 + 2.0 * ap * bp
    return math.sqrt(float(np.dot(grid.weights, dens)))
