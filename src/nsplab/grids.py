"""Radial shell grids, quadrature, finite differences, and discrete norms.

Everything downstream works on scalar profiles f(r) over a truncated shell
[R, R_max].  Volume integrals carry the 4*pi*r^2 measure; the quadrature is a
trapezoid rule in the volume coordinate r^3/3, which integrates constants
exactly and is second-order for smooth integrands; ``_integrals`` is its one
implementation.  Radial vector fields u(r)*rhat are stored as their scalar
radial component; the angular metric terms (the 2*(u/r)^2 family) are added
where a norm is formed (the E/D sample and the vector-field norms), never
stored.  The norms of the steady regularity report and of the inequality
ensembles take stacks of profiles, one per row, and sum each row as a single
profile would be summed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EvaluationDomainError, ParameterError

FOUR_PI = 4.0 * math.pi
# F raises (gamma-1)/gamma * (Phi + c1) to the power 1/(gamma-1), which turns
# the roundoff of Phi + c1 into a relative density error of about
# 1.1e-16/(gamma-1): gamma = 1 takes the log branch, and a gamma > 1 must keep
# at least this gap from it
GAMMA_GAP_ABOVE_ONE = 1e-6


@dataclass(frozen=True)
class FluidParams:
    """The gas: adiabatic exponent, viscosities, far-field density, and both
    directions of its gas law (h' and the enthalpy increment for a
    perturbation, F and F' for a steady potential).  A background profile
    carries the gas it was built for; its steady state and runs read it there.

    ``lambda_`` is the second viscosity; ``mu > 0`` and
    ``lambda_ + 2*mu/3 >= 0`` are required.
    """

    gamma: float
    mu: float
    lambda_: float
    c_star: float = 1.0

    def __post_init__(self):
        vals = (self.gamma, self.mu, self.lambda_, self.c_star)
        if not all(math.isfinite(v) for v in vals):
            raise ParameterError("fluid parameters must be finite")
        if self.gamma < 1.0:
            raise ParameterError(f"gamma must be >= 1, got {self.gamma}")
        if 1.0 < self.gamma < 1.0 + GAMMA_GAP_ABOVE_ONE:
            raise ParameterError(
                f"gamma must be 1 or at least 1 + {GAMMA_GAP_ABOVE_ONE:g}, "
                f"got {self.gamma!r}: the power law loses the density to "
                "roundoff closer to 1")
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

    def _c1(self) -> float:
        """c1 = gamma/(gamma-1) * c_star**(gamma-1), so F(0) = c_star."""
        g = self.gamma
        return g / (g - 1.0) * self.c_star ** (g - 1.0)

    def _scaled(self, phi):
        """(gamma-1)/gamma * (Phi + c1), which stays near c_star**(gamma-1)
        as gamma -> 1.  F and F' raise it to a power as one product: near
        gamma = 1 the split form ((gamma-1)/gamma)**(1/(gamma-1)) *
        (Phi + c1)**(1/(gamma-1)) is 0 * inf."""
        base = phi + self._c1()
        if np.any(base <= 0.0):
            raise EvaluationDomainError("Phi + c1 must stay positive for gamma > 1")
        return (self.gamma - 1.0) / self.gamma * base

    def density(self, phi):
        """F(Phi) = ((gamma-1)/gamma * (Phi + c1))**(1/(gamma-1)), the
        density whose enthalpy exceeds that of c_star by Phi; c_star *
        exp(Phi) at gamma = 1."""
        if self.gamma == 1.0:
            return self.c_star * np.exp(phi)
        return self._scaled(phi) ** (1.0 / (self.gamma - 1.0))

    def density_slope(self, phi):
        """F'(Phi) = 1 / h'(F(Phi))."""
        if self.gamma == 1.0:
            return self.c_star * np.exp(phi)
        expo = (2.0 - self.gamma) / (self.gamma - 1.0)
        return self._scaled(phi) ** expo / self.gamma


def _check_count(name: str, count, minimum: int) -> None:
    """A count (of cells, nodes, members, iterations, ...) or a seed is an
    integer, not a bool, of at least minimum: a float count would be stored
    as given but used as int(count), or fail deep inside numpy."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {count!r}")
    if count < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {count}")


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Shell grid of n_cells intervals, nodes r_0 = r_inner < ... <
    r_N = r_outer (N = n_cells), with positive quadrature weights.

    ``stretch == 0`` gives uniform spacing.  ``stretch > 0`` gives a geometric
    progression clustered near the inner radius: the cell widths grow by a
    constant ratio chosen so that the last cell is exp(stretch) times wider
    than the first.  ``weights[i]`` realizes the integral of f * 4*pi*r^2 dr;
    the rule is exact for f == 1 (weights sum to the shell volume to machine
    precision).  The nodes, the weights and the stencil flag ``uniform`` are
    derived from the four build values, which are all a grid takes.
    """

    r_inner: float
    r_outer: float
    n_cells: int
    stretch: float = 0.0
    r: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    uniform: bool = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        r_inner, r_outer, stretch = self.r_inner, self.r_outer, self.stretch
        # r_outer**3 is formed as a product: a Python float power would raise
        cube = FOUR_PI * r_outer * r_outer * r_outer
        for name, v in (("r_inner", r_inner), ("r_outer", r_outer),
                        ("stretch", stretch), ("4 pi r_outer**3", cube)):
            if not math.isfinite(v):
                raise ParameterError(f"{name} must be finite")
        if r_inner <= 0.0:
            raise ParameterError(f"r_inner must be > 0, got {r_inner}")
        if r_outer <= r_inner:
            raise ParameterError(
                f"r_outer must exceed r_inner, got [{r_inner}, {r_outer}]")
        _check_count("n_cells", self.n_cells, 8)
        if stretch < 0.0:
            raise ParameterError(f"stretch must be >= 0, got {stretch}")

        n = int(self.n_cells)
        try:
            ratio = math.exp(stretch / (n - 1))
            growth = ratio**n
        except OverflowError:
            raise ParameterError(
                f"stretch = {stretch:g} is too large: the growth of the cell "
                f"widths over {n} cells overflows double precision") from None
        if ratio == 1.0:  # stretch == 0, or too small to show in doubles
            r = np.linspace(r_inner, r_outer, n + 1)
        else:
            # first width from the geometric sum h0*(ratio^n - 1)/(ratio - 1)
            h0 = (r_outer - r_inner) * (ratio - 1.0) / (growth - 1.0)
            widths = h0 * ratio ** np.arange(n)
            r = r_inner + np.concatenate(([0.0], np.cumsum(widths)))
            r[-1] = r_outer
        if np.any(np.diff(r) <= 0.0):
            raise ParameterError(
                f"stretch = {stretch:g} on [{r_inner:g}, {r_outer:g}]: cells "
                "vanish in the roundoff of the radii, so the nodes are not "
                "strictly increasing")
        w = volume_weights(r)
        w *= FOUR_PI
        # equal spacing: the 3-point second derivative is second order
        uniform = ratio == 1.0
        r.flags.writeable = False
        w.flags.writeable = False
        for name, value in (("r", r), ("weights", w), ("uniform", uniform)):
            object.__setattr__(self, name, value)

    @property
    def n_nodes(self) -> int:
        return self.r.size

    @property
    def min_spacing(self) -> float:
        return float(np.min(np.diff(self.r)))

    def field(self, values) -> "RadialField":
        return RadialField(values, self)

    def require_same(self, other: "RadialGrid", what: str) -> None:
        """Raise ParameterError unless other has the nodes of this grid."""
        if other is not self and not np.array_equal(other.r, self.r):
            raise ParameterError(f"{what} are on different grid nodes")

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
    """The derivative rows of one order, laid out for a block of whole
    profiles read as one flat array: ``tiles[j]`` weighs column j of the
    centered ``width``-node window at each interior row, and is NaN at the
    end rows; the first k end rows of a block (``n_ends`` a profile),
    ``ends[:k]``, weigh the nodes ``end_nodes[:k]`` by ``end_w[:k]``."""

    width: int
    tiles: np.ndarray
    n_ends: int
    ends: np.ndarray
    end_nodes: np.ndarray
    end_w: np.ndarray


# a block holds at most 2^12 floats and 16 profiles (at least one), so a
# grid keeps under 0.5 MB of tiles and end rows
_BLOCK_FLOATS = 2**12


def _stencil_rows(grid: RadialGrid, order: int):
    """The derivative rows (lo, w, size) of one order: row i weighs the
    nodes lo[i], ..., lo[i] + size[i] - 1 by w[i, :size[i]], with w
    zero-padded to the widest window.

    Interior stencils are centered; end stencils are one-sided with enough
    points for second-order accuracy (a one-sided second derivative needs
    four points, as does the second derivative on a non-uniform grid).
    """
    if order not in (1, 2, 3):
        raise ParameterError(f"derivative order must be 1, 2 or 3, got {order}")
    r = grid.r
    n = r.size
    if n < order + 2:
        raise ParameterError("grid has too few nodes for this derivative order")
    size = np.full(n, order + 2)
    if order == 2 and grid.uniform:
        size[1:-1] = 3
    lo = np.clip(np.arange(n) - size // 2, 0, n - size)
    w = np.zeros((n, int(size.max())))
    for k in np.unique(size):
        rows = np.flatnonzero(size == k)
        window = r[lo[rows, None] + np.arange(k)]
        w[rows, :k] = _fornberg_weights(r[rows], window, order)
    return lo, w, size


def _stencil(grid: RadialGrid, order: int) -> _Stencil:
    """The flat layout of the derivative rows of one order on this grid,
    built once."""
    key = ("stencil", order)
    cached = grid._cache.get(key)
    if cached is not None:
        return cached
    lo, w, size = _stencil_rows(grid, order)
    n = lo.size
    inner = lo == np.arange(n) - size // 2
    width = int(size[n // 2])  # the middle row is centered
    rows = min(16, max(1, _BLOCK_FLOATS // n))
    tiles = np.full((width, rows, n), np.nan)
    tiles[:, :, inner] = w[inner, :width].T[:, None, :]
    first = n * np.arange(rows)[:, None]  # of each profile of a block
    ends = np.flatnonzero(~inner)
    nodes = (first + lo[ends]).reshape(-1, 1) + np.arange(w.shape[1])
    st = _Stencil(width, tiles.reshape(width, rows * n), ends.size,
                  (first + ends).ravel(), nodes, np.tile(w[ends], (rows, 1)))
    grid._cache[key] = st
    return st


def differentiate(grid: RadialGrid, values: np.ndarray,
                  order: int) -> np.ndarray:
    """Finite-difference derivative of formal order 2 of the profile
    ``values`` (shape (n,)) or of each row of a stack (shape (k, n)):
    centered in the interior, one-sided at both ends.  Each row sums its
    weighted nodes from left to right.

    The stack is read flat, one block of whole profiles at a time: each
    window column is one contiguous multiply-add, quietly NaN at the end
    rows (a NaN weight raises no floating-point warning), which the end
    rows, gathered through precomputed flat indices, then replace."""
    if np.shape(values)[-1] != grid.n_nodes:
        raise ParameterError("values do not match the grid nodes")
    st = _stencil(grid, order)
    x = np.ascontiguousarray(values, dtype=float)
    out = np.empty_like(x)
    flat, res = x.reshape(-1), out.reshape(-1)
    block, s = st.tiles.shape[1], st.width // 2
    for a in range(0, x.size, block):
        xb, ob = flat[a:a + block], res[a:a + block]
        span = xb.size - st.width + 1  # the whole windows
        acc = ob[s:s + span]
        np.multiply(st.tiles[0, s:s + span], xb[:span], out=acc)
        for j in range(1, st.width):
            acc += st.tiles[j, s:s + span] * xb[j:j + span]
        k = xb.size // grid.n_nodes * st.n_ends
        terms = xb.take(st.end_nodes[:k])
        terms *= st.end_w[:k]
        acc = terms[:, 0] + terms[:, 1]
        for j in range(2, terms.shape[1]):
            acc += terms[:, j]
        ob[st.ends[:k]] = acc
    return out


def _integrals(grid: RadialGrid, dens: np.ndarray):
    """The quadrature sum_i w_i dens[i] of a profile (n,), as a float, or of
    each row of a stack (k, n), one np.dot per row, so that each row has the
    bits of a single profile's sum (``dens @ w`` sums in another order).
    Every radial integral in the package is taken here."""
    w = grid.weights
    if dens.ndim == 1:
        return float(np.dot(w, dens))
    return np.array([np.dot(w, row) for row in dens])


def weighted_l2_norm(f: RadialField) -> float:
    """Discrete L2 norm sqrt(sum w_i f_i^2)."""
    return math.sqrt(_integrals(f.grid, f.values**2))


def _hessian_norms(grid: RadialGrid, phi: np.ndarray) -> np.ndarray:
    """Discrete L2 norm of the second gradient of a radial scalar,
    sqrt(||phi''||^2 + 2 ||phi'/r||^2), of each row of a stack (k, n)."""
    d1, d2 = (differentiate(grid, phi, k) for k in (1, 2))
    dens = d2**2 + 2.0 * (d1 / grid.r) ** 2
    return np.sqrt(_integrals(grid, dens))


def _vector_gradient_norms(grid: RadialGrid, u: np.ndarray,
                           du: np.ndarray) -> np.ndarray:
    """L2 norm of grad(u(r)*rhat), sqrt(int (u'^2 + 2 (u/r)^2)), of each row
    of a stack u (k, n) with its first derivatives du."""
    return np.sqrt(_integrals(grid, du**2)
                   + 2.0 * _integrals(grid, (u / grid.r) ** 2))


def _vector_hessian_norms(grid: RadialGrid, u: np.ndarray,
                          du: np.ndarray) -> np.ndarray:
    """L2 norm of the full second gradient of u(r)*rhat, of each row of a
    stack u (k, n) with its first derivatives du.

    With a = u' - u/r and b = u/r, the nine-index contraction reduces to
    |grad^2 u|^2 = a'^2 + 4 (a/r)^2 + 3 b'^2 + 2 a' b'.
    """
    r = grid.r
    b = u / r
    a = du - b
    ap, bp = differentiate(grid, np.stack((a, b)), 1)
    dens = ap**2 + 4.0 * (a / r) ** 2 + 3.0 * bp**2 + 2.0 * ap * bp
    return np.sqrt(_integrals(grid, dens))
