"""Radial linear elliptic solvers on the truncated shell.

Two closely related problems are solved here, both as tridiagonal systems:

* the coupling potential:  phi'' + (2/r) phi' = q,  phi'(R) = 0,
  phi' + phi/r = 0 at R_max (exact for monopole decay phi ~ A/r);
* the shifted kernel used by the monotone steady-state iteration:
  (Lap - M) w = rhs with the same boundary closures.

Boundary conditions enter through ghost-node elimination, which keeps every
row of the matrix in M-matrix form: positive off-diagonals, negative diagonal,
and (thanks to the Robin row) strict diagonal dominance.  That sign structure
is what gives the discrete comparison principle the steady-state solver relies
on, and it also makes the operator nonsingular even at zero shift.

Every tridiagonal matrix in the package is a ``Tridiagonal``: three read-only
row-aligned diagonals, an apply (``@``) and a ``solve`` that runs LAPACK
``gttrf`` on its first call and keeps the factors on the object, so each later
solve is one ``gttrs`` call.  ``gttrf``/``gttrs`` perform the same
eliminations as the one-shot ``gtsv`` behind ``scipy.linalg.solve_banded``, so
the solutions are bit-identical to it.  ``laplacian(grid, shift)`` builds the
Neumann/Robin operator once per grid and shift (cached on the grid, factors
included); ``evolve`` builds its viscous and Crank-Nicolson operators from its
diagonals.  Every Laplacian solve keeps one unconditional iterative-refinement
pass, so time-stepped trajectories stay bit-identical too (see
``Tridiagonal.solve_refined``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ParameterError
from .grids import RadialField, RadialGrid, differentiate, weighted_l2_norm


@dataclass(frozen=True)
class PoissonSolution:
    """Solution of the Neumann/Robin problem with its residual certificate."""

    phi: RadialField
    residual_norm: float


class Tridiagonal:
    """Tridiagonal matrix held as three row-aligned diagonals: row i of
    ``A @ x`` is sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] (sub[0] and
    sup[-1] are never read).  The diagonals are read-only; the LU factors are
    computed on the first solve and kept."""

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        for d in (sub, diag, sup):
            d.flags.writeable = False
        self.sub, self.diag, self.sup = sub, diag, sup
        self._factors = None

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.sup[:-1] * x[1:]
        y[1:] += self.sub[1:] * x[:-1]
        return y

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """LAPACK ``gttrs`` with the cached ``gttrf`` factors.

        No finiteness check: a non-finite right-hand side gives a non-finite
        solution, which the caller tests for."""
        if self._factors is None:
            *factors, info = lapack.dgttrf(self.sub[1:], self.diag,
                                           self.sup[:-1])
            if info != 0:
                raise ParameterError(
                    f"singular tridiagonal operator (gttrf info {info})")
            self._factors = factors
        x, _ = lapack.dgttrs(*self._factors, rhs)
        return x

    def solve_refined(self, rhs: np.ndarray) -> np.ndarray:
        """Solve plus one unconditional iterative-refinement pass.

        Being unconditional, the refinement keeps the solution a smooth
        function of the data (a data-dependent branch would make downstream
        root finding on solver output jittery).  It does not lower the
        residual measurably, but dropping it moves the time-stepped trajectory
        at roundoff, and the remainder constant -- a centred time difference
        of the basic energy divided by D^2 -- amplifies that shift to ~1e-10
        relative."""
        x = self.solve(rhs)
        return x + self.solve(rhs - self @ x)


def laplacian(grid: RadialGrid, shift: float = 0.0) -> Tridiagonal:
    """(Lap - shift) with ghost Neumann (inner) / Robin (outer) rows, built
    once per grid and shift."""
    key = ("laplacian", shift)
    cached = grid._cache.get(key)
    if cached is not None:
        return cached
    r = grid.r
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    if np.max(hp) >= np.min(r[1:-1]):
        raise ParameterError("grid spacing must stay below the inner radius")

    sub, diag, sup = np.zeros((3, r.size))
    # interior rows: second derivative + (2/r) first derivative, 3-point
    denom = hm + hp
    rmid = r[1:-1]
    a2m = 2.0 / (hm * denom)
    a2p = 2.0 / (hp * denom)
    a20 = -2.0 / (hm * hp)
    a1m = -hp / (hm * denom)
    a1p = hm / (hp * denom)
    a10 = (hp - hm) / (hm * hp)
    sub[1:-1] = a2m + (2.0 / rmid) * a1m
    diag[1:-1] = a20 + (2.0 / rmid) * a10 - shift
    sup[1:-1] = a2p + (2.0 / rmid) * a1p

    # inner row: ghost node from phi'(R) = 0, PDE collocated at r_0
    h0 = r[1] - r[0]
    diag[0] = -2.0 / h0**2 - shift
    sup[0] = 2.0 / h0**2

    # outer row: ghost node from phi' + phi/r = 0, PDE collocated at r_N
    hN = r[-1] - r[-2]
    rN = r[-1]
    sub[-1] = 2.0 / hN**2
    diag[-1] = -2.0 / hN**2 - 2.0 / (hN * rN) - 2.0 / rN**2 - shift

    op = grid._cache[key] = Tridiagonal(sub, diag, sup)
    return op


def _solve(grid: RadialGrid, shift: float, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Certified solve: the refined solve, then the weighted residual norm of
    the refined solution."""
    op = laplacian(grid, shift)
    x = op.solve_refined(rhs)
    res_norm = weighted_l2_norm(RadialField(rhs - op @ x, grid))
    if not np.all(np.isfinite(x)):
        raise ParameterError("elliptic solve produced non-finite values")
    return x, res_norm


def solve_poisson_values(grid: RadialGrid, q: np.ndarray) -> np.ndarray:
    """phi values with Lap(phi) = q on raw arrays: the same refined solve as
    solve_poisson_neumann, without the residual certificate and without a
    finiteness check (non-finite data gives non-finite phi)."""
    return laplacian(grid).solve_refined(q)


def solve_poisson_neumann(q: RadialField) -> PoissonSolution:
    """Solve phi'' + (2/r) phi' = q with phi'(R) = 0 and the decay-matching
    Robin closure at R_max; returns phi with a residual certificate.

    The Robin row makes the operator nonsingular for every right-hand side;
    the zero-mean compatibility of the unbounded problem is a property of the
    data, not of this solver.
    """
    phi_vals, res_norm = _solve(q.grid, 0.0, q.values)
    return PoissonSolution(phi=RadialField(phi_vals, q.grid),
                           residual_norm=res_norm)


def solve_shifted(shift: float, rhs: RadialField) -> RadialField:
    """Solve (Lap - shift) w = rhs with the same boundary closures."""
    if not math.isfinite(shift) or shift < 0.0:
        raise ParameterError(f"shift must be finite and >= 0, got {shift}")
    w_vals, _ = _solve(rhs.grid, shift, rhs.values)
    return RadialField(w_vals, rhs.grid)


def hessian_norm_radial(phi: RadialField) -> float:
    """Discrete L2 norm of the second gradient of a radial scalar:
    sqrt(||phi''||^2 + 2 ||phi'/r||^2)."""
    grid = phi.grid
    d1, d2 = (differentiate(grid, phi.values, k) for k in (1, 2))
    dens = d2**2 + 2.0 * (d1 / grid.r) ** 2
    return math.sqrt(float(np.dot(grid.weights, dens)))
