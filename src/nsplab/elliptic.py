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

Each operator is factored once: LAPACK ``gttrf`` runs once per (grid, shift)
and the factors are cached on the grid; every solve is then a ``gttrs``
call.  ``gttrf``/``gttrs`` perform the same eliminations as the one-shot
``gtsv`` behind ``scipy.linalg.solve_banded``, so the solutions are
bit-identical to it.  Every solve keeps its one unconditional
iterative-refinement pass, so time-stepped trajectories stay bit-identical
too (see ``_refined_solve``).
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


def _banded_operator(grid: RadialGrid, shift: float) -> np.ndarray:
    """Assemble (Lap - shift) with ghost Neumann (inner) / Robin (outer) rows
    in solve_banded layout: rows are (super, diag, sub)."""
    key = ("elliptic", shift)
    cached = grid._cache.get(key)
    if cached is not None:
        return cached
    r = grid.r
    n = r.size
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    if np.max(hp) >= np.min(r[1:-1]):
        raise ParameterError("grid spacing must stay below the inner radius")

    ab = np.zeros((3, n))
    # interior rows: second derivative + (2/r) first derivative, 3-point
    denom = hm + hp
    rmid = r[1:-1]
    a2m = 2.0 / (hm * denom)
    a2p = 2.0 / (hp * denom)
    a20 = -2.0 / (hm * hp)
    a1m = -hp / (hm * denom)
    a1p = hm / (hp * denom)
    a10 = (hp - hm) / (hm * hp)
    ab[2, :-2] = a2m + (2.0 / rmid) * a1m          # sub-diagonal (row i, col i-1)
    ab[1, 1:-1] = a20 + (2.0 / rmid) * a10 - shift  # diagonal
    ab[0, 2:] = a2p + (2.0 / rmid) * a1p            # super-diagonal (row i, col i+1)

    # inner row: ghost node from phi'(R) = 0, PDE collocated at r_0
    h0 = r[1] - r[0]
    ab[1, 0] = -2.0 / h0**2 - shift
    ab[0, 1] = 2.0 / h0**2

    # outer row: ghost node from phi' + phi/r = 0, PDE collocated at r_N
    hN = r[-1] - r[-2]
    rN = r[-1]
    ab[2, -2] = 2.0 / hN**2
    ab[1, -1] = -2.0 / hN**2 - 2.0 / (hN * rN) - 2.0 / rN**2 - shift

    ab.flags.writeable = False
    grid._cache[key] = ab
    return ab


def _apply_banded(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = ab[1] * x
    y[:-1] += ab[0, 1:] * x[1:]
    y[1:] += ab[2, :-1] * x[:-1]
    return y


def factor_banded(ab: np.ndarray) -> tuple:
    """LU factors (LAPACK ``gttrf``) of a tridiagonal matrix given in
    solve_banded layout (rows super, diag, sub)."""
    dl, d, du, du2, ipiv, info = lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise ParameterError(f"singular tridiagonal operator (gttrf info {info})")
    return dl, d, du, du2, ipiv


def solve_factored(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve with factors from ``factor_banded`` (LAPACK ``gttrs``).

    No finiteness check: a non-finite right-hand side gives a non-finite
    solution, which the caller tests for."""
    x, _ = lapack.dgttrs(*factors, rhs)
    return x


def _factored_operator(grid: RadialGrid, shift: float) -> tuple[np.ndarray, tuple]:
    key = ("elliptic_lu", shift)
    cached = grid._cache.get(key)
    if cached is None:
        ab = _banded_operator(grid, shift)
        cached = grid._cache[key] = (ab, factor_banded(ab))
    return cached


def apply_laplacian(f: RadialField, shift: float = 0.0) -> RadialField:
    """Apply the assembled (Lap - shift) operator, boundary closures included."""
    ab = _banded_operator(f.grid, shift)
    return RadialField(_apply_banded(ab, f.values), f.grid)


def _refined_solve(grid: RadialGrid, shift: float,
                   rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factored solve plus one unconditional iterative-refinement pass;
    returns the operator and the solution.

    Being unconditional, the refinement keeps the solution a smooth function
    of the data (a data-dependent branch would make downstream root finding
    on solver output jittery).  It does not lower the residual measurably,
    but dropping it moves the time-stepped trajectory at roundoff, and the
    remainder constant -- a centred time difference of the basic energy
    divided by D^2 -- amplifies that shift to ~1e-10 relative."""
    ab, factors = _factored_operator(grid, shift)
    x = solve_factored(factors, rhs)
    res = rhs - _apply_banded(ab, x)
    return ab, x + solve_factored(factors, res)


def _solve(grid: RadialGrid, shift: float, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Certified solve: factor once (``gttrf``, cached per grid and shift),
    solve per call (``gttrs``) with the refinement pass, then the weighted
    residual norm of the refined solution."""
    ab, x = _refined_solve(grid, shift, rhs)
    res = rhs - _apply_banded(ab, x)
    res_norm = weighted_l2_norm(RadialField(res, grid))
    if not np.all(np.isfinite(x)):
        raise ParameterError("elliptic solve produced non-finite values")
    return x, res_norm


def solve_poisson_values(grid: RadialGrid, q: np.ndarray) -> np.ndarray:
    """phi values with Lap(phi) = q on raw arrays: the same refined solve as
    solve_poisson_neumann, without the residual certificate and without a
    finiteness check (non-finite data gives non-finite phi)."""
    return _refined_solve(grid, 0.0, q)[1]


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
