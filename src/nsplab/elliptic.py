"""The radial Laplacian on the truncated shell and its one solve path.

``laplacian(grid, shift)`` is the operator (Lap - shift) of

    phi'' + (2/r) phi' - shift * phi = rhs,   phi'(R) = 0,
    phi' + phi/r = 0 at R_max (exact for monopole decay phi ~ A/r),

with shift = 0 for the coupling potential and shift = M > 0 for the kernel
of the monotone steady-state iteration.  Boundary conditions enter through
ghost-node elimination, which keeps every row of the matrix in M-matrix form:
positive off-diagonals, negative diagonal, and (thanks to the Robin row)
strict diagonal dominance.  That sign structure is what gives the discrete
comparison principle the steady-state solver relies on, and it also makes the
operator nonsingular even at zero shift.

Every tridiagonal matrix in the package is a ``Tridiagonal``: three read-only
row-aligned diagonals, an apply (``@``) and a ``solve`` that runs LAPACK
``gttrf`` on its first call and keeps the factors on the object, so each later
solve is one ``gttrs`` call.  ``gttrf``/``gttrs`` perform the same
eliminations as the one-shot ``gtsv`` behind ``scipy.linalg.solve_banded``, so
the solutions are bit-identical to it.  ``laplacian`` builds the operator once
per grid and shift (cached on the grid, factors included), and every
Laplacian solve in the package -- the run's potential, the steady iteration
and the inequality reports -- is ``laplacian(grid, shift).solve_refined``;
callers check the result for finiteness and form a residual themselves when
they need one.  ``evolve`` builds its viscous and Crank-Nicolson operators
from the Laplacian's diagonals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

from .errors import ParameterError
from .grids import RadialGrid


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
        """A x, of a vector (n,) or of each row of a stack (k, n)."""
        y = self.diag * x
        y[..., :-1] += self.sup[:-1] * x[..., 1:]
        y[..., 1:] += self.sub[1:] * x[..., :-1]
        return y

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """LAPACK ``gttrs`` with the cached ``gttrf`` factors, of a vector
        (n,) or of each row of a stack (k, n): the k rows are the k columns
        of one ``gttrs`` call, and each gets the bits of its own solve.

        No finiteness check: a non-finite right-hand side gives a non-finite
        solution, which the caller tests for."""
        if self._factors is None:
            *factors, info = lapack.dgttrf(self.sub[1:], self.diag,
                                           self.sup[:-1])
            if info != 0:
                raise ParameterError(
                    f"singular tridiagonal operator (gttrf info {info})")
            self._factors = factors
        x, _ = lapack.dgttrs(*self._factors, rhs.T)
        return x.T

    def solve_refined(self, rhs: np.ndarray) -> np.ndarray:
        """Solve plus one unconditional iterative-refinement pass.

        Being unconditional, the refinement keeps the solution a smooth
        function of the data (a data-dependent branch would make downstream
        root finding on solver output jittery).  It does not lower the
        residual measurably, but dropping it moves the time-stepped trajectory
        at roundoff, and the remainder constant -- a centred time difference
        of the basic energy divided by D^2 -- amplifies that shift: on
        configs/acceptance.cfg it moves from 0.24311809181780525 to
        0.24311809184690988, 1.2e-9 relative, past the benchmark's 1e-10
        reference tolerance.  So the pass stays until the staggered radial
        operators drop these solves with the announced re-record of the
        reference values (ROADMAP item 2)."""
        x = self.solve(rhs)
        return x + self.solve(rhs - self @ x)


def laplacian(grid: RadialGrid, shift: float = 0.0) -> Tridiagonal:
    """(Lap - shift) with ghost Neumann (inner) / Robin (outer) rows, built
    once per grid and shift; the shift must be finite and >= 0."""
    if not math.isfinite(shift) or shift < 0.0:
        raise ParameterError(f"shift must be finite and >= 0, got {shift}")
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

