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

The tangent and scalar members are seeded mode sums (_batch): short
sums of separable terms R(r) T(theta) P(phi) with low orders and a
sin^2(theta) taper, so the pole-free midpoint grid sees only smooth data.
The stencils act along one axis and the quadrature is a tensor product, so
every reported quantity is a Gram integral of 1-D factors and no report
builds a 3-D field: ||grad v||, ||div v||, ||curl v|| and ||grad f|| over
the shell, |v|^2 and the pairings int_{r=R} v . grad f over the inner
sphere (radial factors at r = R), and ||f||_L6^6 as the Gram of f^3 (one
term per multiset of three modes).  An ensemble stacks its members' factors
on a leading batch axis, and the radial ensembles stack their members'
profiles as rows, solved and differentiated in passes; either way a batch
of one goes through the same code, and each member keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement, permutations
from typing import NamedTuple

import numpy as np

from .elliptic import laplacian
from .errors import DegenerateFieldError, ParameterError
from .grids import (RadialGrid, _check_count, _hessian_norms, _integrals,
                    _vector_gradient_norms, _vector_hessian_norms, cutoff,
                    differentiate, volume_weights)


@dataclass(frozen=True, eq=False)
class SphericalGrid:
    """Tensor grid on the shell [r_inner, r_outer]: the nodes of the uniform
    radial grid of nr cells, ntheta midpoint theta nodes avoiding the poles,
    nphi periodic azimuth nodes, and separable quadrature weights whose
    product integrates the shell volume exactly.  The nodes and weights are
    derived from the five build values, which are all a grid takes;
    nr >= 16, ntheta >= 8 and nphi >= 8 are required."""

    r_inner: float
    r_outer: float
    nr: int
    ntheta: int
    nphi: int
    r: np.ndarray = field(init=False, repr=False)
    theta: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    w_r: np.ndarray = field(init=False, repr=False)
    w_theta: np.ndarray = field(init=False, repr=False)
    w_phi: float = field(init=False, repr=False)

    def __post_init__(self):
        for name, minimum in (("nr", 16), ("ntheta", 8), ("nphi", 8)):
            _check_count(name, getattr(self, name), minimum)
        r = RadialGrid(self.r_inner, self.r_outer, self.nr).r
        dtheta = math.pi / self.ntheta
        theta = (np.arange(self.ntheta) + 0.5) * dtheta
        # w_theta: the integral of sin over each theta cell, exactly
        for name, value in (
                ("r", r), ("theta", theta),
                ("phi", np.arange(self.nphi) * (2.0 * math.pi / self.nphi)),
                ("w_r", volume_weights(r)),
                ("w_theta", 2.0 * math.sin(0.5 * dtheta) * np.sin(theta)),
                ("w_phi", 2.0 * math.pi / self.nphi)):
            object.__setattr__(self, name, value)

    @property
    def steps(self) -> tuple[float, float, float]:
        """Node spacings in r, theta and phi: the steps of the difference
        stencils on the grid and on the 1-D factors alike."""
        return (self.r[1] - self.r[0], self.theta[1] - self.theta[0],
                2.0 * math.pi / self.phi.size)


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


def _three_point(f: np.ndarray, h: float) -> np.ndarray:
    """Centered difference with step h along the last axis, the node axis
    of a factor stack, one-sided second order at both ends."""
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
    out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2]
                    + f[..., -3]) / (2.0 * h)
    return out


def _periodic(f: np.ndarray, h: float) -> np.ndarray:
    """Periodic centered difference with step h along the last axis."""
    out = np.empty_like(f)
    np.subtract(f[..., 2:], f[..., :-2], out=out[..., 1:-1])
    np.subtract(f[..., 1], f[..., -1], out=out[..., 0])
    np.subtract(f[..., 0], f[..., -2], out=out[..., -1])
    out /= 2.0 * h
    return out


@dataclass(frozen=True, eq=False)
class _ModeSum:
    """n_comp sums of the same seeded separable terms, kept as 1-D factors:
    component c is the sum over modes m of amps[m, c] * radial[m](r) *
    polar[m](theta) * azimuthal[m](phi).  A batch of members stacks the
    factors on a leading axis."""

    grid: SphericalGrid
    amps: np.ndarray        # ([n,] modes, n_comp)
    radial: np.ndarray      # ([n,] modes, nr): cut-off envelopes
    polar: np.ndarray       # ([n,] modes, ntheta): tapered by sin^2(theta)
    azimuthal: np.ndarray   # ([n,] modes, nphi)

    def radial_stack(self, c: int) -> np.ndarray:
        """The radial factors of component c, amplitudes included."""
        return self.amps[..., c, None] * self.radial


_L6_PASS_FLOATS = 2**22  # in the (members, terms, terms) products of a pass


def check_modes(modes: int) -> None:
    """A mode sum has at least one term, and the Gram of one member's f^3,
    C(modes + 2, 3)^2 products (see _cube), fits in one L6 pass of
    _L6_PASS_FLOATS: 1 <= modes <= 22."""
    _check_count("modes", modes, 1)
    terms = math.comb(modes + 2, 3)
    if terms * terms > _L6_PASS_FLOATS:
        raise ParameterError(
            f"modes = {modes} gives {terms} cube terms per member, whose Gram "
            f"of {terms * terms} products exceeds the L6 pass of "
            f"{_L6_PASS_FLOATS}")


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """rng.uniform(lo, hi): the same value from the same stream, without
    its per-call argument handling."""
    return lo + (hi - lo) * rng.random()


def _sign(rng: np.random.Generator) -> float:
    """rng.choice([-1.0, 1.0]): the same value from the same stream."""
    return (-1.0, 1.0)[rng.integers(0, 2)]


def _mode_draws(rng: np.random.Generator, modes: int, n_comp: int,
                n_phases: int) -> tuple[np.ndarray, ...]:
    """One member's seeded draws, mode by mode: the orders l_phi, l_theta
    and k_r, then n_phases phases and n_comp amplitudes as draws u on
    [0, 1).  Returns the orders, the u of the first three phases (the ones
    used) and the u of the amplitudes, each (modes, .)."""
    orders = np.empty((modes, 3))
    uniform = np.empty((modes, n_phases + n_comp))
    for m in range(modes):
        orders[m] = rng.integers(0, 5), rng.integers(1, 4), rng.integers(1, 3)
        rng.random(out=uniform[m])
    return orders, uniform[:, :3], uniform[:, n_phases:]


def _tangent_modes(seed: int, modes: int) -> tuple[np.ndarray, ...]:
    # draws 4 phases, uses 3: keeps the seeded streams (perfbench reference)
    return _mode_draws(np.random.default_rng([seed, 3]), modes, 3, 4)


def _scalar_modes(seed: int, modes: int) -> tuple[np.ndarray, ...]:
    return _mode_draws(np.random.default_rng([seed, 7]), modes, 1, 3)


def _batch(build, seed: int, n: int, grid: SphericalGrid,
           modes: int) -> _ModeSum:
    """The mode sums of the draws build(seed + i, modes) for i < n, each
    member from its own seeded stream, as factors stacked on a leading batch
    axis: a trig pattern in (theta, phi) with a sin^2(theta) pole taper
    times a cut-off radial envelope in x = (r - R)/(R_max - R).  Each factor
    family is one cos over all members and modes, and the phases and
    amplitudes scale their draws u as rng.uniform does, lo + (hi - lo) u."""
    _check_count("seed", seed, 0)
    _check_count("ensemble size", n, 1)
    check_modes(modes)
    orders, phases, amps = (np.stack(d) for d in
                            zip(*(build(seed + i, modes) for i in range(n))))
    l_phi, l_theta, k_r = np.moveaxis(orders, -1, 0)[..., None]
    phase = np.moveaxis(0.0 + 2.0 * math.pi * phases, -1, 0)[..., None]
    length = grid.r_outer - grid.r_inner
    x = (grid.r - grid.r_inner) / length
    envelope = 0.5 + 0.5 * np.cos(k_r * math.pi * x + phase[2])
    taper = np.sin(grid.theta) ** 2
    return _ModeSum(grid=grid, amps=-1.0 + 2.0 * amps,
                    radial=cutoff(grid.r, grid.r_inner, length) * envelope,
                    polar=np.cos(l_theta * grid.theta + phase[1]) * taper,
                    azimuthal=np.cos(l_phi * grid.phi + phase[0]))


def _radial_lift(grid: SphericalGrid) -> np.ndarray:
    """1 - exp(-((r-R)/w)^2): the factor that makes v_r vanish at r = R."""
    w = 0.15 * (grid.r_outer - grid.r_inner)
    return 1.0 - np.exp(-(((grid.r - grid.r_inner) / w) ** 2))


# The factor path.  A piece is a separable sum, sum_t R_t(r) T_t(theta)
# P_t(phi), held as its three (..., terms, n) factor stacks; the leading
# axes, if any, index the members of a batch.  The stencils act along one
# axis, so they act on one factor of each term, and the quadrature is a
# tensor product, so the integral of the product of two sums of pieces is
# a sum over term pairs of products of 1-D weighted inner products.  A batch
# of one and a batch of n go through the same operations, member by
# member.


class _Weights(NamedTuple):
    """Separable quadrature weights, all that _gram reads of a grid."""

    w_r: np.ndarray
    w_theta: np.ndarray
    w_phi: float


def _gram(grid: SphericalGrid | _Weights, left: list,
          right: list | None = None) -> np.ndarray:
    """Integral over the grid of the product of the sum of the pieces in
    left and the sum of those in right (by default left again: the
    square), one per member; the batch axes of left and right broadcast."""
    def stack(pieces):
        return [np.concatenate(f, axis=-2) for f in zip(*pieces)]

    rad, pol, azi = stack(left)
    rad2, pol2, azi2 = (rad, pol, azi) if right is None else stack(right)
    g = (((rad * grid.w_r) @ rad2.mT) * ((pol * grid.w_theta) @ pol2.mT)
         * (azi @ azi2.mT))
    return g.reshape(g.shape[:-2] + (-1,)).sum(axis=-1) * grid.w_phi


def _inner_sphere(grid: SphericalGrid) -> _Weights:
    """The inner sphere r = R as one radial node of weight R^2 beside the
    grid's angular weights: _gram's weights for pieces taken at r = R."""
    return _Weights(np.array([grid.r_inner**2]), grid.w_theta, grid.w_phi)


def _at_inner(piece) -> tuple:
    """A piece with its radial factors taken at r = R."""
    rad, pol, azi = piece
    return rad[..., :1], pol, azi


class _Stencils:
    """The geometry of a grid as 1-D arrays (r, sin theta, cot theta) and
    the grid stencils applied to the angular factors of a batch of mode
    sums."""

    def __init__(self, ms: _ModeSum):
        grid = ms.grid
        self.r, self.sin = grid.r, np.sin(grid.theta)
        self.cot = np.cos(grid.theta) / self.sin
        self.h_r, self.h_theta, h_phi = grid.steps
        self.pol, self.azi = ms.polar, ms.azimuthal
        self.d_pol = _three_point(self.pol, self.h_theta)
        self.pol_sin = self.pol / self.sin
        self.d_azi = _periodic(self.azi, h_phi)

    def d_r(self, rad: np.ndarray) -> np.ndarray:
        return _three_point(rad, self.h_r)


def _tangent_radial(ms: _ModeSum, c: int) -> np.ndarray:
    """The radial factors of component c of the seeded tangent field: v_r
    carries the extra factor 1 - exp(-((r-R)/w)^2), so v_r(R) = 0
    exactly."""
    rad = ms.radial_stack(c)
    if c == 0:
        rad *= _radial_lift(ms.grid)
    return rad


def _tangent_quadratics(ms: _ModeSum):
    """||grad v||^2, ||div v||^2 and ||curl v||^2 per member: the nine
    covariant gradient components, the divergence and the curl of the grid
    stencils, piece by piece."""
    grid = ms.grid
    s = _Stencils(ms)
    r, sin, pol, azi = s.r, s.sin, s.pol, s.azi
    d_pol, pol_sin, d_azi = s.d_pol, s.pol_sin, s.d_azi
    pol_cot = pol * s.cot
    vr, vt, vp = (_tangent_radial(ms, c) for c in range(3))
    a, b, c = vr / r, vt / r, vp / r
    grad_sq = sum(_gram(grid, comp) for comp in (
        [(s.d_r(vr), pol, azi)],
        [(a, d_pol, azi), (-b, pol, azi)],
        [(a, pol_sin, d_azi), (-c, pol, azi)],
        [(s.d_r(vt), pol, azi)],
        [(b, d_pol, azi), (a, pol, azi)],
        [(b, pol_sin, d_azi), (-c, pol_cot, azi)],
        [(s.d_r(vp), pol, azi)],
        [(c, d_pol, azi)],
        [(c, pol_sin, d_azi), (a, pol, azi), (b, pol_cot, azi)]))
    d_sin = _three_point(sin * pol, s.h_theta) / sin
    div_sq = _gram(grid, [(s.d_r(r**2 * vr) / r**2, pol, azi),
                          (b, d_sin, azi), (c, pol_sin, d_azi)])
    curl_sq = (_gram(grid, [(c, d_sin, azi), (-b, pol_sin, d_azi)])
               + _gram(grid, [(a, pol_sin, d_azi),
                              (-s.d_r(r * vp) / r, pol, azi)])
               + _gram(grid, [(s.d_r(r * vt) / r, pol, azi),
                              (-a, d_pol, azi)]))
    return grad_sq, div_sq, curl_sq


@dataclass(frozen=True, eq=False)
class TangentEnsemble:
    """What the div-curl, trace-scaling and boundary-pairing reports need of
    the seeded tangent fields seed, seed + 1, ..., seed + n - 1: per member
    ||grad v||^2, ||div v||^2 and ||curl v||^2, shape (n,), and the three
    components on the inner sphere, as pieces whose radial factors are
    taken at r = R (shape (n, modes, 1))."""

    grid: SphericalGrid
    seed: int
    modes: int
    grad_sq: np.ndarray
    div_sq: np.ndarray
    curl_sq: np.ndarray
    inner: tuple


def tangent_ensemble(grid: SphericalGrid, n_fields: int, seed: int = 0,
                     modes: int = 3) -> TangentEnsemble:
    """One batched pass over the factors of every member."""
    ms = _batch(_tangent_modes, seed, n_fields, grid, modes)
    grad_sq, div_sq, curl_sq = _tangent_quadratics(ms)
    inner = tuple(_at_inner((_tangent_radial(ms, c), ms.polar, ms.azimuthal))
                  for c in range(3))
    return TangentEnsemble(grid=grid, seed=seed, modes=modes, grad_sq=grad_sq,
                           div_sq=div_sq, curl_sq=curl_sq, inner=inner)


def _scalar_gradient(ms: _ModeSum) -> list:
    """The three components of the gradient of each member of a batch of
    scalar mode sums, as pieces."""
    s = _Stencils(ms)
    f = ms.radial_stack(0)
    return [(s.d_r(f), s.pol, s.azi), (f / s.r, s.d_pol, s.azi),
            (f / s.r, s.pol_sin, s.d_azi)]


def _vector_sq(grid: SphericalGrid, comps) -> np.ndarray:
    """||v||^2 per member of a vector field whose components are pieces."""
    return sum(_gram(grid, [comp]) for comp in comps)


def _ensemble_report(inequality: str, ratios) -> IneqReport:
    """Max and mean of an ensemble's ratios; passed when all are finite."""
    return IneqReport(inequality=inequality, n_samples=len(ratios),
                      max_ratio=float(np.max(ratios)),
                      mean_ratio=float(np.mean(ratios)),
                      passed=bool(np.all(np.isfinite(ratios))))


def _guarded_ratios(nums: np.ndarray, denoms: np.ndarray,
                    degenerate: str) -> np.ndarray:
    """nums / denoms per member; DegenerateFieldError(degenerate) when a
    denominator vanishes against its numerator."""
    if np.any(denoms < 1e-14 * np.fmax(1.0, nums)):
        raise DegenerateFieldError(degenerate)
    return nums / denoms


def div_curl_report(ens: TangentEnsemble) -> IneqReport:
    ratios = _guarded_ratios(
        np.sqrt(ens.grad_sq), np.sqrt(ens.div_sq) + np.sqrt(ens.curl_sq),
        "div and curl both vanish; a decaying tangent field with that "
        "property must be zero")
    return _ensemble_report("div_curl", ratios)


# the trace-scaling shells start at R0, 2 R0 and 4 R0, R0 the grid's inner
# radius, and pass when their ratios spread by less than 30 %
TRACE_FACTORS = (1.0, 2.0, 4.0)
TRACE_SPREAD_TOL = 0.30


def check_outer_factor(outer_factor: float, grid: SphericalGrid) -> None:
    """The trace-scaling shells of grid, R = TRACE_FACTORS * R0 to
    outer_factor * R in grid's nr cells, are valid radial shells whose cells
    are narrower than R (the spacing rule elliptic.laplacian applies to
    [domain]): outer_factor < nr + 1."""
    nr = grid.nr
    r_inner = TRACE_FACTORS[-1] * grid.r_inner  # of the largest shell
    if not (math.isfinite(outer_factor) and outer_factor > 1.0):
        raise ParameterError(f"trace_outer_factor must be finite and > 1, "
                             f"got {outer_factor}")
    if outer_factor >= nr + 1:
        raise ParameterError(f"trace_outer_factor = {outer_factor:g} must stay "
                             f"below nr + 1 = {nr + 1}: wider shells of {nr} "
                             "cells have a spacing that reaches the inner "
                             "radius")
    try:
        replace(grid, r_inner=r_inner, r_outer=outer_factor * r_inner)
    except ParameterError as exc:
        raise ParameterError(f"trace_outer_factor = {outer_factor:g} gives no "
                             f"valid shell at R = {r_inner:g}: {exc}") from exc


def verify_trace_scaling(grid: SphericalGrid, outer_factor: float = 4.0,
                         seed: int = 0, modes: int = 3) -> IneqReport:
    """Boundary-trace ratio |v|^2_{r=R} / (R ||grad v||^2) for one field shape
    on the shells of check_outer_factor at grid's resolution; the ratio
    should be R-independent."""
    check_outer_factor(outer_factor, grid)
    r_values = [k * grid.r_inner for k in TRACE_FACTORS]
    ratios = []
    for r_in in r_values:
        shell = replace(grid, r_inner=r_in, r_outer=outer_factor * r_in)
        ens = tangent_ensemble(shell, 1, seed, modes)
        ratios.append(_vector_sq(_inner_sphere(shell), ens.inner)[0]
                      / (r_in * ens.grad_sq[0]))
    spread = (max(ratios) - min(ratios)) / max(ratios)
    return IneqReport(inequality="trace_scaling", n_samples=len(ratios),
                      max_ratio=float(max(ratios)),
                      mean_ratio=float(np.mean(ratios)),
                      passed=bool(spread < TRACE_SPREAD_TOL),
                      details={"ratios": [float(x) for x in ratios],
                               "relative_spread": float(spread),
                               "r_values": r_values})


def _pairings(grid: SphericalGrid, v_inner, g_inner) -> np.ndarray:
    """int_{r=R} v . g for every member v of one batch against every member
    g of another, shape (n_v, n_g), from their components on the inner
    sphere as pieces (see TangentEnsemble.inner)."""
    sphere = _inner_sphere(grid)
    return sum(_gram(sphere, [tuple(f[:, None] for f in v)],
                     [tuple(f[None] for f in g)])
               for v, g in zip(v_inner, g_inner))


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
    The scalar gradients are one batched pass over their factors, and the
    pairings one Gram over the sphere of the tangent pieces at r = R
    against the scalar-gradient pieces at r = R."""
    check_allowance(allowance)
    grid = ens.grid
    comps = _scalar_gradient(_batch(_scalar_modes, ens.seed + 1000,
                                    n_scalars, grid, ens.modes))
    g_norms = np.sqrt(_vector_sq(grid, comps))
    lhs = np.abs(_pairings(grid, ens.inner, [_at_inner(c) for c in comps]))
    rhs = np.sqrt(ens.grad_sq)[:, None] * g_norms[None, :]
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


def _cube(ms: _ModeSum) -> tuple:
    """f^3 of each member of a batch of scalar mode sums, as one piece: a
    term per multiset {a <= b <= c} of modes, with the factors A_a A_b A_c,
    B_a B_b B_c and C_a C_b C_c and the number of orderings of the multiset
    (1, 3 or 6) as its weight.  Its Gram costs C(modes + 2, 3)^2 (nr +
    ntheta + nphi) per member."""
    terms = list(combinations_with_replacement(range(ms.amps.shape[-2]), 3))
    a, b, c = np.array(terms).T
    weights = np.array([len(set(permutations(t))) for t in terms], float)

    def cube(f):
        return f[..., a, :] * f[..., b, :] * f[..., c, :]

    return (weights[:, None] * cube(ms.radial_stack(0)),
            cube(ms.polar), cube(ms.azimuthal))


def sobolev_l6_report(grid: SphericalGrid, n_samples: int = 100, seed: int = 0,
                      modes: int = 3) -> IneqReport:
    """||grad f|| and ||f||_L6 = (int (f^3)^2)^(1/6) of every member, from
    the factors; the Gram of f^3 in passes of _L6_PASS_FLOATS products."""
    ms = _batch(_scalar_modes, seed, n_samples, grid, modes)
    denoms = np.sqrt(_vector_sq(grid, _scalar_gradient(ms)))
    cube = _cube(ms)
    step = _L6_PASS_FLOATS // cube[0].shape[-2] ** 2  # >= 1 by check_modes
    sixth = np.concatenate([_gram(grid, [tuple(f[i:i + step] for f in cube)])
                            for i in range(0, n_samples, step)])
    ratios = _guarded_ratios(sixth ** (1.0 / 6.0), denoms,
                             "gradient vanishes; ratio undefined")
    return _ensemble_report("sobolev_l6", ratios)


def _lame_ratios(grid: RadialGrid, psi: np.ndarray,
                 longitudinal_viscosity: float):
    """C_emp = ||grad^2 u|| / (||g|| + ||grad u||) of the curl-free
    elastostatic estimate, 2 mu + lambda being the longitudinal viscosity,
    for each row of a stack of potentials psi (k, n); 0 where the
    denominator vanishes."""
    u = differentiate(grid, psi, 1)
    du = differentiate(grid, u, 1)
    lap = differentiate(grid, psi, 2) + 2.0 * u / grid.r
    g = -longitudinal_viscosity * differentiate(grid, lap, 1)
    hess_u = _vector_hessian_norms(grid, u, du)
    denom = (np.sqrt(_integrals(grid, g**2))
             + _vector_gradient_norms(grid, u, du))
    trivial = denom < 1e-14 * np.fmax(1.0, hess_u)
    return np.divide(hess_u, denom, out=np.zeros_like(denom), where=~trivial)


_RADIAL_PASS_FLOATS = 2**14  # in the (members, nodes) stacks of a pass


def _radial_sources(seeds: range, grid: RadialGrid) -> np.ndarray:
    """Smooth seeded sources, one row per seed: three Gaussian bumps inside
    the shell.  The parameters are drawn once from the seed, so the same
    seed on a refined grid samples the same underlying function."""
    draws = np.empty((len(seeds), 3, 3))  # seed, bump, (center, width, amp)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng([seed, 13])
        for k in range(3):
            draws[i, k] = (_uniform(rng, 0.1, 0.7), _uniform(rng, 0.05, 0.2),
                           _uniform(rng, 0.5, 1.0) * _sign(rng))
    r, length = grid.r, grid.r_outer - grid.r_inner
    vals = np.zeros((len(seeds), r.size))
    for x, w, amp in draws.transpose(1, 2, 0)[..., None]:
        center = grid.r_inner + x * length
        vals += amp * np.exp(-(((r - center) / (w * length)) ** 2))
    return vals


def _radial_report(inequality: str, grid: RadialGrid, n_samples: int,
                   seed: int, ratios) -> IneqReport:
    """The ensemble report of ratios(q, phi) over the sources q of seeds
    seed, ..., seed + n_samples - 1 and their Neumann-Poisson potentials
    phi, in passes of about _RADIAL_PASS_FLOATS: one stack of sources, one
    multi-column solve and one stack of ratios per pass."""
    _check_count("seed", seed, 0)
    _check_count("ensemble size", n_samples, 1)
    lap, step = laplacian(grid), max(1, _RADIAL_PASS_FLOATS // grid.n_nodes)
    stop, out = seed + n_samples, []
    for i in range(seed, stop, step):
        q = _radial_sources(range(i, min(i + step, stop)), grid)
        out.append(ratios(q, lap.solve_refined(q)))
    return _ensemble_report(inequality, np.concatenate(out))


def lame_report(grid: RadialGrid, n_samples: int = 20, seed: int = 0,
                longitudinal_viscosity: float = 3.0) -> IneqReport:
    """Ensemble version of the curl-free elastostatic check: potentials come
    from Neumann-Poisson solves of seeded sources."""
    return _radial_report(
        "lame_gradient_case", grid, n_samples, seed,
        lambda q, psi: _lame_ratios(grid, psi, longitudinal_viscosity))


def poisson_regularity_report(grid: RadialGrid, n_samples: int = 100,
                              seed: int = 0) -> IneqReport:
    """Measured constant in ||grad^2 phi|| <= C ||q|| over seeded sources."""
    return _radial_report(
        "poisson_regularity", grid, n_samples, seed,
        lambda q, phi: (_hessian_norms(grid, phi)
                        / np.sqrt(_integrals(grid, q**2))))
