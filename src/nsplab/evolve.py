"""Time integration of radial perturbations about the steady state.

State variables are the density perturbation q = rho - rho_tilde, the radial
velocity component u (the field is u(r)*rhat), and the potential perturbation
phi with Lap(phi) = q.  The steady pair enters only through its density
profile: the steady potential cancels against the background enthalpy
gradient, so the flat state (q, u) = (0, 0) is an exact equilibrium of the
discrete system, not just an approximate one.

Dynamics, written with the linearization about rho_tilde on the left:

    q_t + div(rho_tilde u) = -div(q u)
    u_t + d_r(h'(rho_tilde) q) - nu(rho_tilde) d_r(div u) - d_r(phi) = f
    Lap(phi) = q,     h'(s) = gamma s**(gamma-2),   nu(s) = (2 mu + lambda)/s

where f is assembled as the exact difference between the primitive momentum
equation and the linear operator above (advection, the enthalpy remainder
h(rho) - h(rho_tilde) - h'(rho_tilde) q, and the density dependence of the
viscous coefficient).

Discretization notes:

* the continuity update is in flux form on the dual cells, so the discrete
  mass  sum_i w_i q_i  telescopes exactly to the wall fluxes, which vanish
  with u(R) = u(R_max) = 0;
* the stiff viscous term is advanced by Crank-Nicolson (tridiagonal solves),
  everything else by a Heun predictor-corrector; the combination is second
  order in time;
* the run loop evaluates the explicit tendencies once per state: the
  evaluation of a new state is both its sample's tendencies and the next
  step's stage 0, and each evaluation applies the viscous operator once,
  for the explicit tendency and the Crank-Nicolson split alike;
* an outer sponge layer relaxes u toward zero and q toward its layer mean --
  relaxing toward the mean rather than zero keeps the sponge exactly
  mass-neutral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import energy as energy_mod
from .elliptic import Tridiagonal, laplacian, solve_poisson_values
from .errors import (IterationError, ParameterError, SimulationAbort,
                     VacuumError)
from .grids import (FluidParams, RadialField, RadialGrid, differentiate,
                    smoothstep)
from .steady import SteadyState, effective_length

INIT_KINDS = ("standard", "density_only", "velocity_only")
MODES = ("nonlinear", "linear")
CFL_SAFETY = 0.4
CFL_LIMIT = 0.5
# real-axis stability limit of Heun's method: |1 - z + z^2/2| <= 1 for
# 0 <= z <= 2, with z = sponge_rate * dt
HEUN_LIMIT = 2.0


def check_run_settings(delta: float, t_end: float, dt: float | str,
                       sponge_width: float | str, sponge_rate: float | str,
                       output_stride: int, init_kind: str, mode: str,
                       vacuum_floor: float, margin: float) -> None:
    """Range checks of the scalar run settings; SimConfig runs them on
    construction and the config parser before any run starts."""
    if init_kind not in INIT_KINDS:
        raise ParameterError(f"unknown init_kind {init_kind!r}")
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ParameterError(f"delta must be finite and >= 0, got {delta}")
    for name, value in (("t_end", t_end), ("dt", dt), ("margin", margin)):
        if value != "auto" and not (math.isfinite(value) and value > 0.0):
            raise ParameterError(f"{name} must be finite and > 0, got {value}")
    for name, value in (("sponge_width", sponge_width),
                        ("sponge_rate", sponge_rate)):
        if value != "auto" and not (math.isfinite(value) and value >= 0.0):
            raise ParameterError(f"{name} must be 'auto' or a finite value "
                                 f">= 0, got {value}")
    if output_stride < 1:
        raise ParameterError("output_stride must be >= 1")
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}")
    if not (0.0 < vacuum_floor < 1.0):
        raise ParameterError("vacuum_floor must lie in (0, 1)")


@dataclass(frozen=True)
class PerturbationState:
    """Perturbation unknowns at one instant; u vanishes at both walls."""

    q: RadialField
    u: RadialField
    phi: RadialField
    t: float


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; dt, sponge width and rate accept 'auto'."""

    params: FluidParams
    grid: RadialGrid
    steady: SteadyState
    delta: float = 1e-3
    t_end: float = 10.0
    dt: float | str = "auto"
    sponge_width: float | str = "auto"
    sponge_rate: float | str = "auto"
    output_stride: int = 50
    init_kind: str = "standard"
    mode: str = "nonlinear"
    margin: float = 2.0
    vacuum_floor: float = 0.1
    checkpoint_dir: str | None = None

    def __post_init__(self):
        check_run_settings(self.delta, self.t_end, self.dt,
                           self.sponge_width, self.sponge_rate,
                           self.output_stride, self.init_kind, self.mode,
                           self.vacuum_floor, self.margin)


def _smooth_bump(r: np.ndarray, center: float, width: float) -> np.ndarray:
    """Compactly supported C-infinity bump, 1 at the center, 0 for |x| >= 1."""
    x = (r - center) / width
    out = np.zeros_like(r)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


# initial-data geometry as fractions of the shell width: (center, width) for
# the positive density bump, the compensating negative shell, and the
# velocity bump; everything vanishes identically near both walls
_BUMP_GEOMETRY = {
    "q_pos": (0.20, 0.16),
    "q_neg": (0.45, 0.18),
    "u": (0.30, 0.20),
}


class _Workspace:
    """Per-run precomputation: operators, steady coefficients, sponge mask."""

    def __init__(self, config: SimConfig):
        grid = config.grid
        params = config.params
        self.grid = grid
        self.params = params
        self.r = grid.r
        self.r2 = grid.r**2
        self.cv = grid.weights / (4.0 * math.pi)  # dual-cell volumes / 4pi
        self.rho_s = config.steady.rho_tilde.values
        self.hp_s = params.enthalpy_weight(self.rho_s)
        self.dh = params.enthalpy_increment_about(self.rho_s)
        self.c_visc = params.longitudinal_viscosity
        self.nu_s = self.c_visc / self.rho_s
        self.visc = _viscous_operator(grid)
        self.nonlinear = config.mode == "nonlinear"
        self.vacuum_min = config.vacuum_floor * params.c_star

        width = config.sponge_width
        if width == "auto":
            width = 0.2 * (grid.r_outer - grid.r_inner)
        rate = config.sponge_rate
        if rate == "auto":
            # inverse acoustic crossing time of the layer; a grid-scale rate
            # would turn the sponge into a reflective wall
            cs_max = float(np.max(params.sound_speed(self.rho_s)))
            rate = cs_max / width if width > 0.0 else 0.0
        self.sponge_rate = float(rate)
        if self.sponge_rate > 0.0 and width > 0.0:
            edge = grid.r_outer - width
            self.sponge_mask = smoothstep((self.r - edge) / width)
        else:
            self.sponge_mask = np.zeros_like(self.r)
        self.sponge_on = self.sponge_rate > 0.0 and np.any(self.sponge_mask > 0.0)
        self.sponge_wsum = float(np.dot(grid.weights, self.sponge_mask))
        self.sponge_coef = -self.sponge_rate * self.sponge_mask

    def rho(self, q: np.ndarray) -> np.ndarray:
        rho = self.rho_s + q
        if rho.min() <= self.vacuum_min:
            raise VacuumError(
                f"density fell to {float(rho.min()):.3e}, below the vacuum guard")
        return rho

    def flux_divergence(self, g: np.ndarray) -> np.ndarray:
        """Conservative divergence of the radial flux density g = r^2 * F:
        returns (1/r^2) d_r(g) on the dual cells, with the physical wall
        fluxes g[0], g[-1] as end closures.  sum_i w_i out_i telescopes to
        4*pi*(g[-1] - g[0]) exactly."""
        mid = 0.5 * (g[1:] + g[:-1])
        out = np.empty_like(g)
        out[1:-1] = (mid[1:] - mid[:-1]) / self.cv[1:-1]
        out[0] = (mid[0] - g[0]) / self.cv[0]
        out[-1] = (g[-1] - mid[-1]) / self.cv[-1]
        return out

    def rhs(self, q: np.ndarray, u: np.ndarray, phi: np.ndarray):
        """Continuity and momentum tendencies (sponge not included) and
        the viscous apply visc @ u they used."""
        nonlinear = self.nonlinear
        rho = self.rho(q)  # vacuum guard in both modes
        carrier = rho if nonlinear else self.rho_s
        q_t = -self.flux_divergence(self.r2 * carrier * u)

        dh = self.dh(q) if nonlinear else self.hp_s * q
        dh_r, phi_r, u_r = differentiate(self.grid, np.stack((dh, phi, u)), 1)
        # 0 - dh_r, not -dh_r: a zero dh_r stays +0 in the checkpoints
        u_t = np.zeros_like(u)
        u_t -= dh_r
        lap_u = self.visc @ u
        coef = self.c_visc / rho if nonlinear else self.nu_s
        u_t += coef * lap_u
        u_t += phi_r
        if nonlinear:
            u_t -= u * u_r
        u_t[0] = 0.0
        u_t[-1] = 0.0
        return q_t, u_t, lap_u

    def sponge(self, q: np.ndarray, u: np.ndarray):
        """Mass-neutral relaxation tendencies in the outer layer; only
        called when sponge_on."""
        s = self.sponge_mask
        mean = float(np.dot(self.grid.weights, s * q)) / self.sponge_wsum
        return self.sponge_coef * (q - mean), self.sponge_coef * u


def _viscous_operator(grid: RadialGrid) -> Tridiagonal:
    """d_r(div u) = u'' + (2/r) u' - 2 u/r^2: the interior rows of the
    Laplacian with 2/r^2 taken off the diagonal, and zero rows at the walls
    (u is pinned there)."""
    lap = laplacian(grid)
    diagonals = (lap.sub.copy(), lap.diag - 2.0 / grid.r**2, lap.sup.copy())
    for d in diagonals:
        d[[0, -1]] = 0.0
    return Tridiagonal(*diagonals)


def _tendencies(ws: _Workspace, q: np.ndarray, u: np.ndarray, f):
    """Equation-evaluated time derivatives (q_t, u_t, phi_t, q_tt) of the
    state (q, u), given f = ws.rhs of it; never finite differences in t.

    q_t and u_t are those of f, phi_t solves Lap(phi_t) = q_t, and q_tt
    differentiates continuity:  q_tt = -div(q_t u + rho u_t).
    """
    q_t, u_t, _ = f
    phi_t = solve_poisson_values(ws.grid, q_t)
    if ws.nonlinear:
        rho = ws.rho_s + q
        g = ws.r2 * (q_t * u + rho * u_t)
    else:
        g = ws.r2 * (ws.rho_s * u_t)
    return q_t, u_t, phi_t, -ws.flux_divergence(g)


def init_perturbation(kind: str, delta: float, grid: RadialGrid,
                      steady: SteadyState, params: FluidParams,
                      mode: str = "nonlinear") -> PerturbationState:
    """Smooth, compactly supported initial data with exactly zero discrete
    mass and amplitude scaled so the energy functional at t = 0 equals delta.

    The density part is a positive bump plus a matched negative shell; the
    matching constant is computed against the discrete quadrature, so the two
    sums cancel exactly.  Both parts and the velocity bump vanish identically
    near the walls.
    """
    ws = _Workspace(SimConfig(params=params, grid=grid, steady=steady,
                              delta=delta, init_kind=kind, mode=mode,
                              sponge_rate=0.0, sponge_width=0.0))
    r = grid.r
    length = effective_length(grid.r_inner, grid.r_outer)

    def loc(frac):
        return grid.r_inner + frac * length

    q_shape = np.zeros_like(r)
    u_shape = np.zeros_like(r)
    if kind in ("standard", "density_only"):
        cp, wp = _BUMP_GEOMETRY["q_pos"]
        cn, wn = _BUMP_GEOMETRY["q_neg"]
        pos = _smooth_bump(r, loc(cp), wp * length)
        neg = _smooth_bump(r, loc(cn), wn * length)
        match = float(np.dot(grid.weights, pos)) / float(np.dot(grid.weights, neg))
        q_shape = pos - match * neg
    if kind in ("standard", "velocity_only"):
        cu, wu = _BUMP_GEOMETRY["u"]
        u_shape = _smooth_bump(r, loc(cu), wu * length)

    def arrays(a: float):
        q = a * q_shape
        return q, a * u_shape, solve_poisson_values(grid, q)

    def state_at(a: float) -> PerturbationState:
        return PerturbationState(*map(grid.field, arrays(a)), t=0.0)

    if delta == 0.0:
        return state_at(0.0)

    def energy_of(a: float) -> float:
        q, u, phi = arrays(a)
        with np.errstate(over="ignore"):  # an overflow is rejected below
            e = energy_mod._sample_norms(
                grid, q, u, phi, _tendencies(ws, q, u, ws.rhs(q, u, phi)))[0]
        if not 0.0 < e < math.inf:
            raise IterationError("could not scale initial data to the target energy")
        return e

    probe = 1e-6
    amp = delta * probe / energy_of(probe)
    for _ in range(40):
        e = energy_of(amp)
        if abs(e - delta) <= 1e-12 * delta:
            break
        amp *= delta / e
    else:
        if abs(energy_of(amp) - delta) > 1e-9 * delta:
            raise IterationError("could not scale initial data to the target energy")
    return state_at(amp)


def _resolve_dt(config: SimConfig, state: PerturbationState,
                ws: _Workspace) -> float:
    rho = ws.rho_s + state.q.values
    speed = ws.params.sound_speed(rho) + np.abs(state.u.values)
    limit = config.grid.min_spacing / float(np.max(speed))
    if config.dt == "auto":
        dt = CFL_SAFETY * limit
    else:
        dt = float(config.dt)
        if dt > CFL_LIMIT * limit:
            raise ParameterError(
                f"dt = {dt:g} violates the acoustic CFL bound {CFL_LIMIT * limit:g}")
    if ws.sponge_on and ws.sponge_rate * dt > HEUN_LIMIT:
        raise ParameterError(
            f"sponge_rate * dt = {ws.sponge_rate * dt:g} exceeds {HEUN_LIMIT:g}, "
            "the stability limit of the explicit Heun sponge")
    return dt


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise VacuumError("non-finite values produced during time step")
    return x


class _Stepper:
    """One Heun/Crank-Nicolson IMEX step of fixed dt on raw (q, u, phi)
    arrays; the Crank-Nicolson operator I - (dt/2) nu(rho_tilde) L is built
    (and factored on its first solve) once per stepper.  Its wall rows are
    identity rows, since L has zero rows there."""

    def __init__(self, ws: _Workspace, dt: float):
        self.ws = ws
        self.dt = dt
        visc = ws.visc
        f = 0.5 * dt * ws.nu_s
        self.cn = Tridiagonal(-f * visc.sub, 1.0 - f * visc.diag,
                              -f * visc.sup)

    def _explicit(self, q, u, f):
        """Tendencies f = ws.rhs(q, u, phi) plus the sponge (if on), minus
        the implicitly treated part of the viscous term, and that part."""
        ws = self.ws
        q_t, u_t, lap_u = f
        vu = ws.nu_s * lap_u
        u_t = u_t - vu
        u_t[0] = 0.0
        u_t[-1] = 0.0
        if ws.sponge_on:
            sp_q, sp_u = ws.sponge(q, u)
            q_t, u_t = q_t + sp_q, u_t + sp_u
        return q_t, u_t, vu

    def _solve_u(self, rhs: np.ndarray) -> np.ndarray:
        """Velocity update; ``rhs`` is a fresh array and is overwritten."""
        rhs[0] = 0.0
        rhs[-1] = 0.0
        return _finite(self.cn.solve(rhs))

    def _potential(self, q: np.ndarray) -> np.ndarray:
        return _finite(solve_poisson_values(self.ws.grid, q))

    def advance(self, q0: np.ndarray, u0: np.ndarray, phi0: np.ndarray,
                f0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (q, u, phi) one step later, given f0 = ws.rhs(q0, u0,
        phi0) as stage 0; raises VacuumError when the density hits the
        vacuum guard or a stage produces non-finite values."""
        dt = self.dt
        eq0, eu0, vu0 = self._explicit(q0, u0, f0)
        u1 = self._solve_u(u0 + dt * eu0 + 0.5 * dt * vu0)
        q1 = q0 + dt * eq0
        phi1 = self._potential(q1)

        eq1, eu1, _ = self._explicit(q1, u1, self.ws.rhs(q1, u1, phi1))
        q2 = q0 + 0.5 * dt * (eq0 + eq1)
        u2 = self._solve_u(u0 + 0.5 * dt * (eu0 + eu1) + 0.5 * dt * vu0)
        phi2 = self._potential(q2)
        return _finite(q2), u2, phi2


def run_simulation(config: SimConfig) -> "energy_mod.TimeSeries":
    """Advance to t_end, sampling the energy functionals every output_stride
    steps; returns the series with the stability verdict attached.

    Aborts (vacuum or non-finite values) raise SimulationAbort carrying the
    failure time and the partial series; an abort while the initial data is
    built (vacuum, or an amplitude that cannot reach delta) has t_fail = 0
    and no series.  The loop carries raw arrays and evaluates the explicit
    tendencies once per state: that evaluation is the next step's stage 0
    and, on a sampled step, the sample's tendencies, which must be finite.
    Samples read the loop's arrays; no field is built per sample.
    """
    ws = _Workspace(config)
    try:
        state = init_perturbation(config.init_kind, config.delta, config.grid,
                                  config.steady, config.params,
                                  mode=config.mode)
    except (VacuumError, IterationError) as exc:
        raise SimulationAbort(str(exc), t_fail=0.0) from exc
    dt = _resolve_dt(config, state, ws)
    n_steps = max(1, math.ceil(config.t_end / dt - 1e-12))
    dt = config.t_end / n_steps
    stepper = _Stepper(ws, dt)

    recorder = energy_mod.SeriesRecorder(config.grid, ws.rho_s, ws.hp_s,
                                         ws.c_visc, dt)

    def sample(step: int, t: float, q, u, phi, f):
        # checked before use, so no warning precedes the abort
        q_t, u_t, phi_t, q_tt = _tendencies(ws, q, u, tuple(map(_finite, f)))
        recorder.add(t, q, u, phi, (q_t, u_t, _finite(phi_t), _finite(q_tt)))
        if config.checkpoint_dir is not None:
            path = Path(config.checkpoint_dir) / f"state_{step:08d}.txt"
            write_checkpoint(config.grid, t, q, u, phi, path)

    q, u, phi, t = state.q.values, state.u.values, state.phi.values, state.t
    try:
        f = ws.rhs(q, u, phi)
        sample(0, t, q, u, phi, f)
        for step in range(1, n_steps + 1):
            q, u, phi = stepper.advance(q, u, phi, f)
            t = t + dt
            f = ws.rhs(q, u, phi)
            if step % config.output_stride == 0 or step == n_steps:
                sample(step, t, q, u, phi, f)
    except VacuumError as exc:
        raise SimulationAbort(str(exc), t_fail=t,
                              series=recorder.finish(margin=None)) from exc
    return recorder.finish(margin=config.margin)


def write_checkpoint(grid: RadialGrid, t: float, q: np.ndarray,
                     u: np.ndarray, phi: np.ndarray, path) -> None:
    """Columnar text checkpoint: comment with t, header row, then r q u phi."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# t {t:.17g}\n")
        fh.write("r q u phi\n")
        for row in zip(grid.r, q, u, phi):
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
