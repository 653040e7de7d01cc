"""Time integration of radial perturbations about the steady state.

The state is the density perturbation q = rho - rho_tilde and the radial
velocity u (the field is u(r)*rhat); each tendency evaluation solves the
potential perturbation phi from Lap(phi) = q.  The steady pair enters only
through its density profile: the steady potential cancels against the
background enthalpy gradient, so the flat state (q, u) = (0, 0) is an exact
equilibrium of the discrete system, not just an approximate one.

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
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import energy as energy_mod
from .elliptic import Tridiagonal, laplacian
from .errors import (IterationError, ParameterError, SimulationAbort,
                     VacuumError)
from .grids import (FluidParams, RadialField, RadialGrid, _check_count,
                    _integrals, differentiate, smoothstep)
from .steady import SteadyState, effective_length

INIT_KINDS = ("standard", "density_only", "velocity_only")
MODES = ("nonlinear", "linear")
CFL_SAFETY = 0.4
CFL_LIMIT = 0.5
# real-axis stability limit of Heun's method: |1 - z + z^2/2| <= 1 for
# 0 <= z <= 2, with z = sponge_rate * dt
HEUN_LIMIT = 2.0


@dataclass(frozen=True)
class PerturbationState:
    """Perturbation unknowns at one instant; u vanishes at both walls."""

    q: RadialField
    u: RadialField
    phi: RadialField
    t: float


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


@dataclass(frozen=True)
class SimConfig:
    """How to run, range-checked on construction; only dt, sponge width and
    rate accept 'auto'.  What to run about is run_simulation's steady
    argument, whose grid and gas (steady.profile.fluid) the run reads."""

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
        if self.init_kind not in INIT_KINDS:
            raise ParameterError(f"unknown init_kind {self.init_kind!r}")
        if not (_real(self.delta) and self.delta >= 0.0):
            raise ParameterError(
                f"delta must be finite and >= 0, got {self.delta}")
        for name in ("t_end", "dt", "margin"):
            value = getattr(self, name)
            if not (name == "dt" and value == "auto"
                    or _real(value) and value > 0.0):
                raise ParameterError(
                    f"{name} must be finite and > 0, got {value}")
        for name in ("sponge_width", "sponge_rate"):
            value = getattr(self, name)
            if value != "auto" and not (_real(value) and value >= 0.0):
                raise ParameterError(f"{name} must be 'auto' or a finite "
                                     f"value >= 0, got {value}")
        _check_count("output_stride", self.output_stride, 1)
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if not (_real(self.vacuum_floor) and 0.0 < self.vacuum_floor < 1.0):
            raise ParameterError("vacuum_floor must lie in (0, 1)")


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
    """Per-run precomputation: operators, steady coefficients, sponge mask;
    every Poisson solve of the run is ``lap.solve_refined``."""

    def __init__(self, steady: SteadyState, config: SimConfig):
        self.grid = grid = steady.rho_tilde.grid
        self.params = params = steady.profile.fluid
        self.r = grid.r
        self.r2 = grid.r**2
        self.cv = grid.weights / (4.0 * math.pi)  # dual-cell volumes / 4pi
        self.rho_s = steady.rho_tilde.values
        self.hp_s = params.enthalpy_weight(self.rho_s)
        self.dh = params.enthalpy_increment_about(self.rho_s)
        self.c_visc = params.longitudinal_viscosity
        self.nu_s = self.c_visc / self.rho_s
        self.lap = laplacian(grid)
        self.visc = _viscous_operator(grid)
        self.nonlinear = config.mode == "nonlinear"
        self.vacuum_min = config.vacuum_floor * params.c_star

        shell = grid.r_outer - grid.r_inner
        width = config.sponge_width
        if width == "auto":
            width = 0.2 * shell
        rate = config.sponge_rate
        if rate == "auto":
            # inverse acoustic crossing time of the layer; a grid-scale rate
            # would turn the sponge into a reflective wall
            cs_max = float(np.max(params.sound_speed(self.rho_s)))
            rate = cs_max / width if width > 0.0 else 0.0
        self.sponge_rate = float(rate)
        if self.sponge_rate > 0.0 and width > shell:
            raise ParameterError(
                f"sponge_width = {width:g} exceeds the shell width {shell:g}")
        if self.sponge_rate > 0.0 and width > 0.0:
            edge = grid.r_outer - width
            self.sponge_mask = smoothstep((self.r - edge) / width)
        else:
            self.sponge_mask = np.zeros_like(self.r)
        self.sponge_on = self.sponge_rate > 0.0 and np.any(self.sponge_mask > 0.0)
        self.sponge_wsum = _integrals(grid, self.sponge_mask)
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

    def rhs(self, q: np.ndarray, u: np.ndarray):
        """Continuity and momentum tendencies (sponge not included), the
        viscous apply visc @ u they used, and phi solved from q."""
        nonlinear = self.nonlinear
        phi = _finite(self.lap.solve_refined(q))
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
        return q_t, u_t, lap_u, phi

    def sponge(self, q: np.ndarray, u: np.ndarray):
        """Mass-neutral relaxation tendencies in the outer layer; only
        called when sponge_on."""
        s = self.sponge_mask
        mean = _integrals(self.grid, s * q) / self.sponge_wsum
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
    q_t, u_t = f[:2]
    phi_t = ws.lap.solve_refined(q_t)
    if ws.nonlinear:
        rho = ws.rho_s + q
        g = ws.r2 * (q_t * u + rho * u_t)
    else:
        g = ws.r2 * (ws.rho_s * u_t)
    return q_t, u_t, phi_t, -ws.flux_divergence(g)


def _initial_arrays(ws: _Workspace, kind: str, delta: float):
    """Smooth, compactly supported initial (q, u) arrays with exactly
    zero discrete mass and amplitude scaled so the energy functional at
    t = 0, evaluated on the run's workspace ws (its mode and vacuum guard),
    equals delta.

    The density part is a positive bump plus a matched negative shell; the
    matching constant is computed against the discrete quadrature, so the two
    sums cancel exactly.  Both parts and the velocity bump vanish identically
    near the walls.
    """
    grid, r = ws.grid, ws.r
    length = effective_length(grid.r_inner, grid.r_outer)

    def loc(frac):
        return grid.r_inner + frac * length

    q_shape = u_shape = np.zeros_like(r)
    if kind in ("standard", "density_only"):
        cp, wp = _BUMP_GEOMETRY["q_pos"]
        cn, wn = _BUMP_GEOMETRY["q_neg"]
        pos = _smooth_bump(r, loc(cp), wp * length)
        neg = _smooth_bump(r, loc(cn), wn * length)
        match = _integrals(grid, pos) / _integrals(grid, neg)
        q_shape = pos - match * neg
    if kind in ("standard", "velocity_only"):
        cu, wu = _BUMP_GEOMETRY["u"]
        u_shape = _smooth_bump(r, loc(cu), wu * length)

    def arrays(a: float):
        return a * q_shape, a * u_shape

    if delta == 0.0:
        return arrays(0.0)

    def energy_of(a: float) -> float:
        q, u = arrays(a)
        with np.errstate(over="ignore"):  # an overflow is rejected below
            f = ws.rhs(q, u)
            e = energy_mod._sample_row(ws, q, u, f[3],
                                       _tendencies(ws, q, u, f))[0]
        if not 0.0 < e < math.inf:
            raise IterationError("could not scale initial data to the target energy")
        return e

    amp = delta * 1e-6 / energy_of(1e-6)  # scaled from a small probe
    for _ in range(40):
        e = energy_of(amp)
        if abs(e - delta) <= 1e-12 * delta:
            break
        amp *= delta / e
    else:
        if abs(energy_of(amp) - delta) > 1e-9 * delta:
            raise IterationError("could not scale initial data to the target energy")
    return arrays(amp)


def init_perturbation(kind: str, delta: float, grid: RadialGrid,
                      steady: SteadyState, params: FluidParams,
                      mode: str = "nonlinear") -> PerturbationState:
    """_initial_arrays of a run about steady with the default vacuum guard
    and the phi of the workspace's rhs, as fields at t = 0; grid must have
    the steady state's nodes and params must be the gas of its profile."""
    grid.require_same(steady.rho_tilde.grid, "grid and the steady state")
    if params != steady.profile.fluid:
        raise ParameterError(f"params {params} are not the steady state's "
                             f"gas {steady.profile.fluid}")
    ws = _Workspace(steady, SimConfig(delta=delta, init_kind=kind, mode=mode))
    q, u = _initial_arrays(ws, kind, delta)
    return PerturbationState(*map(grid.field, (q, u, ws.rhs(q, u)[3])), t=0.0)


def _resolve_dt(config: SimConfig, q: np.ndarray, u: np.ndarray,
                ws: _Workspace) -> float:
    speed = ws.params.sound_speed(ws.rho_s + q) + np.abs(u)
    limit = ws.grid.min_spacing / float(np.max(speed))
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
    """One Heun/Crank-Nicolson IMEX step of fixed dt on raw (q, u) arrays;
    the Crank-Nicolson operator I - (dt/2) nu(rho_tilde) L is built
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
        """Tendencies f = ws.rhs(q, u) plus the sponge (if on), minus the
        implicitly treated part of the viscous term, and that part."""
        ws = self.ws
        q_t, u_t, lap_u, _ = f
        vu = ws.nu_s * lap_u
        u_t = u_t - vu
        if ws.sponge_on:
            sp_q, sp_u = ws.sponge(q, u)
            q_t, u_t = q_t + sp_q, u_t + sp_u
        return q_t, u_t, vu

    def _solve_u(self, rhs: np.ndarray) -> np.ndarray:
        """Velocity update; ``rhs`` is a fresh array and is overwritten."""
        rhs[0] = 0.0
        rhs[-1] = 0.0
        return _finite(self.cn.solve(rhs))

    def advance(self, q0: np.ndarray, u0: np.ndarray, f0):
        """Return (q, u) one step later, given f0 = ws.rhs(q0, u0) as stage
        0; raises VacuumError when the density hits the vacuum guard or a
        stage produces non-finite values."""
        dt, ws = self.dt, self.ws
        eq0, eu0, vu0 = self._explicit(q0, u0, f0)
        u1 = self._solve_u(u0 + dt * eu0 + 0.5 * dt * vu0)
        q1 = q0 + dt * eq0

        eq1, eu1, _ = self._explicit(q1, u1, ws.rhs(q1, u1))
        q2 = q0 + 0.5 * dt * (eq0 + eq1)
        u2 = self._solve_u(u0 + 0.5 * dt * (eu0 + eu1) + 0.5 * dt * vu0)
        return _finite(q2), u2


def run_simulation(steady: SteadyState,
                   config: SimConfig) -> "energy_mod.TimeSeries":
    """Advance a perturbation of steady to t_end, sampling the energy
    functionals every output_stride steps; returns the series with the
    stability verdict attached.  A sponge wider than the shell raises
    ParameterError, as a dt beyond the CFL bound does, before checkpoint_dir
    is created.  One workspace serves the initial data (whose scaling so
    honours the run's mode and vacuum_floor), the stages and the samples.

    Aborts (vacuum or non-finite values) raise SimulationAbort carrying the
    failure time and the partial series; an abort while the initial data is
    built (vacuum, or an amplitude that cannot reach delta) has t_fail = 0
    and no series.  The loop carries the state (q, u) as raw arrays and
    evaluates it once: ws.rhs(q, u), which solves phi from q, is the next
    step's stage 0 and, on a sampled step, the sample's tendencies and phi,
    which must be finite.  Samples read the loop's arrays, no field: each
    appends its row (t, *energy._sample_row(ws, ...)), and one post-run
    pass turns the rows into the series, the partial one of an abort too.
    """
    ws = _Workspace(steady, config)
    try:
        q, u = _initial_arrays(ws, config.init_kind, config.delta)
    except (VacuumError, IterationError) as exc:
        raise SimulationAbort(str(exc), t_fail=0.0) from exc
    dt = _resolve_dt(config, q, u, ws)
    n_steps = max(1, math.ceil(config.t_end / dt - 1e-12))
    dt = config.t_end / n_steps
    stepper = _Stepper(ws, dt)
    rows = []
    if config.checkpoint_dir is not None:
        Path(config.checkpoint_dir).mkdir(parents=True, exist_ok=True)

    def sample(step: int, t: float, q, u, f):
        # checked before use, so no warning precedes the abort
        q_t, u_t, phi_t, q_tt = _tendencies(ws, q, u, tuple(map(_finite, f)))
        rows.append((t, *energy_mod._sample_row(
            ws, q, u, f[3], (q_t, u_t, _finite(phi_t), _finite(q_tt)))))
        if config.checkpoint_dir is not None:
            path = Path(config.checkpoint_dir) / f"state_{step:08d}.txt"
            write_checkpoint(ws.grid, t, q, u, f[3], path)

    t = 0.0
    try:
        f = ws.rhs(q, u)
        sample(0, t, q, u, f)
        for step in range(1, n_steps + 1):
            q, u = stepper.advance(q, u, f)
            t = t + dt
            f = ws.rhs(q, u)
            if step % config.output_stride == 0 or step == n_steps:
                sample(step, t, q, u, f)
    except VacuumError as exc:
        partial = energy_mod._series_from_rows(rows, ws.c_visc, dt, None)
        raise SimulationAbort(str(exc), t_fail=t, series=partial) from exc
    return energy_mod._series_from_rows(rows, ws.c_visc, dt, config.margin)


def write_checkpoint(grid: RadialGrid, t: float, q: np.ndarray,
                     u: np.ndarray, phi: np.ndarray, path) -> None:
    """Columnar text checkpoint: comment with t, header row, then r q u phi."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# t {t:.17g}\n")
        fh.write("r q u phi\n")
        for row in zip(grid.r, q, u, phi):
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
