import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsplab import (ParameterError, PerturbationState,
                    SimConfig, SimulationAbort, VacuumError,
                    RadialGrid, init_perturbation, make_profile,
                    run_simulation, solve_steady_monotone, weighted_l2_norm)
from nsplab import SteadyState, evolve
from nsplab.elliptic import Tridiagonal
from nsplab.energy import SAMPLED, _sample_row, _series_from_rows
from nsplab.evolve import (_Stepper, _tendencies, _viscous_operator,
                           _Workspace, write_checkpoint)
from nsplab.grids import RadialField

from oracles import (MMS_TERMS, STEADY, Manufactured, background_density, gas,
                     sample_row, tendencies)


def cfl_dt(params, steady, grid, factor=0.4):
    cs = float(np.max(params.sound_speed(steady.rho_tilde.values)))
    return factor * grid.min_spacing / cs


# ------------------------------------------------------------ initial data

@pytest.fixture(scope="module")
def steady320():
    """A gamma = 2 bump steady state on a uniform 320-cell shell."""
    grid = RadialGrid(1.0, 16.0, 320)
    return solve_steady_monotone(
        make_profile("admissible_bump", gas(2.0), 0.5, grid), **STEADY)


def test_init_rejects_a_grid_other_than_the_steady_state(steady320,
                                                         params_gamma2):
    other = RadialGrid(1.0, 16.0, 320, stretch=3.0)
    with pytest.raises(ParameterError, match="different grid nodes"):
        init_perturbation("standard", 1e-3, other, steady320, params_gamma2)
    same = RadialGrid(1.0, 16.0, 320)
    state = init_perturbation("standard", 1e-3, same, steady320,
                              params_gamma2)
    assert np.array_equal(state.q.grid.r, steady320.rho_tilde.grid.r)


@pytest.mark.parametrize("params", [gas(1.5), gas(2.0, c_star=3.0),
                                    gas(2.0, mu=0.1)],
                         ids=["gamma", "c_star", "mu"])
def test_init_rejects_params_other_than_the_steady_state(steady320, params):
    with pytest.raises(ParameterError, match="not the steady state's gas"):
        init_perturbation("standard", 1e-3, steady320.rho_tilde.grid,
                          steady320, params)


def test_init_zero_delta(shell16, steady_bump_gamma2, params_gamma2):
    st = init_perturbation("standard", 0.0, shell16, steady_bump_gamma2,
                           params_gamma2)
    assert np.all(st.q.values == 0.0)
    assert np.all(st.u.values == 0.0)
    assert np.all(st.phi.values == 0.0)


def test_init_mass_cancellation(shell16, steady_bump_gamma2, params_gamma2):
    st = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                           params_gamma2)
    mass = float(np.dot(shell16.weights, st.q.values))
    assert abs(mass) <= 1e-13 * weighted_l2_norm(st.q)


def test_init_energy_equals_delta(shell16, steady_bump_gamma2, params_gamma2):
    for delta in (1e-4, 1e-3):
        st = init_perturbation("standard", delta, shell16, steady_bump_gamma2,
                               params_gamma2)
        tend = tendencies(st, steady_bump_gamma2)
        e = sample_row(st, tend, steady_bump_gamma2)[0]
        assert e == pytest.approx(delta, rel=1e-9)
    # doubling delta doubles E(0) (well within the 2% near-linearity budget)
    st1 = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                            params_gamma2)
    st2 = init_perturbation("standard", 2e-3, shell16, steady_bump_gamma2,
                            params_gamma2)
    e1, e2 = (sample_row(st, tendencies(st, steady_bump_gamma2),
                         steady_bump_gamma2)[0] for st in (st1, st2))
    assert e2 / e1 == pytest.approx(2.0, rel=0.02)


def test_init_no_penetration(shell16, steady_bump_gamma2, params_gamma2):
    st = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                           params_gamma2)
    assert st.u.values[0] == 0.0
    assert st.u.values[-1] == 0.0


def test_init_vacuum_guard(shell16, steady_bump_gamma2, params_gamma2):
    with pytest.raises(VacuumError):
        init_perturbation("density_only", 2e3, shell16, steady_bump_gamma2,
                          params_gamma2)


def test_init_unknown_kind(shell16, steady_bump_gamma2, params_gamma2):
    with pytest.raises(ParameterError):
        init_perturbation("fancy", 1e-3, shell16, steady_bump_gamma2,
                          params_gamma2)


# ------------------------------------------------------------------- rhs

def test_equilibrium_tendencies_vanish(shell16, steady_bump_gamma2,
                                       params_gamma2):
    st = init_perturbation("standard", 0.0, shell16, steady_bump_gamma2,
                           params_gamma2)
    for f in tendencies(st, steady_bump_gamma2):
        assert np.max(np.abs(f)) == 0.0


@settings(derandomize=True, max_examples=25, deadline=None)
@given(gamma=st.floats(1.0, 2.0), amplitude=st.floats(0.0, 1.0),
       n_cells=st.integers(64, 400), stretch=st.floats(0.0, 3.0))
def test_zero_perturbation_tendencies_vanish(gamma, amplitude, n_cells,
                                             stretch):
    # the steady state is a discrete equilibrium for every admissible setup
    g = RadialGrid(1.0, 16.0, n_cells, stretch)
    steady = solve_steady_monotone(
        make_profile("admissible_bump", gas(gamma), amplitude, g), **STEADY)
    zero = PerturbationState(q=g.zeros(), u=g.zeros(), phi=g.zeros(), t=0.0)
    for f in tendencies(zero, steady):
        assert np.max(np.abs(f)) <= 1e-13


def test_continuity_matches_analytic_divergence(params_gamma2):
    errs = []
    for n in (400, 800):
        g = RadialGrid(1.0, 16.0, n)
        profile = make_profile("constant", params_gamma2, 0.0, g)
        steady = solve_steady_monotone(profile, **STEADY)
        r = g.r
        env = np.exp(-((r - 5.0) ** 2))
        q = 1e-2 * env
        u = 1e-2 * env * (r - 5.0)
        denv = -2.0 * (r - 5.0) * env
        du = 1e-2 * (env + (r - 5.0) * denv)
        dq = 1e-2 * denv
        rho = 1.0 + q
        # exact -(1/r^2) d_r(r^2 rho u)
        flux_prime = (2.0 * r * rho * u + r**2 * (dq * u + rho * du))
        q_t_exact = -flux_prime / r**2
        state = PerturbationState(
            q=RadialField(q, g), u=RadialField(u, g),
            phi=g.zeros(), t=0.0)
        q_t = tendencies(state, steady)[0]
        errs.append(np.max(np.abs(q_t - q_t_exact)))
    assert errs[0] / errs[1] > 3.0


@pytest.fixture(scope="module", params=[0.0, 3.0], ids=["uniform", "stretched"])
def flux_workspace(request, params_gamma2):
    g = RadialGrid(1.0, 16.0, 64, request.param)
    steady = solve_steady_monotone(
        make_profile("constant", params_gamma2, 0.0, g), **STEADY)
    return _Workspace(steady, SimConfig())


_WALL = st.one_of(st.floats(0.1, 1.0), st.floats(-1.0, -0.1))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(walls=st.tuples(_WALL, _WALL),
       interior=st.lists(st.floats(-1.0, 1.0), min_size=63, max_size=63))
def test_flux_divergence_telescopes(flux_workspace, walls, interior):
    # sum_i w_i div(g)_i leaves only the wall fluxes, whatever g is inside
    g = np.array([walls[0], *interior, walls[1]])
    ws = flux_workspace
    total = float(np.dot(ws.grid.weights, ws.flux_divergence(g)))
    exact = 4.0 * math.pi * (g[-1] - g[0])
    assert abs(total - exact) <= 1e-12 * 4.0 * math.pi * np.max(np.abs(g))


def test_tendency_scaling_exponent(shell16, steady_bump_gamma2,
                                   params_gamma2):
    # departure from linearity scales like amplitude squared
    base = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                             params_gamma2)
    deltas = (1e-4, 1e-3, 1e-2)
    defects = []
    for d in deltas:
        scale = d / 1e-3
        st1 = PerturbationState(
            q=RadialField(scale * base.q.values, shell16),
            u=RadialField(scale * base.u.values, shell16),
            phi=RadialField(scale * base.phi.values, shell16), t=0.0)
        st2 = PerturbationState(
            q=RadialField(2 * scale * base.q.values, shell16),
            u=RadialField(2 * scale * base.u.values, shell16),
            phi=RadialField(2 * scale * base.phi.values, shell16), t=0.0)
        q_t1, u_t1 = tendencies(st1, steady_bump_gamma2)[:2]
        q_t2, u_t2 = tendencies(st2, steady_bump_gamma2)[:2]
        defect = (np.max(np.abs(u_t2 - 2 * u_t1))
                  + np.max(np.abs(q_t2 - 2 * q_t1)))
        defects.append(defect)
    slope = np.polyfit(np.log10(deltas), np.log10(defects), 1)[0]
    assert 1.8 < slope < 2.2


# ------------------------------------------------------------------ steps

def test_step_global_second_order(shell16, steady_bump_gamma2, params_gamma2):
    ws = _Workspace(steady_bump_gamma2, SimConfig(sponge_rate=0.0))
    state = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                              params_gamma2)
    dt0 = cfl_dt(params_gamma2, steady_bump_gamma2, shell16)
    horizon = 16 * dt0

    def advance(dt):
        stepper = _Stepper(ws, dt)
        q, u = state.q.values, state.u.values
        for _ in range(round(horizon / dt)):
            q, u = stepper.advance(q, u, ws.rhs(q, u))
        return q, u

    ref_q, ref_u = advance(dt0 / 8)
    errs = []
    for k in (1, 2):
        q, u = advance(dt0 / k)
        errs.append(np.max(np.abs(u - ref_u)) + np.max(np.abs(q - ref_q)))
    assert math.log2(errs[0] / errs[1]) > 1.9


def _linear_run_basic_energy(params, n_cells, kind, dt_factor, n_steps):
    """E_basic = 1/2 int (rho_tilde u^2 + h' q^2 + |grad phi|^2), the row's
    column, at every state of a linear run about a flat background on
    [1, 16], sponge off, driven through the run's own workspace and
    stepper."""
    g = RadialGrid(1.0, 16.0, n_cells)
    steady = solve_steady_monotone(make_profile("constant", params, 0.0, g),
                                   **STEADY)
    cfg = SimConfig(mode="linear", sponge_rate=0.0)
    ws = _Workspace(steady, cfg)
    stepper = _Stepper(ws, cfl_dt(params, steady, g, factor=dt_factor))
    state = init_perturbation(kind, 1e-3, g, steady, params, mode="linear")
    q, u = state.q.values, state.u.values
    f = ws.rhs(q, u)

    def e_basic():
        row = _sample_row(ws, q, u, f[3], _tendencies(ws, q, u, f))
        return dict(zip(SAMPLED[1:], row))["E_basic"]

    energies = [e_basic()]
    for _ in range(n_steps):
        q, u = stepper.advance(q, u, f)
        f = ws.rhs(q, u)
        energies.append(e_basic())
    return np.array(energies)


def test_linear_run_basic_energy_is_nonincreasing(params_gamma2):
    # the zero-order identity dE_basic/dt = -c_visc ||grad u||^2 <= 0 of
    # the full linear system, seen step by step
    e = _linear_run_basic_energy(params_gamma2, 500, "velocity_only", 0.4,
                                 160)
    assert np.all(np.diff(e) <= 0.0)
    assert e[-1] < e[0]


def test_inviscid_linear_run_conserves_zero_order_energy():
    # pressure and field forces exchange energy but, without viscosity, do
    # not dissipate it; a scheme off in either term drifts
    params = gas(1.0, mu=1e-12)
    e = _linear_run_basic_energy(params, 400, "standard", 0.25, 1000)
    assert abs(e[-1] - e[0]) / e[0] < 1e-3


@pytest.mark.parametrize("n_cells,stretch", [(200, 0.0), (2000, 0.0),
                                             (200, 0.5), (2000, 3.0)])
def test_viscous_rows_match_direct_stencil(n_cells, stretch):
    # reference: the d_r(div u) stencil assembled on its own
    g = RadialGrid(1.0, 16.0, n_cells, stretch)
    r = g.r
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    denom = hm + hp
    rmid = r[1:-1]
    sub, diag, sup = np.zeros((3, r.size))
    sub[1:-1] = 2.0 / (hm * denom) + (2.0 / rmid) * (-hp / (hm * denom))
    diag[1:-1] = -2.0 / (hm * hp) + (2.0 / rmid) * ((hp - hm) / (hm * hp)) \
        - 2.0 / rmid**2
    sup[1:-1] = 2.0 / (hp * denom) + (2.0 / rmid) * (hm / (hp * denom))
    op = _viscous_operator(g)
    assert np.array_equal(op.sub, sub)
    assert np.array_equal(op.diag, diag)
    assert np.array_equal(op.sup, sup)


def test_stepper_non_finite_is_vacuum_error(shell16, steady_bump_gamma2,
                                            params_gamma2):
    st = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                           params_gamma2)
    q = st.q.values.copy()
    q[shell16.n_nodes // 3] = np.nan
    ws = _Workspace(steady_bump_gamma2, SimConfig())
    stepper = _Stepper(ws, cfl_dt(params_gamma2, steady_bump_gamma2, shell16))
    f = ws.rhs(st.q.values, st.u.values)
    with pytest.raises(VacuumError):
        stepper.advance(q, st.u.values, f)


# ------------------------------------------------------------------- runs

def test_run_zero_delta_stays_zero(steady_bump_gamma2):
    cfg = SimConfig(delta=0.0, t_end=0.5, output_stride=20)
    series = run_simulation(steady_bump_gamma2, cfg)
    assert np.max(series.column("E")) == 0.0
    assert np.max(np.abs(series.column("mass"))) == 0.0
    assert series.verdict is None


def test_run_mass_conservation_with_sponge(shell16, steady_bump_gamma2,
                                           params_gamma2):
    cfg = SimConfig(delta=1e-3, t_end=2.0, output_stride=10)
    series = run_simulation(steady_bump_gamma2, cfg)
    st0 = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                            params_gamma2)
    bound = 1e-10 * weighted_l2_norm(st0.q)
    mass = series.column("mass")
    assert np.max(np.abs(mass - mass[0])) <= bound


def test_run_is_deterministic(params_gamma2):
    g = RadialGrid(1.0, 16.0, 200)
    profile = make_profile("admissible_bump", params_gamma2, 0.5, g)
    steady = solve_steady_monotone(profile, **STEADY)
    cfg = SimConfig(delta=1e-3, t_end=0.5, output_stride=10)
    a = run_simulation(steady, cfg)
    b = run_simulation(steady, cfg)
    assert a.columns.keys() == b.columns.keys()
    for name in a.columns:
        assert np.array_equal(a.column(name), b.column(name))


def test_cfl_validation(shell16, steady_bump_gamma2, params_gamma2):
    big_dt = 10.0 * cfl_dt(params_gamma2, steady_bump_gamma2, shell16)
    cfg = SimConfig(delta=1e-3, t_end=1.0, dt=big_dt)
    with pytest.raises(ParameterError):
        run_simulation(steady_bump_gamma2, cfg)


def test_sponge_wider_than_the_shell_is_refused(steady_bump_gamma2):
    # the sponge may span the 15-wide shell but not more; an off sponge
    # (rate 0) may have any width
    ws = _Workspace(steady_bump_gamma2, SimConfig(sponge_width=15.0))
    assert ws.sponge_on and ws.sponge_mask[0] == 0.0
    for rate in ("auto", 1.0):
        with pytest.raises(ParameterError, match="exceeds the shell width"):
            run_simulation(steady_bump_gamma2, SimConfig(
                t_end=0.1, sponge_width=15.5, sponge_rate=rate))
    off = SimConfig(sponge_width=100.0, sponge_rate=0.0)
    assert not _Workspace(steady_bump_gamma2, off).sponge_on


def test_checkpoint_roundtrip(tmp_path, shell16, steady_bump_gamma2,
                              params_gamma2):
    st = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                           params_gamma2)
    t = 1.25
    path = tmp_path / "state_00000001.txt"
    write_checkpoint(shell16, t, st.q.values, st.u.values, st.phi.values,
                     path)
    first, header = path.read_text().splitlines()[:2]
    assert first.split()[:2] == ["#", "t"] and header == "r q u phi"
    assert float(first.split()[2]) == t
    r, q, u, phi = np.loadtxt(path, skiprows=2).T
    assert np.array_equal(r, shell16.r)
    assert np.array_equal(q, st.q.values)
    assert np.array_equal(u, st.u.values)
    assert np.array_equal(phi, st.phi.values)


def test_run_abort_while_building_initial_data(steady_bump_gamma2):
    cfg = SimConfig(delta=1e7, t_end=0.5)
    with pytest.raises(SimulationAbort) as info:
        run_simulation(steady_bump_gamma2, cfg)
    assert info.value.t_fail == 0.0
    assert info.value.series is None


def test_run_creates_its_checkpoint_dir_after_its_checks(tmp_path,
                                                         steady320):
    # a library run names a directory that need not exist; a run refused
    # by its dt check leaves none behind
    target = tmp_path / "a" / "b"
    series = run_simulation(steady320, SimConfig(
        t_end=0.1, output_stride=2, checkpoint_dir=str(target)))
    files = sorted(target.glob("state_*.txt"))
    assert len(files) == series.column("t").size > 2
    refused = tmp_path / "refused"
    with pytest.raises(ParameterError, match="CFL"):
        run_simulation(steady320, SimConfig(t_end=0.1, dt=1.0,
                                            checkpoint_dir=str(refused)))
    assert not refused.exists()


@pytest.mark.parametrize("fields, message", [
    ({"t_end": "auto"}, "t_end must be finite and > 0, got auto"),
    ({"margin": "auto"}, "margin must be finite and > 0, got auto"),
    ({"output_stride": 2.5}, "output_stride must be an integer, got 2.5"),
], ids=["t_end", "margin", "stride"])
def test_sim_config_refuses_what_no_run_resolves(fields, message):
    # only dt and the sponge width and rate are resolved by the run; a
    # fractional stride would sample off its stated steps
    with pytest.raises(ParameterError) as err:
        SimConfig(**fields)
    assert str(err.value) == message
    SimConfig(dt="auto", sponge_width="auto", sponge_rate="auto",
              output_stride=np.int64(3))


# --------------------------------------------------- one workspace per run

def test_run_builds_one_workspace(steady320, monkeypatch):
    # the initial data, the stages and the samples share it
    built = []
    real = _Workspace.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(_Workspace, "__init__", counted)
    run_simulation(steady320, SimConfig(t_end=0.1))
    assert len(built) == 1
    assert not hasattr(_Stepper, "_potential")


def test_initial_data_honours_the_run_vacuum_floor(steady320):
    # the scaled density_only data dips to 0.083 at delta = 900: below the
    # default guard of 0.1, above this run's 0.01
    cfg = SimConfig(delta=900.0, init_kind="density_only",
                    vacuum_floor=0.01, t_end=0.02)
    series = run_simulation(steady320, cfg)
    assert series.verdict is not None and series.verdict.passed
    assert 0.01 < series.column("min_density")[0] < 0.1
    # the public init_perturbation keeps the default guard
    with pytest.raises(VacuumError, match="below the vacuum guard"):
        init_perturbation("density_only", 900.0, steady320.rho_tilde.grid,
                          steady320, steady320.profile.fluid)


def test_initial_data_stops_at_the_run_vacuum_floor(steady320):
    # the mirror case: a guard of 0.8 stops the scaling itself, so the run
    # aborts while its initial data is built, at t = 0 and with no series
    cfg = SimConfig(delta=300.0, init_kind="density_only",
                    vacuum_floor=0.8, t_end=0.5)
    with pytest.raises(SimulationAbort,
                       match="below the vacuum guard") as info:
        run_simulation(steady320, cfg)
    assert info.value.t_fail == 0.0
    assert info.value.series is None


# ------------------------------------------- one explicit evaluation per state

@pytest.fixture(scope="module", params=[1.0, 1.5, 2.0],
                ids=["gamma1", "gamma1.5", "gamma2"])
def cells16(request):
    """A 16-cell shell, its steady state and fluid at one gamma; gamma = 1
    takes the log branch of the enthalpy increment, the others the
    prefactor branch."""
    g = RadialGrid(1.0, 16.0, 16)
    gamma = request.param
    params = gas(gamma)
    steady = solve_steady_monotone(
        make_profile("admissible_bump", params, 0.5, g), **STEADY)
    return g, steady, params


def test_hoisted_run_constants_keep_the_inline_arithmetic(cells16):
    # the per-run factors give the bits of the one-line formulas
    g, steady, params = cells16
    gamma, rho_s = params.gamma, steady.rho_tilde.values
    q = 1e-3 * np.sin(g.r)
    ratio = np.log1p(q / rho_s)
    inline = ratio if gamma == 1.0 else (
        (gamma / (gamma - 1.0)) * np.power(rho_s, gamma - 1.0)
        * np.expm1((gamma - 1.0) * ratio))
    dh = params.enthalpy_increment_about(rho_s)(q)
    assert dh.tobytes() == inline.tobytes()

    ws = _Workspace(steady, SimConfig())
    assert ws.sponge_on
    s, u = ws.sponge_mask, 1e-3 * np.cos(g.r)
    mean = float(np.dot(g.weights, s * q)) / ws.sponge_wsum
    dq, du = ws.sponge(q, u)
    assert dq.tobytes() == (-ws.sponge_rate * s * (q - mean)).tobytes()
    assert du.tobytes() == (-ws.sponge_rate * s * u).tobytes()


def _reference_run(steady, cfg: SimConfig, dt: float):
    """The sampled run about steady rebuilt step by step: a fresh evaluation
    of the tendencies for each step's stage 0 and for each sample, where the
    run shares one evaluation per state.  Returns the series, or the failure
    time, the message and the partial series of a vacuum abort."""
    params = steady.profile.fluid
    g = steady.rho_tilde.grid
    state = init_perturbation(cfg.init_kind, cfg.delta, g, steady,
                              params, mode=cfg.mode)
    rows = []
    n_steps = round(cfg.t_end / dt)
    ws = _Workspace(steady, cfg)
    stepper = _Stepper(ws, dt)
    q, u = state.q.values, state.u.values

    def record(state):
        rows.append((state.t, *_sample_row(
            ws, state.q.values, state.u.values, state.phi.values,
            tendencies(state, steady, cfg.mode))))

    try:
        record(state)
        for step in range(1, n_steps + 1):
            q, u = stepper.advance(q, u, ws.rhs(q, u))
            phi = ws.lap.solve_refined(q)
            state = PerturbationState(q=g.field(q), u=g.field(u),
                                      phi=g.field(phi), t=state.t + dt)
            if step % cfg.output_stride == 0 or step == n_steps:
                record(state)
    except VacuumError as exc:
        return state.t, str(exc), _series_from_rows(rows, ws.c_visc, dt,
                                                    None)
    return _series_from_rows(rows, ws.c_visc, dt, cfg.margin)


def _assert_same_series(a, b):
    # tobytes and repr spell every float exactly, signed zeros included
    assert a.columns.keys() == b.columns.keys()
    assert a.column("t").size > 1
    for name in a.columns:
        assert a.column(name).tobytes() == b.column(name).tobytes(), name
    assert repr(a.verdict) == repr(b.verdict)
    assert (a.dt, a.c_visc) == (b.dt, b.c_visc)


@pytest.mark.parametrize("mode", ["nonlinear", "linear"])
@pytest.mark.parametrize("sponge_rate", ["auto", 0.0],
                         ids=["sponge", "no_sponge"])
def test_run_samples_equal_the_public_step_loop(cells16, mode, sponge_rate):
    g, steady, params = cells16
    cfg = SimConfig(delta=1e-3, t_end=4.0, output_stride=3,
                    mode=mode, sponge_rate=sponge_rate)
    series = run_simulation(steady, cfg)
    assert series.verdict is not None
    _assert_same_series(series, _reference_run(steady, cfg, series.dt))


@pytest.mark.parametrize("stride", [1, 2])
def test_run_vacuum_abort_equals_the_public_step_loop(cells16, stride):
    # the velocity bump piles up density until it crosses a guard at 0.8
    g, steady, params = cells16
    cfg = SimConfig(delta=100.0, t_end=4.0,
                    output_stride=stride, init_kind="velocity_only",
                    vacuum_floor=0.8)
    with pytest.raises(SimulationAbort) as info:
        run_simulation(steady, cfg)
    abort = info.value
    t_fail, message, partial = _reference_run(steady, cfg,
                                                abort.series.dt)
    assert 0.0 < abort.t_fail == t_fail
    assert str(abort) == message
    assert abort.series.verdict is None
    _assert_same_series(abort.series, partial)


@pytest.mark.parametrize("k", [4, 5], ids=["sampled", "unsampled"])
def test_run_abort_at_a_state_equals_the_public_step_loop(cells16, k,
                                                          monkeypatch):
    # a guard that trips at the state after k steps, not inside a step:
    # the failure time is that state's
    g, steady, params = cells16
    cfg = SimConfig(delta=1e-3, t_end=4.0, output_stride=2)
    dt = run_simulation(steady, cfg).dt
    ws = _Workspace(steady, cfg)
    stepper = _Stepper(ws, dt)
    state = init_perturbation("standard", 1e-3, g, steady, params)
    q_k, u, t_k = state.q.values, state.u.values, 0.0
    for _ in range(k):
        q_k, u = stepper.advance(q_k, u, ws.rhs(q_k, u))
        t_k = t_k + dt
    real_rhs = _Workspace.rhs

    def rhs(self, q, u):
        if np.array_equal(q, q_k):
            raise VacuumError("tripped")
        return real_rhs(self, q, u)

    monkeypatch.setattr(_Workspace, "rhs", rhs)
    with pytest.raises(SimulationAbort) as info:
        run_simulation(steady, cfg)
    t_fail, message, partial = _reference_run(steady, cfg, dt)
    assert info.value.t_fail == t_fail == t_k
    assert str(info.value) == message == "tripped"
    _assert_same_series(info.value.series, partial)
    assert partial.column("t").size == 1 + (k - 1) // 2


@pytest.mark.parametrize("stride", [1, 3, 1000])
def test_run_evaluates_rhs_once_per_state(cells16, stride, monkeypatch):
    g, steady, params = cells16
    counts = {"rhs": 0, "visc": 0}
    viscs = []
    solvers = []  # the callers of each Poisson solve
    real_rhs = _Workspace.rhs
    real_solve = Tridiagonal.solve_refined
    real_matmul = Tridiagonal.__matmul__
    real_visc = evolve._viscous_operator
    real_init = evolve._initial_arrays

    def rhs(self, q, u):
        counts["rhs"] += 1
        return real_rhs(self, q, u)

    def solve_refined(self, b):
        solvers.append(sys._getframe(1).f_code.co_name)
        return real_solve(self, b)

    def matmul(self, x):
        counts["visc"] += any(self is v for v in viscs)
        return real_matmul(self, x)

    def viscous_operator(grid):
        viscs.append(real_visc(grid))
        return viscs[-1]

    def init(*args, **kwargs):
        # count only the run loop's evaluations
        arrays = real_init(*args, **kwargs)
        counts.update(rhs=0, visc=0)
        solvers.clear()
        return arrays

    monkeypatch.setattr(_Workspace, "rhs", rhs)
    monkeypatch.setattr(Tridiagonal, "solve_refined", solve_refined)
    monkeypatch.setattr(Tridiagonal, "__matmul__", matmul)
    monkeypatch.setattr(evolve, "_viscous_operator", viscous_operator)
    monkeypatch.setattr(evolve, "_initial_arrays", init)
    cfg = SimConfig(delta=1e-3, t_end=4.0, output_stride=stride)
    series = run_simulation(steady, cfg)
    n = round(cfg.t_end / series.dt)
    assert n > 3
    # one evaluation per state: the initial one, then two stages a step
    # whose second result is the next state's, shared with its sample
    assert counts["rhs"] == 2 * n + 1
    # and each evaluation, one per stage, applies visc once
    assert counts["visc"] == counts["rhs"]
    # the state is (q, u): each evaluation solves phi from q, and each of
    # the k samples solves phi_t; nothing else solves
    k = series.column("t").size
    assert solvers.count("rhs") == 2 * n + 1
    assert solvers.count("_tendencies") == k
    assert len(solvers) == 2 * n + 1 + k


def test_rhs_solves_phi_from_q(cells16):
    # phi is the Poisson solve of q, bit for bit; init_perturbation reports
    # the same phi
    g, steady, params = cells16
    ws = _Workspace(steady, SimConfig())
    q, u = evolve._initial_arrays(ws, "standard", 1e-3)
    phi = ws.rhs(q, u)[3]
    assert phi.tobytes() == ws.lap.solve_refined(q).tobytes()
    st = init_perturbation("standard", 1e-3, g, steady, params)
    assert st.q.values.tobytes() == q.tobytes()
    assert st.phi.values.tobytes() == phi.tobytes()


@pytest.mark.parametrize("k", [4, 5], ids=["sampled", "unsampled"])
def test_non_finite_tendency_at_a_state_aborts_with_the_partial_series(
        cells16, k, monkeypatch):
    # an evaluation that is not finite at the state after k steps ends the
    # run at that state's time: the sample's finiteness check catches it at
    # a sampled state, the next step's at an unsampled one
    g, steady, params = cells16
    cfg = SimConfig(delta=1e-3, t_end=4.0, output_stride=2)
    clean = run_simulation(steady, cfg)
    stepper = _Stepper(_Workspace(steady, cfg), clean.dt)
    state = init_perturbation("standard", 1e-3, g, steady, params)
    q_k, u, t_k = state.q.values, state.u.values, 0.0
    for _ in range(k):
        q_k, u = stepper.advance(q_k, u, stepper.ws.rhs(q_k, u))
        t_k = t_k + clean.dt
    real_rhs = _Workspace.rhs

    def rhs(self, q, u):
        q_t, u_t, lap_u, phi = real_rhs(self, q, u)
        if np.array_equal(q, q_k):
            u_t = np.full_like(u_t, np.inf)
        return q_t, u_t, lap_u, phi

    monkeypatch.setattr(_Workspace, "rhs", rhs)
    with pytest.raises(SimulationAbort) as info:
        run_simulation(steady, cfg)
    abort = info.value
    assert abort.t_fail == t_k
    assert str(abort) == "non-finite values produced during time step"
    partial = abort.series
    assert partial.verdict is None
    n = 1 + (k - 1) // 2
    assert partial.column("t").size == n
    for name in SAMPLED:
        assert (partial.column(name).tobytes()
                == clean.column(name)[:n].tobytes()), name


def test_run_builds_no_field_per_sample(cells16, monkeypatch):
    # samples read the loop's arrays: how often a run samples does not
    # change how many fields it builds
    g, steady, params = cells16
    built = []
    real = RadialField.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(RadialField, "__post_init__", counted)
    counts = {}
    for stride in (1, 50):
        built.clear()
        series = run_simulation(steady, SimConfig(
            delta=1e-3, t_end=4.0, output_stride=stride))
        counts[stride] = (len(built), series.column("t").size)
    assert counts[1][1] > counts[50][1] == 2
    assert counts[1][0] == counts[50][0]


# ------------------------------------------------------ manufactured solution

MMS_LEVELS = (250, 500, 1000)
# large enough for the advection term to show, small enough to stay clear
# of the vacuum guard
MMS_AMPLITUDE = 0.03


class _ForcedWorkspace(_Workspace):
    """The run workspace with the forcing at time ``t`` added to the
    tendencies of every evaluation."""

    def __init__(self, steady, config, forcing):
        super().__init__(steady, config)
        self.forcing = forcing
        self.t = 0.0

    def rhs(self, q, u):
        q_t, u_t, lap_u, phi = super().rhs(q, u)
        s_q, s_u = self.forcing(self.t)
        return q_t + s_q, u_t + s_u, lap_u, phi


def _mms_errors(gamma, mode, n, scale=None):
    """max |q - q_m| and max |u - u_m| at t = 1 of a forced run on [1, 16]
    with n cells and dt = 5/n, sponge off, started from the manufactured
    solution; the stage at t_n takes the forcing at t_n, the stage at
    t_n + dt the forcing at t_n + dt."""
    grid = RadialGrid(1.0, 16.0, n)
    params = gas(gamma)
    mms = Manufactured(grid.r, gamma, params.longitudinal_viscosity,
                       MMS_AMPLITUDE, nonlinear=mode == "nonlinear",
                       scale=scale)
    # the perturbation equations use the background only as a coefficient
    steady = SteadyState(
        rho_tilde=RadialField(background_density(grid.r)[0], grid),
        phi_tilde=grid.zeros(),
        profile=make_profile("constant", params, 0.0, grid),
        residual_elliptic=0.0, bounds_ok=True, iterations_super=0,
        iterations_sub=0, limit_gap=0.0, monotonicity_defect=0.0,
        tol=1e-10, max_iter=200)
    ws = _ForcedWorkspace(steady, SimConfig(mode=mode, sponge_rate=0.0,
                                            sponge_width=0.0), mms.forcing)
    dt = 5.0 / n
    stepper = _Stepper(ws, dt)
    q, u = mms.exact(0.0)
    for step in range(n // 5):
        ws.t = step * dt
        f = ws.rhs(q, u)
        ws.t = (step + 1) * dt
        q, u = stepper.advance(q, u, f)
    q_m, u_m = mms.exact(1.0)
    return float(np.max(np.abs(q - q_m))), float(np.max(np.abs(u - u_m)))


def _mms_orders(gamma, mode, scale=None):
    """Observed orders of the (q, u) errors, one row per pair of levels."""
    errs = np.array([_mms_errors(gamma, mode, n, scale) for n in MMS_LEVELS])
    return np.log2(errs[:-1] / errs[1:])


@pytest.mark.parametrize("gamma, mode", [(2.0, "nonlinear"),
                                         (1.0, "nonlinear"),
                                         (2.0, "linear")])
def test_manufactured_solution_converges_at_second_order(gamma, mode):
    # the full IMEX run (rhs, Heun stages, Crank-Nicolson, Poisson) against
    # a closed-form solution of the PDE, not against itself
    orders = _mms_orders(gamma, mode)
    assert np.all((orders >= 1.9) & (orders <= 2.1)), orders


@pytest.mark.parametrize("term", MMS_TERMS)
def test_manufactured_solution_sees_a_wrong_term(term):
    # a forcing 5 % off in one term stands for a scheme 5 % off in it
    orders = _mms_orders(2.0, "nonlinear", {term: 1.05})
    assert orders.min() < 1.9, orders
