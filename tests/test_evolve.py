import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsplab import (FluidParams, ParameterError, PerturbationState,
                    SimConfig, SimulationAbort, VacuumError,
                    build_radial_grid, compute_rhs,
                    init_perturbation, make_profile, run_simulation,
                    solve_steady_monotone, step_imex, weighted_l2_norm)
from nsplab.energy import basic_energy, energy_E
from nsplab.evolve import (_Stepper, _viscous_operator, _Workspace,
                           read_checkpoint, write_checkpoint)
from nsplab.grids import RadialField


def cfl_dt(params, steady, grid, factor=0.4):
    cs = float(np.max(params.sound_speed(steady.rho_tilde.values)))
    return factor * grid.min_spacing / cs


# ------------------------------------------------------------ initial data

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
        tend = compute_rhs(st, steady_bump_gamma2, params_gamma2)
        e = energy_E(st, tend)
        assert e == pytest.approx(delta, rel=1e-9)
    # doubling delta doubles E(0) (well within the 2% near-linearity budget)
    st1 = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                            params_gamma2)
    st2 = init_perturbation("standard", 2e-3, shell16, steady_bump_gamma2,
                            params_gamma2)
    e1 = energy_E(st1, compute_rhs(st1, steady_bump_gamma2, params_gamma2))
    e2 = energy_E(st2, compute_rhs(st2, steady_bump_gamma2, params_gamma2))
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
    tend = compute_rhs(st, steady_bump_gamma2, params_gamma2)
    for f in (tend.q_t, tend.u_t, tend.phi_t, tend.q_tt):
        assert np.max(np.abs(f.values)) == 0.0


@settings(derandomize=True, max_examples=25, deadline=None)
@given(gamma=st.floats(1.0, 2.0), amplitude=st.floats(0.0, 1.0),
       n_cells=st.integers(64, 400), stretch=st.floats(0.0, 3.0))
def test_zero_perturbation_tendencies_vanish(gamma, amplitude, n_cells,
                                             stretch):
    # the steady state is a discrete equilibrium for every admissible setup
    g = build_radial_grid(1.0, 16.0, n_cells, stretch)
    steady = solve_steady_monotone(
        gamma, make_profile("admissible_bump", 1.0, amplitude, g), g)
    params = FluidParams(gamma=gamma, mu=0.5, lambda_=0.0)
    zero = PerturbationState(q=g.zeros(), u=g.zeros(), phi=g.zeros(), t=0.0)
    tend = compute_rhs(zero, steady, params)
    for f in (tend.q_t, tend.u_t, tend.phi_t, tend.q_tt):
        assert np.max(np.abs(f.values)) <= 1e-13


def test_continuity_matches_analytic_divergence(params_gamma2):
    errs = []
    for n in (400, 800):
        g = build_radial_grid(1.0, 16.0, n)
        profile = make_profile("constant", 1.0, 0.0, g)
        steady = solve_steady_monotone(2.0, profile, g)
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
        tend = compute_rhs(state, steady, params_gamma2)
        errs.append(np.max(np.abs(tend.q_t.values - q_t_exact)))
    assert errs[0] / errs[1] > 3.0


@pytest.fixture(scope="module", params=[0.0, 3.0], ids=["uniform", "stretched"])
def flux_workspace(request, params_gamma2):
    g = build_radial_grid(1.0, 16.0, 64, request.param)
    steady = solve_steady_monotone(2.0, make_profile("constant", 1.0, 0.0, g),
                                   g)
    return _Workspace(SimConfig(params=params_gamma2, grid=g, steady=steady))


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
        t1 = compute_rhs(st1, steady_bump_gamma2, params_gamma2)
        t2 = compute_rhs(st2, steady_bump_gamma2, params_gamma2)
        defect = (np.max(np.abs(t2.u_t.values - 2 * t1.u_t.values))
                  + np.max(np.abs(t2.q_t.values - 2 * t1.q_t.values)))
        defects.append(defect)
    slope = np.polyfit(np.log10(deltas), np.log10(defects), 1)[0]
    assert 1.8 < slope < 2.2


# ------------------------------------------------------------------ steps

def test_zero_dt_is_identity(shell16, steady_bump_gamma2, params_gamma2):
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2)
    st = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                           params_gamma2)
    out = step_imex(st, 0.0, cfg)
    assert out is st


def test_step_global_second_order(shell16, steady_bump_gamma2, params_gamma2):
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2, sponge_rate=0.0)
    state = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                              params_gamma2)
    dt0 = cfl_dt(params_gamma2, steady_bump_gamma2, shell16)
    horizon = 16 * dt0

    def advance(dt):
        s = state
        for _ in range(round(horizon / dt)):
            s = step_imex(s, dt, cfg)
        return s

    ref = advance(dt0 / 8)
    errs = []
    for k in (1, 2):
        y = advance(dt0 / k)
        errs.append(np.max(np.abs(y.u.values - ref.u.values))
                    + np.max(np.abs(y.q.values - ref.q.values)))
    assert math.log2(errs[0] / errs[1]) > 1.9


def test_viscous_only_decay_second_order(params_gamma2):
    g = build_radial_grid(1.0, 16.0, 500)
    profile = make_profile("constant", 1.0, 0.0, g)
    steady = solve_steady_monotone(2.0, profile, g)
    cfg = SimConfig(params=params_gamma2, grid=g, steady=steady,
                    pressure=False, coupling=False, mode="linear",
                    sponge_rate=0.0)
    state = init_perturbation("velocity_only", 1e-3, g, steady, params_gamma2,
                              mode="linear", pressure=False, coupling=False)
    dt0 = cfl_dt(params_gamma2, steady, g)
    horizon = 16 * dt0

    def advance(dt):
        s = state
        for _ in range(round(horizon / dt)):
            s = step_imex(s, dt, cfg)
        return s

    ref = advance(dt0 / 8)
    errs = [np.max(np.abs(advance(dt0 / k).u.values - ref.u.values))
            for k in (1, 2)]
    assert math.log2(errs[0] / errs[1]) > 1.9
    # and it actually decays
    assert np.max(np.abs(ref.u.values)) < np.max(np.abs(state.u.values))


def test_acoustic_neutral_stability():
    params = FluidParams(gamma=1.0, mu=0.5, lambda_=0.0, c_star=1.0)
    g = build_radial_grid(1.0, 16.0, 400)
    profile = make_profile("constant", 1.0, 0.0, g)
    steady = solve_steady_monotone(1.0, profile, g)
    cfg = SimConfig(params=params, grid=g, steady=steady, mode="linear",
                    viscosity=False, coupling=False, sponge_rate=0.0)
    state = init_perturbation("standard", 1e-3, g, steady, params,
                              mode="linear", viscosity=False, coupling=False)
    dt = cfl_dt(params, steady, g, factor=0.25)

    def acoustic_energy(st):
        hp = params.enthalpy_weight(steady.rho_tilde.values)
        dens = steady.rho_tilde.values * st.u.values**2 + hp * st.q.values**2
        return 0.5 * float(np.dot(g.weights, dens))

    e0 = acoustic_energy(state)
    s = state
    for _ in range(1000):
        s = step_imex(s, dt, cfg)
    drift = abs(acoustic_energy(s) - e0) / e0
    assert drift < 0.01


@pytest.mark.parametrize("n_cells,stretch", [(200, 0.0), (2000, 0.0),
                                             (200, 0.5), (2000, 3.0)])
def test_viscous_rows_match_direct_stencil(n_cells, stretch):
    # reference: the d_r(div u) stencil assembled on its own
    g = build_radial_grid(1.0, 16.0, n_cells, stretch)
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
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2)
    st = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                           params_gamma2)
    q = st.q.values.copy()
    q[shell16.n_nodes // 3] = np.nan
    ws = _Workspace(cfg)
    stepper = _Stepper(cfg, ws, cfl_dt(params_gamma2, steady_bump_gamma2,
                                       shell16))
    with pytest.raises(VacuumError):
        stepper.advance(q, st.u.values, st.phi.values)


# ------------------------------------------------------------------- runs

def test_run_zero_delta_stays_zero(shell16, steady_bump_gamma2,
                                   params_gamma2):
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2, delta=0.0, t_end=0.5,
                    output_stride=20)
    series = run_simulation(cfg)
    assert max(s.E for s in series.samples) == 0.0
    assert max(abs(s.mass) for s in series.samples) == 0.0
    assert series.verdict is None


def test_run_mass_conservation_with_sponge(shell16, steady_bump_gamma2,
                                           params_gamma2):
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2, delta=1e-3, t_end=2.0,
                    output_stride=10)
    series = run_simulation(cfg)
    st0 = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                            params_gamma2)
    bound = 1e-10 * weighted_l2_norm(st0.q)
    m0 = series.samples[0].mass
    assert max(abs(s.mass - m0) for s in series.samples) <= bound


def test_run_is_deterministic(params_gamma2):
    g = build_radial_grid(1.0, 16.0, 200)
    profile = make_profile("admissible_bump", 1.0, 0.5, g)
    steady = solve_steady_monotone(2.0, profile, g)
    cfg = SimConfig(params=params_gamma2, grid=g, steady=steady, delta=1e-3,
                    t_end=0.5, output_stride=10)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    for sa, sb in zip(a.samples, b.samples):
        assert sa == sb


def test_cfl_validation(shell16, steady_bump_gamma2, params_gamma2):
    big_dt = 10.0 * cfl_dt(params_gamma2, steady_bump_gamma2, shell16)
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2, delta=1e-3, t_end=1.0,
                    dt=big_dt)
    with pytest.raises(ParameterError):
        run_simulation(cfg)


def test_checkpoint_roundtrip(tmp_path, shell16, steady_bump_gamma2,
                              params_gamma2):
    st = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                           params_gamma2)
    st = PerturbationState(
        q=st.q, u=st.u, phi=st.phi, t=1.25)
    path = tmp_path / "state_00000001.txt"
    write_checkpoint(st, path)
    back = read_checkpoint(path, shell16)
    assert back.t == st.t
    assert np.array_equal(back.q.values, st.q.values)
    assert np.array_equal(back.u.values, st.u.values)
    assert np.array_equal(back.phi.values, st.phi.values)


def test_run_abort_while_building_initial_data(shell16, steady_bump_gamma2,
                                               params_gamma2):
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2, delta=1e7, t_end=0.5)
    with pytest.raises(SimulationAbort) as info:
        run_simulation(cfg)
    assert info.value.t_fail == 0.0
    assert info.value.series is None
