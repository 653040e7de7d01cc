import math

import numpy as np
import pytest

from nsplab import (ParameterError, PerturbationState, SimConfig,
                    build_radial_grid, check_theorem_bound,
                    init_perturbation, integrate, radial_derivative,
                    run_simulation, sobolev_norm, vector_gradient_norm,
                    vector_sobolev_norm, weighted_l2_norm)
from nsplab import grids
from nsplab.energy import SeriesRecorder, TimeSeries
from nsplab.evolve import _Stepper, _Workspace
from nsplab.grids import RadialField

from oracles import radial_vector_h3_norm_dense, sample_norms, tendencies


def _zero_bundle(grid):
    z = grid.zeros()
    state = PerturbationState(q=z, u=z, phi=z, t=0.0)
    return state, (z.values,) * 4


def _scaled(state, tend, lam, grid):
    s = PerturbationState(q=RadialField(lam * state.q.values, grid),
                          u=RadialField(lam * state.u.values, grid),
                          phi=RadialField(lam * state.phi.values, grid),
                          t=state.t)
    return s, tuple(lam * f for f in tend)


@pytest.fixture(scope="module")
def bundle(shell16, steady_bump_gamma2, params_gamma2):
    state = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                              params_gamma2)
    tend = tendencies(state, steady_bump_gamma2, params_gamma2)
    return state, tend


def test_zero_state_energy(shell16):
    state, tend = _zero_bundle(shell16)
    assert sample_norms(state, tend)[:3] == (0.0, 0.0, 0.0)


def _grad_sobolev_sq(u, k):
    """Squared H^k norm of grad(u(r)*rhat), term by term from its channels
    u' and u/r (multiplicity two)."""
    grid = u.grid
    over_r = RadialField(u.values / grid.r, grid)
    total = 0.0
    for j in range(k + 1):
        du = radial_derivative(u, j + 1)
        dv = over_r if j == 0 else radial_derivative(over_r, j)
        total += weighted_l2_norm(du) ** 2 + 2.0 * weighted_l2_norm(dv) ** 2
    return total


def test_components_sum_to_total(bundle):
    state, tend = bundle
    q_t, u_t, phi_t, q_tt = map(state.q.grid.field, tend)
    parts = [vector_sobolev_norm(state.u, 3), sobolev_norm(state.q, 2),
             math.sqrt(sobolev_norm(q_t, 1) ** 2
                       + vector_sobolev_norm(u_t, 1) ** 2),
             weighted_l2_norm(radial_derivative(state.phi, 1)),
             weighted_l2_norm(radial_derivative(phi_t, 1))]
    assert all(p > 0.0 for p in parts)
    total = parts[0]
    for p in parts[1:]:
        total += p
    e, d, d_no = sample_norms(state, tend)[:3]
    assert e == total

    qtt = weighted_l2_norm(q_tt)
    d_parts = [math.sqrt(_grad_sobolev_sq(state.u, 2)),
               math.sqrt(_grad_sobolev_sq(u_t, 1)),
               sobolev_norm(state.q, 2), sobolev_norm(q_t, 1)]
    assert all(p > 0.0 for p in d_parts) and qtt > 0.0
    assert d == pytest.approx(sum(d_parts) + qtt, rel=1e-14)
    assert d_no == pytest.approx(sum(d_parts), rel=1e-14)


def test_sample_computes_each_derivative_once(shell16, bundle,
                                              steady_bump_gamma2,
                                              params_gamma2, monkeypatch):
    state, tend = bundle
    applied = []
    real = grids.differentiate

    def counted(grid, values, order):
        out = real(grid, values, order)
        applied.append((order, np.atleast_2d(values), np.atleast_2d(out)))
        return out

    monkeypatch.setattr(grids, "differentiate", counted)
    monkeypatch.setattr("nsplab.energy.differentiate", counted)
    rho_s = steady_bump_gamma2.rho_tilde.values
    recorder = SeriesRecorder(shell16, rho_s,
                              params_gamma2.enthalpy_weight(rho_s), 1.0, 0.1)
    recorder.add(state.t, state.q.values, state.u.values, state.phi.values,
                 tend)
    monkeypatch.undo()
    # one stacked apply per order
    assert len(applied) <= 3
    rows = [(order, row, d) for order, values, out in applied
            for row, d in zip(values, out)]
    # the 14 derivatives a sample needs, phi' twice (E and E_basic): each
    # is one applied row, equal to the single-field derivative
    r = shell16.r
    u, q = state.u.values, state.q.values
    q_t, u_t, phi_t, _ = tend
    wanted = [(1, u), (1, u / r), (1, u_t), (1, u_t / r), (1, q),
              (1, q_t), (1, state.phi.values),
              (1, phi_t), (1, state.phi.values),
              (2, u), (2, u / r), (2, u_t), (2, q), (3, u)]
    assert len(rows) == 13
    for order, f in wanted:
        hits = [d for o, row, d in rows
                if o == order and np.array_equal(row, f)]
        assert len(hits) == 1
        expected = radial_derivative(shell16.field(f), order).values
        assert np.array_equal(hits[0], expected)
    assert recorder.columns["grad_u_sq"] == [
        vector_gradient_norm(state.u) ** 2]


def test_homogeneity_exact(shell16, bundle):
    state, tend = bundle
    e1, d1, d1n = sample_norms(state, tend)[:3]
    for lam in (2.0, 3.0):
        e2, d2, d2n = sample_norms(*_scaled(state, tend, lam, shell16))[:3]
        assert e2 == pytest.approx(lam * e1, rel=1e-12)
        assert d2 == pytest.approx(lam * d1, rel=1e-12)
        assert d2n == pytest.approx(lam * d1n, rel=1e-12)


def test_d_no_qtt_bounded_by_d(shell16, bundle):
    state, tend = bundle
    d, d_no = sample_norms(state, tend)[1:3]
    assert d_no <= d


def test_u_h3_against_dense_oracle():
    g = build_radial_grid(1.0, 16.0, 8000)
    s = g.r - 1.0
    u_funcs = {
        0: lambda r: np.exp(-((r - 1.0) ** 2)) * (r - 1.0) ** 2,
        1: lambda r: np.exp(-((r - 1.0) ** 2))
        * (2 * (r - 1.0) - 2 * (r - 1.0) ** 3),
        2: lambda r: np.exp(-((r - 1.0) ** 2))
        * (2 - 10 * (r - 1.0) ** 2 + 4 * (r - 1.0) ** 4),
        3: lambda r: np.exp(-((r - 1.0) ** 2))
        * (-24 * (r - 1.0) + 36 * (r - 1.0) ** 3 - 8 * (r - 1.0) ** 5),
    }
    from nsplab import vector_sobolev_norm
    ours = vector_sobolev_norm(g.field(u_funcs[0](g.r)), 3)
    oracle = radial_vector_h3_norm_dense(u_funcs, 1.0, 16.0)
    assert ours == pytest.approx(oracle, rel=1e-4)


def test_mass_examples(shell12):
    # the mass column is the shell-volume integral of q
    assert integrate(shell12.zeros()) == 0.0
    q = shell12.field(1.0 / shell12.r**2)
    assert integrate(q) == pytest.approx(4.0 * math.pi, rel=1e-4)


def test_qtt_consistent_with_time_differences(shell16, steady_bump_gamma2,
                                              params_gamma2):
    # centered second difference of q along a finely substepped trajectory
    # converges at O(dt^2) to the equation-evaluated q_tt
    ws = _Workspace(SimConfig(params=params_gamma2, grid=shell16,
                              steady=steady_bump_gamma2, sponge_rate=0.0))
    state = init_perturbation("standard", 1e-3, shell16, steady_bump_gamma2,
                              params_gamma2)
    cs = float(np.max(params_gamma2.sound_speed(
        steady_bump_gamma2.rho_tilde.values)))

    def advance(st, horizon, n_sub):
        stepper = _Stepper(ws, horizon / n_sub)
        q, u, phi = st.q.values, st.u.values, st.phi.values
        for _ in range(n_sub):
            q, u, phi = stepper.advance(q, u, phi, ws.rhs(q, u, phi))
        return PerturbationState(q=shell16.field(q), u=shell16.field(u),
                                 phi=shell16.field(phi), t=st.t + horizon)

    diffs = []
    for dt in (0.4 * shell16.min_spacing / cs,
               0.2 * shell16.min_spacing / cs,
               0.1 * shell16.min_spacing / cs):
        s1 = advance(state, dt, 16)
        s2 = advance(s1, dt, 16)
        tend_mid = tendencies(s1, steady_bump_gamma2, params_gamma2)
        fd = (s2.q.values - 2.0 * s1.q.values + state.q.values) / dt**2
        q_tt = tend_mid[3]
        scale = np.max(np.abs(q_tt))
        diffs.append(np.max(np.abs(fd - q_tt)) / scale)
    # fast near-grid-scale components keep the observed rate below the clean
    # O(dt^2) of the smooth part; require monotone convergence and smallness
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[0] / diffs[2] > 3.0
    assert diffs[2] < 1e-2


def _synthetic_series(decay=True):
    t = np.linspace(0.0, 5.0, 201)
    e = np.exp(-t) if decay else np.exp(t)
    zero = np.zeros_like(t)
    columns = {"t": t, "E": e, "D": e, "D_no_qtt": e, "mass": zero,
               "E_basic": e, "identity_residual": zero,
               "min_density": np.ones_like(t), "grad_u_sq": e**2}
    return TimeSeries(columns=columns, c_visc=1.0, dt=0.025)


def test_theorem_bound_synthetic_decay_passes():
    series = _synthetic_series(decay=True)
    verdict = check_theorem_bound(series, margin=1.0, c_fit=1.9)
    assert verdict.passed
    assert verdict.sup_ratio_E == 1.0
    assert verdict.sup_ratio_quadratic <= 1.0


def test_theorem_bound_synthetic_growth_fails():
    series = _synthetic_series(decay=False)
    verdict = check_theorem_bound(series, margin=10.0, c_fit=1.0)
    assert not verdict.passed
    assert verdict.sup_ratio_E > 10.0


def test_theorem_bound_huge_margin_does_not_overflow():
    # margin**2 raises OverflowError for a finite margin above ~1.3e154
    series = _synthetic_series(decay=False)
    verdict = check_theorem_bound(series, margin=1e200, c_fit=1.0)
    assert verdict.passed
    assert verdict.margin == 1e200


def test_theorem_bound_rejects_zero_initial_energy(shell16):
    columns = {name: np.zeros(1) for name in (
        "t", "E", "D", "D_no_qtt", "mass", "E_basic", "identity_residual",
        "grad_u_sq")}
    columns["min_density"] = np.ones(1)
    series = TimeSeries(columns=columns, c_visc=1.0, dt=0.1)
    with pytest.raises(ParameterError):
        check_theorem_bound(series, margin=2.0, c_fit=1.0)


def test_identity_residual_needs_three_samples(shell16, steady_bump_gamma2,
                                               params_gamma2):
    # two samples have no centered stencil: no residual, no fit, no kappa
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2, delta=1e-3, t_end=0.2,
                    output_stride=10**6)
    series = run_simulation(cfg)
    assert series.column("t").size == 2
    assert np.all(series.column("identity_residual") == 0.0)
    assert series.verdict.c_fit == series.c_visc
    assert series.remainder_kappa is None


def test_identity_residual_zero_perturbation(shell16, steady_bump_gamma2,
                                             params_gamma2):
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2, delta=0.0, t_end=0.2,
                    output_stride=5)
    series = run_simulation(cfg)
    assert np.max(np.abs(series.column("identity_residual")[1:-1])) == 0.0
    assert series.verdict is None and series.remainder_kappa is None


def test_identity_residual_reads_the_recorded_column(shell16,
                                                     steady_bump_gamma2,
                                                     params_gamma2):
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2, delta=1e-3, t_end=0.2,
                    output_stride=5)
    series = run_simulation(cfg)
    resid = series.column("identity_residual")
    assert resid[0] == resid[-1] == 0.0
    assert np.any(resid[1:-1] != 0.0)
    # the three-point centered dE_basic/dt on the non-uniform sample times
    t, eb = series.column("t"), series.column("E_basic")
    for i in range(1, len(t) - 1):
        hm, hp = t[i] - t[i - 1], t[i + 1] - t[i]
        dedt = (hm / (hp * (hm + hp)) * eb[i + 1]
                - hp / (hm * (hm + hp)) * eb[i - 1]
                + (hp - hm) / (hm * hp) * eb[i])
        assert resid[i] == pytest.approx(
            dedt + series.c_visc * series.column("grad_u_sq")[i], rel=1e-9,
            abs=1e-12 * abs(dedt))


def test_remainder_constant_scales_with_amplitude(params_gamma2,
                                                  steady_bump_gamma2,
                                                  shell16):
    # the zero-order remainder per unit D^2 grows ~linearly with amplitude
    # once it clears the (amplitude-quadratic) discretization floor, which at
    # this resolution happens around delta ~ 3e-2
    kappa_delta = {}
    for delta in (3e-2, 1e-1):
        cfg = SimConfig(params=params_gamma2, grid=shell16,
                        steady=steady_bump_gamma2, delta=delta, t_end=1.0,
                        output_stride=1, mode="nonlinear", sponge_rate=0.0)
        series = run_simulation(cfg)
        kappa_delta[delta] = series.remainder_kappa * delta
    ratio = kappa_delta[1e-1] / kappa_delta[3e-2]
    assert 1.6 < ratio < 23.0  # between linear/2 and quadratic*2 in delta


def test_measured_viscous_constant_matches_coefficient(
        params_gamma2, steady_bump_gamma2, shell16):
    cfg = SimConfig(params=params_gamma2, grid=shell16,
                    steady=steady_bump_gamma2, delta=1e-4, t_end=1.0,
                    output_stride=5, mode="linear", sponge_rate=0.0)
    series = run_simulation(cfg)
    c = series.verdict.c_fit
    assert c == pytest.approx(params_gamma2.longitudinal_viscosity, rel=0.05)
