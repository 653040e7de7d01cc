"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from nsplab import (RadialGrid, SimConfig, check_subsuper,
                    init_perturbation, make_profile, profile_supersolution,
                    run_simulation, solve_steady_monotone, weighted_l2_norm)
from nsplab import ineqlab as iq
from nsplab.cli import main
from nsplab.elliptic import laplacian
from nsplab.steady import BackgroundProfile
from nsplab.grids import RadialField

from oracles import STEADY, gas, newton_steady

PARAMS = gas(2.0)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ----------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def grid2000():
    return RadialGrid(1.0, 16.0, 2000)


@pytest.fixture(scope="module")
def stability_runs(grid2000):
    """Criterion-6 pair: R_max = 16 and the doubled truncation at equal
    spacing, both gamma = 2, delta = 1e-3, t_end = 10, sponge on."""
    out = {}
    for label, r_max, n in (("r16", 16.0, 2000), ("r32", 32.0, 4000)):
        grid = grid2000 if label == "r16" else RadialGrid(1.0, r_max, n)
        profile = make_profile("admissible_bump", PARAMS, 0.5, grid)
        steady = solve_steady_monotone(profile, **STEADY)
        cfg = SimConfig(delta=1e-3, t_end=10.0, output_stride=50)
        t0 = time.perf_counter()
        series = run_simulation(steady, cfg)
        wall = time.perf_counter() - t0
        q0 = init_perturbation("standard", 1e-3, grid, steady, PARAMS).q
        out[label] = dict(series=series, wall=wall, steady=steady, grid=grid,
                          q0_norm=weighted_l2_norm(q0))
    return out


def test_criterion_01_steady_bounds(grid2000):
    worst = ""
    ok = True
    for gamma in (1.0, 1.5, 2.0):
        for amplitude in (0.0, 0.5, 1.0):
            t0 = time.perf_counter()
            profile = make_profile("admissible_bump", gas(gamma), amplitude,
                                   grid2000)
            st = solve_steady_monotone(profile, tol=1e-10, max_iter=200)
            wall = time.perf_counter() - t0
            rho = st.rho_tilde.values
            lo = float(np.min(rho - (1.0 - 1e-8)))
            hi = float(np.max(rho - (1.0 + 1.0 / grid2000.r + 1e-8)))
            case_ok = (lo >= 0.0 and hi <= 0.0 and wall < 5.0
                       and max(st.iterations_super, st.iterations_sub) <= 200)
            ok = ok and case_ok
            if not case_ok:
                worst = f"gamma={gamma} amp={amplitude} lo={lo:.2e} hi={hi:.2e}"
    _report(1, ok, worst or "rho within [c*, c* + 1/r] for all 9 cases, "
                            "each solve < 5 s")


def test_criterion_02_subsuper_certificates(grid2000):
    def saturating(gamma):
        return BackgroundProfile("admissible_bump", gas(gamma), 1.0,
                                 RadialField(1.0 + 1.0 / grid2000.r, grid2000))
    bump2, bump1 = saturating(2.0), saturating(1.0)
    cert2 = check_subsuper(profile_supersolution(bump2), "super", bump2,
                           tol=1e-10)
    resid2 = max(abs(cert2.max_residual), abs(cert2.min_residual))
    cert4 = check_subsuper(profile_supersolution(bump1), "super", bump1,
                           tol=1e-8)
    ok = (cert2.passed and resid2 < 1e-10
          and cert2.boundary_normal_derivative > 0.0
          and abs(cert2.boundary_normal_derivative - 2.0) < 1e-2
          and cert4.passed and cert4.max_residual <= 1e-8)
    _report(2, ok, f"gamma=2 equality residual {resid2:.2e} < 1e-10, "
                   f"boundary derivative {cert2.boundary_normal_derivative:.4f}"
                   f" ~ 2/R^2; gamma=1 residual {cert4.max_residual:.2e} <= 1e-8")


def test_criterion_03_newton_oracle_agreement(grid2000):
    profile = make_profile("admissible_bump", PARAMS, 0.5, grid2000)
    st = solve_steady_monotone(profile, tol=1e-10, max_iter=200)
    phi_newton = newton_steady(profile)
    gap = float(np.max(np.abs(st.phi_tilde.values - phi_newton)))
    _report(3, gap < 1e-9,
            f"monotone vs damped-Newton max gap {gap:.2e} < 1e-9")


def test_criterion_04_spatial_convergence():
    t0 = time.perf_counter()
    phis = {}
    for n in (500, 1000, 2000):
        g = RadialGrid(1.0, 16.0, n)
        profile = make_profile("admissible_bump", PARAMS, 0.5, g)
        phis[n] = solve_steady_monotone(profile, **STEADY).phi_tilde.values
    e1 = np.max(np.abs(phis[500] - phis[1000][::2]))
    e2 = np.max(np.abs(phis[1000] - phis[2000][::2]))
    steady_ratio = e1 / e2

    errs = []
    for n in (500, 1000, 2000):
        g = RadialGrid(1.0, 16.0, n)
        r = g.r
        phi_m = np.exp(-((r - 1.0) ** 2))
        q = (4.0 * (r - 1.0) ** 2 - 2.0) * phi_m \
            + 2.0 / r * (-2.0 * (r - 1.0) * phi_m)
        errs.append(np.max(np.abs(laplacian(g).solve_refined(q) - phi_m)))
    p_ratios = (errs[0] / errs[1], errs[1] / errs[2])
    wall = time.perf_counter() - t0
    ok = (3.5 < steady_ratio < 4.5
          and all(3.5 < r < 4.5 for r in p_ratios) and wall < 30.0)
    _report(4, ok, f"error drop per doubling: steady {steady_ratio:.3f}, "
                   f"poisson {p_ratios[0]:.3f}/{p_ratios[1]:.3f}, "
                   f"all in [3.5, 4.5]; wall {wall:.1f}s < 30s")


def test_criterion_05_equilibrium_preservation(grid2000):
    profile = make_profile("admissible_bump", PARAMS, 0.5, grid2000)
    steady = solve_steady_monotone(profile, **STEADY)
    cfg = SimConfig(delta=0.0, t_end=10.0, output_stride=100)
    series = run_simulation(steady, cfg)
    emax = float(np.max(series.column("E")))
    _report(5, emax < 1e-9,
            f"delta=0 over t in [0,10]: max E(t) = {emax:.2e} < 1e-9")


def test_criterion_06_stability_bound(stability_runs):
    v16 = stability_runs["r16"]["series"].verdict
    v32 = stability_runs["r32"]["series"].verdict
    wall = stability_runs["r16"]["wall"] + stability_runs["r32"]["wall"]
    change_e = abs(v32.sup_ratio_E - v16.sup_ratio_E) / v16.sup_ratio_E
    change_q = (abs(v32.sup_ratio_quadratic - v16.sup_ratio_quadratic)
                / v16.sup_ratio_quadratic)
    ok = (v16.sup_ratio_E <= 2.0 and v16.sup_ratio_quadratic <= 4.0
          and v16.passed and change_e < 0.20 and change_q < 0.20
          and wall < 300.0)
    _report(6, ok, f"sup E/E0 = {v16.sup_ratio_E:.3f} <= 2, "
                   f"(E^2 + c int D^2)/E0^2 = {v16.sup_ratio_quadratic:.3f} <= 4 "
                   f"(c_fit = {v16.c_fit:.3f}); R_max doubling changes "
                   f"{change_e*100:.1f}% / {change_q*100:.1f}% < 20%; "
                   f"wall {wall:.0f}s < 300s")


def test_criterion_07_mass_conservation(stability_runs):
    series = stability_runs["r16"]["series"]
    bound = 1e-10 * stability_runs["r16"]["q0_norm"]
    mass = series.column("mass")
    drift = float(np.max(np.abs(mass - mass[0])))
    _report(7, drift <= bound,
            f"|mass(t) - mass(0)| = {drift:.2e} <= 1e-10 ||q0|| = {bound:.2e}")


def test_criterion_08_zero_order_energy_identity(grid2000):
    profile = make_profile("admissible_bump", PARAMS, 0.5, grid2000)
    steady = solve_steady_monotone(profile, **STEADY)
    cs = float(np.max(PARAMS.sound_speed(steady.rho_tilde.values)))
    dt = 0.1 * grid2000.min_spacing / cs
    cfg = SimConfig(delta=1e-3, t_end=2.0, dt=dt, output_stride=1,
                    mode="linear", sponge_rate=0.0)
    series = run_simulation(steady, cfg)
    resid = np.abs(series.column("identity_residual")[1:-1])
    scale = float(np.max(series.c_visc * series.column("grad_u_sq")[1:-1]))
    h = grid2000.min_spacing
    tol = 5.0 * (h**2 + series.dt**2) * scale
    linear_ok = bool(np.max(resid) <= tol)

    remainders = {}
    g1000 = RadialGrid(1.0, 16.0, 1000)
    profile_c = make_profile("admissible_bump", PARAMS, 0.5, g1000)
    steady_c = solve_steady_monotone(profile_c, **STEADY)
    for delta in (1e-4, 1e-3):
        cfg_nl = SimConfig(delta=delta, t_end=2.0, output_stride=1,
                           mode="nonlinear", sponge_rate=0.0)
        s = run_simulation(steady_c, cfg_nl)
        remainders[delta] = float(np.max(np.abs(
            s.column("identity_residual")[1:-1])))
    slope = math.log10(remainders[1e-3] / remainders[1e-4])
    ok = linear_ok and slope >= 1.5
    _report(8, ok, f"linearized residual {np.max(resid):.2e} <= "
                   f"5(h^2+dt^2)-scaled tol {tol:.2e}; nonlinear remainder "
                   f"log-log slope {slope:.2f} >= 1.5")


@pytest.fixture(scope="module")
def spherical_grids():
    return (iq.SphericalGrid(1.0, 16.0, 32, 16, 32),
            iq.SphericalGrid(1.0, 16.0, 64, 32, 64))


def test_criterion_09_boundary_pairing_constant_one(spherical_grids):
    coarse, fine = spherical_grids
    t0 = time.perf_counter()
    rep_c = iq.boundary_pairing_report(iq.tangent_ensemble(coarse, 100,
                                                           seed=0), 20)
    rep_f = iq.boundary_pairing_report(iq.tangent_ensemble(fine, 100,
                                                           seed=0), 20)
    wall = time.perf_counter() - t0
    ok = (rep_c.max_ratio <= 1.05 and rep_f.max_ratio <= 1.02
          and wall < 120.0)
    _report(9, ok, f"max |pairing|/(|grad v||grad f|) = {rep_c.max_ratio:.4f}"
                   f" <= 1.05 at 32x16x32, {rep_f.max_ratio:.4f} <= 1.02 at "
                   f"64x32x64 over 100x20 pairs; wall {wall:.0f}s < 120s")


def test_criterion_10_div_curl_ensemble(spherical_grids):
    coarse, fine = spherical_grids
    rep_c = iq.div_curl_report(iq.tangent_ensemble(coarse, 100, seed=0))
    rep_f = iq.div_curl_report(iq.tangent_ensemble(fine, 100, seed=0))
    change = abs(rep_f.max_ratio - rep_c.max_ratio) / rep_c.max_ratio
    ok = (math.isfinite(rep_c.max_ratio) and math.isfinite(rep_f.max_ratio)
          and change < 0.25)
    _report(10, ok, f"ensemble max ||grad v||/(||div v||+||curl v||) = "
                    f"{rep_c.max_ratio:.3f}, refinement change "
                    f"{change*100:.1f}% < 25%")


def test_criterion_11_trace_scaling():
    assert iq.TRACE_SPREAD_TOL == 0.30  # the criterion's bound
    grid = iq.SphericalGrid(1.0, 4.0, 32, 16, 32)
    rep = iq.verify_trace_scaling(grid, seed=0)
    spread = rep.details["relative_spread"]
    _report(11, rep.passed,
            f"boundary-trace ratio spread across R in {{1,2,4}} = "
            f"{spread*100:.2f}% < {iq.TRACE_SPREAD_TOL*100:.0f}%")


def test_criterion_12_poisson_regularity(grid2000):
    rep_c = iq.poisson_regularity_report(grid2000, 100, seed=0)
    fine = RadialGrid(1.0, 16.0, 4000)
    rep_f = iq.poisson_regularity_report(fine, 100, seed=0)
    change = abs(rep_f.max_ratio - rep_c.max_ratio) / rep_c.max_ratio
    errs = []
    for n in (500, 1000, 2000):
        g = RadialGrid(1.0, 16.0, n)
        r = g.r
        phi_m = np.exp(-((r - 1.0) ** 2))
        q = (4.0 * (r - 1.0) ** 2 - 2.0) * phi_m \
            + 2.0 / r * (-2.0 * (r - 1.0) * phi_m)
        errs.append(np.max(np.abs(laplacian(g).solve_refined(q) - phi_m)))
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    ok = (change < 0.20 and all(3.5 < r < 4.5 for r in ratios))
    _report(12, ok, f"C_emp = {rep_c.max_ratio:.4f}, refinement change "
                    f"{change*100:.2f}% < 20%; manufactured recovery drops "
                    f"{ratios[0]:.2f}/{ratios[1]:.2f} per doubling")


ACCEPT_CFG = """
[fluid]
gamma = 2.0
mu = 0.5
lambda = 0.0
c_star = 1.0

[domain]
r_inner = 1.0
r_outer = 16.0
n_cells = 320

[steady]
amplitude = 0.5

[evolve]
delta = 1e-3
t_end = 0.5
output_stride = 10

[sweep]
delta = 1e-4, 1e-3

[output]
seed = 11
"""


def test_criterion_13_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(ACCEPT_CFG, encoding="utf-8")
    sim_bytes = []
    sweep_bytes = []
    for name in ("a", "b"):
        out = tmp_path / f"sim_{name}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        sim_bytes.append((out / "series.csv").read_bytes())
        out = tmp_path / f"sweep_{name}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        sweep_bytes.append((out / "sweep.csv").read_bytes())
    ok = sim_bytes[0] == sim_bytes[1] and sweep_bytes[0] == sweep_bytes[1]
    _report(13, ok, "reruns reproduce series.csv and sweep.csv byte-for-byte")
