import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsplab import (EvaluationDomainError, IterationError, MonotonicityError,
                    ParameterError, RadialGrid,
                    check_subsuper, make_profile, profile_supersolution,
                    solve_steady_monotone, steady_regularity_report,
                    subsolution_phi, weighted_l2_norm)
from nsplab.elliptic import laplacian
from nsplab.grids import GAMMA_GAP_ABOVE_ONE, RadialField, differentiate
from nsplab.steady import BackgroundProfile, compatibility_residual

from oracles import (STEADY, gas, hessian_norm_radial, newton_steady,
                     vector_hessian_norm)


def exact_saturating_profile(grid, gamma):
    """b = 1 + 1/r everywhere (the bound of the admissible class at
    c_star = 1)."""
    return BackgroundProfile("admissible_bump", gas(gamma), 1.0,
                             RadialField(1.0 + 1.0 / grid.r, grid))


def closed_form(grid, gamma):
    """The closed-form supersolution of the gas, as a bump background
    brackets it."""
    return profile_supersolution(exact_saturating_profile(grid, gamma))


# ---------------------------------------------------------------- profiles

def test_constant_profile(shell16):
    p = make_profile("constant", gas(2.0), 0.0, shell16)
    assert np.all(p.values.values == 1.0)


def test_bump_profile_bounds(shell16):
    p = make_profile("admissible_bump", gas(2.0), 1.0, shell16)
    b = p.values.values
    assert np.all(b >= 1.0 - 1e-15)
    assert np.all(b <= 1.0 + 1.0 / shell16.r + 1e-15)
    assert b[0] == pytest.approx(2.0, abs=1e-12)  # saturates at the wall
    assert abs(b[-1] - 1.0) < 1e-15  # returns to c_star near the truncation


def test_bump_amplitude_validation(shell16):
    with pytest.raises(ParameterError):
        make_profile("admissible_bump", gas(2.0), 1.5, shell16)
    with pytest.raises(ParameterError):
        make_profile("admissible_bump", gas(2.0), -0.1, shell16)
    with pytest.raises(ParameterError):
        make_profile("no_such_kind", gas(2.0), 0.5, shell16)


def test_envelope_profile_bounds(shell16):
    p = make_profile("general_gamma_envelope", gas(3.0), 1.0, shell16,
                     envelope_c0=1.0, envelope_eps=0.5)
    ceiling = p.fluid.density(profile_supersolution(p).values)
    assert np.all(p.values.values <= ceiling + 1e-12)
    assert np.all(p.values.values >= 1.0 - 1e-12)


@pytest.mark.parametrize("c0", [math.inf, math.nan, 0.0, -1.0])
def test_envelope_c0_must_be_finite_and_positive(shell16, c0):
    # inf and nan reached the profile values unchecked: numpy warned, and the
    # error named no key ("field values must be finite")
    with pytest.raises(ParameterError,
                       match=f"envelope_c0 must be finite and > 0, got {c0}"):
        make_profile("general_gamma_envelope", gas(3.0), 1.0, shell16,
                     envelope_c0=c0)


# ------------------------------------------------------- explicit brackets

def test_subsolution_is_zero(shell16):
    assert np.all(subsolution_phi(shell16).values == 0.0)


def test_supersolution_gamma2_values(shell16):
    phi = closed_form(shell16, 2.0)
    assert phi.values[0] == pytest.approx(2.0, rel=1e-14)
    # 2/r at the outer edge
    assert phi.values[-1] == pytest.approx(2.0 / 16.0, rel=1e-14)


def test_supersolution_gamma1_value(shell16):
    phi = closed_form(shell16, 1.0)
    assert phi.values[0] == pytest.approx(math.log(2.0), rel=1e-14)


def test_supersolution_gamma_below_one_rejected(shell16):
    with pytest.raises(ParameterError):  # the gas itself refuses gamma < 1
        closed_form(shell16, 0.5)
    with pytest.raises(ParameterError):
        closed_form(shell16, 3.0)  # explicit form needs the envelope


def test_profile_supersolution_picks_the_bracket(shell16):
    bump = make_profile("admissible_bump", gas(1.5), 0.5, shell16)
    # gamma/(gamma-1) (c* + 1/r)^(gamma-1) - c1 with c1 = gamma/(gamma-1) c*
    assert np.array_equal(profile_supersolution(bump).values,
                          3.0 * (1.0 + 1.0 / shell16.r) ** 0.5 - 3.0)
    env = make_profile("general_gamma_envelope", gas(3.0), 0.8, shell16,
                       envelope_c0=0.5, envelope_eps=0.4)
    assert np.array_equal(profile_supersolution(env).values,
                          0.5 * shell16.r ** -0.4)
    with pytest.raises(ParameterError, match="requires gamma > 1"):
        make_profile("general_gamma_envelope", gas(1.0), 0.8, shell16)
    with pytest.raises(ParameterError, match="requires gamma > 1"):
        profile_supersolution(dataclasses.replace(env, fluid=gas(1.0)))
    # gamma > 2 has no closed-form bracket for the bump class
    bump3 = make_profile("admissible_bump", gas(3.0), 0.5, shell16)
    with pytest.raises(ParameterError):
        profile_supersolution(bump3)
    with pytest.raises(ParameterError):
        solve_steady_monotone(bump3, **STEADY)


def test_branch_limit_gamma_to_one(shell16):
    # gamma -> 1+ limit of the power-law bracket approaches the log bracket
    phi_1 = closed_form(shell16, 1.0).values
    phi_101 = closed_form(shell16, 1.01).values
    assert np.max(np.abs(phi_101 - phi_1)) / np.max(phi_1) < 0.05


def test_subsuper_certificates_gamma2_equality_case(shell16):
    profile = exact_saturating_profile(shell16, 2.0)
    cert = check_subsuper(closed_form(shell16, 2.0), "super",
                          profile, tol=1e-10)
    assert cert.passed
    assert abs(cert.max_residual) < 1e-10
    assert abs(cert.min_residual) < 1e-10
    assert cert.boundary_normal_derivative == pytest.approx(2.0, rel=1e-3)


def test_subsuper_certificates_gamma1(shell16):
    profile = exact_saturating_profile(shell16, 1.0)
    cert = check_subsuper(closed_form(shell16, 1.0), "super",
                          profile, tol=1e-8)
    assert cert.passed
    assert cert.max_residual <= 1e-8


def test_zero_is_not_super_for_nonflat_background(shell16):
    profile = make_profile("admissible_bump", gas(2.0), 0.5, shell16)
    cert = check_subsuper(subsolution_phi(shell16), "super", profile,
                          tol=1e-10)
    assert not cert.passed  # residual b - c_star > 0 somewhere


def test_zero_is_sub_for_admissible_background(shell16):
    profile = make_profile("admissible_bump", gas(2.0), 0.5, shell16)
    cert = check_subsuper(subsolution_phi(shell16), "sub", profile,
                          tol=1e-12)
    assert cert.passed


# ------------------------------------------------------------ density map

def test_density_normalization(shell16):
    zero = shell16.zeros().values
    for gamma in (1.0, 1.5, 2.0):
        rho = gas(gamma).density(zero)
        assert np.max(np.abs(rho - 1.0)) < 1e-14


def test_density_examples(shell16):
    two = np.full(shell16.n_nodes, 2.0)
    assert gas(2.0).density(two)[0] == pytest.approx(2.0)
    ln2 = np.full(shell16.n_nodes, math.log(2.0))
    assert gas(1.0).density(ln2)[0] == pytest.approx(2.0)


def test_density_domain_error(shell16):
    bad = np.full(shell16.n_nodes, -100.0)
    with pytest.raises(EvaluationDomainError):
        gas(2.0).density(bad)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gamma=st.floats(1.0, 3.0), c_star=st.floats(0.5, 2.0),
       phi=st.lists(st.floats(-0.25, 1.0), min_size=1, max_size=8),
       q_frac=st.lists(st.floats(-0.5, 1.0), min_size=1, max_size=8))
@example(gamma=1.0, c_star=1.3, phi=[-0.25, 0.0, 1.0], q_frac=[-0.5, 1.0])
@example(gamma=1.001, c_star=0.7, phi=[-0.25, 0.0, 1.0], q_frac=[-0.5, 1.0])
def test_the_two_directions_of_the_gas_law_agree(gamma, c_star, phi, q_frac):
    # F inverts the enthalpy relation: F(0) = c_star, F' = 1/h'(F), and F of
    # the enthalpy increment h(c_star + q) - h(c_star) gives back c_star + q
    fluid = gas(gamma, c_star)
    phi, q = np.array(phi), c_star * np.array(q_frac)
    zero = float(fluid.density(np.zeros(1))[0])
    if gamma == 1.0:
        assert zero == c_star
    else:  # c1 and its inverse scale round, then the 1/(gamma-1) power
        assert zero == pytest.approx(c_star, rel=1e-12)
    product = (fluid.enthalpy_weight(fluid.density(phi))
               * fluid.density_slope(phi))
    np.testing.assert_allclose(product, 1.0, rtol=1e-12, atol=0.0)
    back = fluid.density(fluid.enthalpy_increment_about(c_star)(q))
    np.testing.assert_allclose(back, c_star + q, rtol=1e-12, atol=0.0)


# ------------------------------------------- one grid per steady problem

@pytest.fixture(scope="module")
def two_shells():
    """Two 320-cell shells with different nodes, and a bump profile on the
    first."""
    a = RadialGrid(1.0, 16.0, 320)
    b = RadialGrid(1.0, 16.0, 320, stretch=3.0)
    return a, b, make_profile("admissible_bump", gas(2.0), 0.5, a)


def test_solver_takes_its_grid_from_the_profile(two_shells):
    a, b, profile = two_shells
    # the old (gamma, profile, grid) call cannot bind the grid to tol
    with pytest.raises(TypeError, match="positional argument"):
        solve_steady_monotone(profile, b, **STEADY)
    steady = solve_steady_monotone(profile, **STEADY)
    assert steady.rho_tilde.grid is a and steady.phi_tilde.grid is a


def test_certificate_rejects_a_candidate_on_other_nodes(two_shells):
    a, b, profile = two_shells
    for phi, role in ((closed_form(b, 2.0), "super"),
                      (subsolution_phi(b), "sub")):
        with pytest.raises(ParameterError, match="different grid nodes"):
            check_subsuper(phi, role, profile)
    # the same nodes built again are the same grid
    same = RadialGrid(1.0, 16.0, 320)
    assert check_subsuper(closed_form(same, 2.0), "super",
                          profile).passed
    # tol is keyword-only: an old (phi, role, gamma, profile) call fails
    with pytest.raises(TypeError, match="positional argument"):
        check_subsuper(subsolution_phi(a), "sub", profile, 1e-8)


# -------------------------------------------------------- monotone solver

def test_flat_background_fixed_point(shell16):
    profile = make_profile("constant", gas(2.0), 0.0, shell16)
    st = solve_steady_monotone(profile, **STEADY)
    assert np.max(np.abs(st.rho_tilde.values - 1.0)) < 1e-9
    # zero, the lower bracket, is the exact fixed point, so Phi_tilde is
    # half the upper bracket, which stops within tol of it
    assert np.max(np.abs(st.phi_tilde.values)) <= STEADY["tol"] / 2
    assert st.iterations_sub == st.iterations_super


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("amplitude", [0.5, 1.0])
def test_monotone_bounds_and_certificates(shell16, gamma, amplitude):
    profile = make_profile("admissible_bump", gas(gamma), amplitude, shell16)
    st = solve_steady_monotone(profile, **STEADY)
    assert st.bounds_ok
    assert st.limit_gap <= 1e-9
    assert st.limit_gap < STEADY["tol"]
    assert st.monotonicity_defect <= 1e-9
    assert np.all(st.rho_tilde.values >= 1.0 - 1e-8)
    assert np.all(st.rho_tilde.values <= 1.0 + 1.0 / shell16.r + 1e-8)


@pytest.mark.parametrize("sets", [
    ["fluid.c_star=0.2"], ["fluid.c_star=0.1", "steady.max_iter=1000"]])
def test_cli_steady_certifies_slowly_contracting_problems(tmp_path, sets):
    # at gamma = 1 and small c_star the contraction is slow: a bracket's
    # step falls below tol while the brackets are still more than 10*tol
    # apart, and at c_star = 0.1 the re-solves need the configured max_iter
    from nsplab.cli import main
    config = Path(__file__).parents[1] / "configs" / "quick.cfg"
    argv = ["steady", "--config", str(config), "--out", str(tmp_path),
            "--set", "fluid.gamma=1"]
    for s in sets:
        argv += ["--set", s]
    assert main(argv) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["all_pass"] is True
    assert cert["limit_gap"] <= 10 * STEADY["tol"]
    assert cert["limit_gap"] < STEADY["tol"]


def test_slow_contraction_steps_both_brackets_until_they_agree():
    # c_star = 0.05 at gamma = 1: a bracket's first step below tol leaves
    # the brackets 2.6 * 10*tol apart; they step on together until they
    # agree within tol, so their average is within tol/2 of the solution
    grid = RadialGrid(1.0, 16.0, 64)
    profile = make_profile("admissible_bump", gas(1.0, 0.05), 0.5, grid)
    tol = 1e-6
    st = solve_steady_monotone(profile, tol=tol, max_iter=1000)
    assert st.limit_gap <= 10 * tol
    assert st.limit_gap < tol
    assert st.monotonicity_defect <= 1e-9
    assert (st.tol, st.max_iter) == (tol, 1000)
    assert np.max(np.abs(st.phi_tilde.values - newton_steady(profile))) < tol
    assert np.max(np.abs(st.phi_tilde.values
                         - newton_steady(profile))) <= tol / 2
    # one step fewer in the budget leaves the limits apart
    budget = max(st.iterations_super, st.iterations_sub) - 1
    with pytest.raises(IterationError, match="bracket limits differ"):
        solve_steady_monotone(profile, tol=tol, max_iter=budget)


def test_background_outside_the_bracket_is_not_certified():
    # b = c_star + 2/r exceeds the ceiling c_star + 1/r of the admissible
    # class, so the closed-form supersolution is not one: the upper sequence
    # rises (by 0.443 here) before the brackets agree, and the state is
    # refused even though its limits meet
    grid = RadialGrid(1.0, 16.0, 320)
    profile = BackgroundProfile("admissible_bump", gas(2.0), 1.0,
                                RadialField(1.0 + 2.0 / grid.r, grid))
    with pytest.raises(MonotonicityError, match="monotonicity defect 4.4"):
        solve_steady_monotone(profile, **STEADY)


def test_regularity_report_solves_with_the_steady_settings():
    # the refined and widened re-solves use the tol and max_iter of the
    # steady state, not the [steady] defaults
    def steady_on(r_outer, n_cells):
        grid = RadialGrid(1.0, r_outer, n_cells)
        return solve_steady_monotone(
            make_profile("admissible_bump", gas(2.0), 0.5, grid), tol=1e-6,
            max_iter=50)

    report = steady_regularity_report(steady_on(16.0, 64))
    for norms, r_outer in ((report.refined_norms, 16.0),
                           (report.widened_norms, 31.0)):
        assert norms == steady_regularity_report(
            steady_on(r_outer, 128)).norms


def test_cli_steady_near_gamma_one(tmp_path):
    # (gamma-1)/gamma to the power 1/(gamma-1) underflows below gamma of
    # about 1.0033 while (Phi + c1) to that power overflows
    from nsplab.cli import main
    config = Path(__file__).parents[1] / "configs" / "quick.cfg"
    assert main(["steady", "--config", str(config), "--out", str(tmp_path),
                 "--set", "fluid.gamma=1.001"]) == 0
    assert json.loads((tmp_path / "certificate.json").read_text())[
        "all_pass"] is True


def test_steady_state_is_continuous_at_gamma_one(shell16):
    # rho_tilde(gamma) -> rho_tilde(1) at first order in gamma - 1
    def rho(gamma):
        return solve_steady_monotone(make_profile(
            "admissible_bump", gas(gamma), 0.5, shell16),
            **STEADY).rho_tilde.values

    base = rho(1.0)
    gaps = [np.max(np.abs(rho(1.0 + eps) - base)) for eps in (1e-4, 1e-3)]
    assert 0.9 <= math.log10(gaps[1] / gaps[0]) <= 1.1


# the documented rules a steady problem can break, each with the cases it
# covers: the power law needs gamma at least GAMMA_GAP_ABOVE_ONE above 1, the
# envelope needs gamma > 1, the explicit supersolution gamma <= 2, and the
# ghost-node Laplacian a grid spacing below the inner radius
STEADY_RULES = {
    f"gamma must be 1 or at least 1 + {GAMMA_GAP_ABOVE_ONE:g}":
        lambda kind, gamma, grid: 1.0 < gamma < 1.0 + GAMMA_GAP_ABOVE_ONE,
    "requires gamma > 1":
        lambda kind, gamma, grid: kind == "general_gamma_envelope"
        and gamma == 1.0,
    "explicit supersolution needs gamma in [1, 2]":
        lambda kind, gamma, grid: kind != "general_gamma_envelope"
        and gamma > 2.0,
    "grid spacing must stay below the inner radius":
        lambda kind, gamma, grid: np.max(np.diff(grid.r)[1:])
        >= np.min(grid.r[1:-1]),
}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gamma=st.one_of(st.floats(1.0, 3.0),
                       st.floats(1e-6, 1e-2).map(lambda eps: 1.0 + eps)),
       c_star=st.floats(0.2, 3.0), amplitude=st.floats(0.0, 1.0),
       kind=st.sampled_from(["constant", "admissible_bump",
                             "general_gamma_envelope"]),
       r_outer=st.floats(4.0, 64.0), n_cells=st.integers(16, 400),
       stretch=st.floats(0.0, 3.0))
# slow contraction: a bracket's first step below tol leaves the brackets
# 1.007 * 10*tol apart
@example(gamma=1.0, c_star=0.2, amplitude=0.125, kind="admissible_bump",
         r_outer=21.0, n_cells=16, stretch=0.0)
# one ulp above 1 the power law's density is off by about 10 %
@example(gamma=1.0000000000000002, c_star=2.5, amplitude=0.0,
         kind="constant", r_outer=4.0, n_cells=16, stretch=0.0)
def test_steady_solves_or_names_the_rule(gamma, c_star, amplitude, kind,
                                         r_outer, n_cells, stretch):
    # a case that breaks no rule certifies; one that breaks a rule raises a
    # ParameterError naming a rule it breaks
    grid = RadialGrid(1.0, r_outer, n_cells, stretch)
    broken = [rule for rule, applies in STEADY_RULES.items()
              if applies(kind, gamma, grid)]
    try:
        profile = make_profile(kind, gas(gamma, c_star), amplitude, grid)
        steady = solve_steady_monotone(profile, **STEADY)
    except ParameterError as exc:
        assert any(rule in str(exc) for rule in broken), str(exc)
        return
    assert not broken
    assert steady.bounds_ok
    assert steady.monotonicity_defect <= 1e-9
    assert steady.limit_gap <= 1e-9
    assert steady.limit_gap < STEADY["tol"]


def test_monotone_envelope_branch(shell16):
    profile = make_profile("general_gamma_envelope", gas(3.0), 0.8, shell16,
                           envelope_c0=0.5, envelope_eps=0.5)
    st = solve_steady_monotone(profile, **STEADY)
    assert st.bounds_ok
    ceiling = profile.fluid.density(profile_supersolution(profile).values)
    assert np.all(st.rho_tilde.values <= ceiling + 1e-8)


def test_envelope_profile_solves_at_the_gamma_it_was_built_for(shell16):
    # the density map, the brackets and the ceiling all read the profile's
    # gas: an envelope built at gamma = 2.5 is solved at gamma = 2.5
    profile = make_profile("general_gamma_envelope", gas(2.5), 1.0, shell16)
    st = solve_steady_monotone(profile, **STEADY)
    assert st.profile.fluid.gamma == 2.5
    assert st.bounds_ok
    assert np.array_equal(st.rho_tilde.values,
                          gas(2.5).density(st.phi_tilde.values))
    assert np.max(np.abs(st.phi_tilde.values - newton_steady(profile))) < 1e-9


def test_monotone_agrees_with_newton(shell16):
    profile = make_profile("admissible_bump", gas(2.0), 0.5, shell16)
    st = solve_steady_monotone(profile, tol=1e-10, max_iter=200)
    phi_newton = newton_steady(profile)
    assert np.max(np.abs(st.phi_tilde.values - phi_newton)) < 1e-9


def test_steady_compatibility_relation(steady_bump_gamma2):
    # grad Phi = gamma rho^(gamma-2) grad rho to discretization order
    assert compatibility_residual(steady_bump_gamma2) < 1e-5


def test_steady_compatibility_converges_at_second_order():
    # at gamma = 2 the relation is discretely exact (rho affine in Phi);
    # gamma = 1.5 shows the genuine O(h^2) defect
    residuals = []
    for n in (400, 800):
        g = RadialGrid(1.0, 16.0, n)
        profile = make_profile("admissible_bump", gas(1.5), 0.5, g)
        st = solve_steady_monotone(profile, **STEADY)
        residuals.append(compatibility_residual(st))
    assert residuals[0] / residuals[1] > 3.0


def test_monotone_sandwich_and_direction(shell16):
    # instrumented rerun of the two bracketing sequences
    fluid = gas(2.0)
    profile = make_profile("admissible_bump", fluid, 0.5, shell16)
    phi_super = profile_supersolution(profile)
    shift = 1.1 * float(np.max(fluid.density_slope(phi_super.values)))
    b = profile.values.values

    upper = phi_super.values.copy()
    lower = np.zeros_like(upper)
    op = laplacian(shell16, shift)
    for _ in range(12):
        up_next = op.solve_refined(fluid.density(upper) - b - shift * upper)
        lo_next = op.solve_refined(fluid.density(lower) - b - shift * lower)
        assert np.max(up_next - upper) <= 1e-10   # nonincreasing
        assert np.min(lo_next - lower) >= -1e-10  # nondecreasing
        assert np.max(lo_next - up_next) <= 1e-10  # ordered
        upper, lower = up_next, lo_next


def test_steady_residual_below_tolerance(steady_bump_gamma2):
    assert steady_bump_gamma2.residual_elliptic < 1e-6


def test_iteration_budget_error(shell16):
    from nsplab import IterationError
    profile = make_profile("admissible_bump", gas(2.0), 0.5, shell16)
    with pytest.raises(IterationError):
        solve_steady_monotone(profile, tol=1e-10, max_iter=2)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_solver_rejects_a_tolerance_that_is_not_finite_and_positive(shell16,
                                                                     tol):
    profile = make_profile("admissible_bump", gas(2.0), 0.5, shell16)
    with pytest.raises(ParameterError):
        solve_steady_monotone(profile, tol=tol, max_iter=200)


def test_regularity_report_flat_background(shell16):
    profile = make_profile("constant", gas(2.0), 0.0, shell16)
    st = solve_steady_monotone(profile, **STEADY)
    report = steady_regularity_report(st)
    assert all(v < 1e-8 for v in report.norms.values())


def test_regularity_report_bump(steady_bump_gamma2):
    report = steady_regularity_report(steady_bump_gamma2)
    assert report.stable_under_refinement
    assert report.stable_under_widening
    assert all(np.isfinite(v) and v > 0.0 for v in report.norms.values())


def test_regularity_hessian_norm_is_the_radial_hessian_norm():
    # one Hessian norm of a radial scalar: the d2 stencil criterion 12 reads
    grid = RadialGrid(1.0, 16.0, 64)
    st = solve_steady_monotone(make_profile("admissible_bump", gas(2.0), 0.5,
                                            grid), **STEADY)
    norms = steady_regularity_report(st).norms
    assert norms["hess_phi"] == hessian_norm_radial(st.phi_tilde)
    assert norms["hess_rho"] == hessian_norm_radial(st.rho_tilde)


@pytest.mark.parametrize("stretch", [0.0, 3.0])
def test_regularity_report_keeps_the_grid_stretch(stretch):
    # the refined (2n cells) and widened (2n cells on a doubled shell) grids
    # are built with the grid's own stretch
    grid = RadialGrid(1.0, 16.0, 64, stretch)
    assert grid.stretch == stretch
    profile = make_profile("admissible_bump", gas(2.0), 0.5, grid)
    report = steady_regularity_report(solve_steady_monotone(profile, **STEADY))
    for norms, r_outer in ((report.refined_norms, 16.0),
                           (report.widened_norms, 31.0)):
        other = RadialGrid(1.0, r_outer, 128, stretch)
        steady = solve_steady_monotone(
            make_profile("admissible_bump", gas(2.0), 0.5, other), **STEADY)
        assert norms == steady_regularity_report(steady).norms


def _batch_of_one_norms(state):
    """The six regularity norms of a steady pair, one profile at a time:
    ||f'||, the radial Hessian norm of f and the second-gradient norm of
    the vector field f'(r)*rhat, for f = rho_tilde and Phi_tilde."""
    out = {}
    for name, fld in (("rho", state.rho_tilde), ("phi", state.phi_tilde)):
        d1 = fld.grid.field(differentiate(fld.grid, fld.values, 1))
        out[f"grad_{name}"] = weighted_l2_norm(d1)
        out[f"hess_{name}"] = hessian_norm_radial(fld)
        out[f"third_{name}"] = vector_hessian_norm(d1)
    return out


@pytest.mark.parametrize("stretch", [0.0, 3.0])
@pytest.mark.parametrize("kind, gamma", [
    ("admissible_bump", 2.0), ("admissible_bump", 1.0),
    ("admissible_bump", 1.5), ("general_gamma_envelope", 3.0)])
def test_regularity_norms_are_the_batch_of_one_norms(kind, gamma, stretch):
    # the report's stacked (rho, Phi) norms have the bits of each profile's
    # own norms, on the grid and on its refined and widened grids
    def steady_on(r_outer, n_cells):
        grid = RadialGrid(1.0, r_outer, n_cells, stretch)
        return solve_steady_monotone(make_profile(kind, gas(gamma), 0.5,
                                                  grid), **STEADY)

    report = steady_regularity_report(steady_on(16.0, 64))
    assert set(report.norms) == {f"{k}_{f}" for k in ("grad", "hess", "third")
                                 for f in ("rho", "phi")}
    for norms, r_outer, n_cells in ((report.norms, 16.0, 64),
                                    (report.refined_norms, 16.0, 128),
                                    (report.widened_norms, 31.0, 128)):
        assert norms == _batch_of_one_norms(steady_on(r_outer, n_cells))
