import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsplab import (EvaluationDomainError, ParameterError, build_radial_grid,
                    check_subsuper, make_profile, profile_supersolution,
                    rho_from_phi, solve_steady_monotone,
                    steady_regularity_report, subsolution_phi,
                    supersolution_phi)
from nsplab.elliptic import solve_shifted
from nsplab.grids import RadialField
from nsplab.steady import (BackgroundProfile, _Branch, compatibility_residual,
                           profile_upper_bound)

from oracles import newton_steady


def exact_saturating_profile(grid, c_star=1.0):
    """b = c_star + 1/r everywhere (the bound of the admissible class)."""
    return BackgroundProfile("admissible_bump", c_star, 1.0,
                             RadialField(c_star + 1.0 / grid.r, grid))


# ---------------------------------------------------------------- profiles

def test_constant_profile(shell16):
    p = make_profile("constant", 1.0, 0.0, shell16)
    assert np.all(p.values.values == 1.0)


def test_bump_profile_bounds(shell16):
    p = make_profile("admissible_bump", 1.0, 1.0, shell16)
    b = p.values.values
    assert np.all(b >= 1.0 - 1e-15)
    assert np.all(b <= 1.0 + 1.0 / shell16.r + 1e-15)
    assert b[0] == pytest.approx(2.0, abs=1e-12)  # saturates at the wall
    assert abs(b[-1] - 1.0) < 1e-15  # returns to c_star near the truncation


def test_bump_amplitude_validation(shell16):
    with pytest.raises(ParameterError):
        make_profile("admissible_bump", 1.0, 1.5, shell16)
    with pytest.raises(ParameterError):
        make_profile("admissible_bump", 1.0, -0.1, shell16)
    with pytest.raises(ParameterError):
        make_profile("no_such_kind", 1.0, 0.5, shell16)


def test_envelope_profile_bounds(shell16):
    p = make_profile("general_gamma_envelope", 1.0, 1.0, shell16,
                     envelope_c0=1.0, envelope_eps=0.5, gamma=3.0)
    ceiling = profile_upper_bound(p, 3.0)
    assert np.all(p.values.values <= ceiling + 1e-12)
    assert np.all(p.values.values >= 1.0 - 1e-12)


# ------------------------------------------------------- explicit brackets

def test_subsolution_is_zero(shell16):
    for gamma in (1.0, 2.0):
        assert np.all(subsolution_phi(gamma, shell16).values == 0.0)


def test_supersolution_gamma2_values(shell16):
    phi = supersolution_phi(2.0, 1.0, shell16)
    assert phi.values[0] == pytest.approx(2.0, rel=1e-14)
    # 2/r at the outer edge
    assert phi.values[-1] == pytest.approx(2.0 / 16.0, rel=1e-14)


def test_supersolution_gamma1_value(shell16):
    phi = supersolution_phi(1.0, 1.0, shell16)
    assert phi.values[0] == pytest.approx(math.log(2.0), rel=1e-14)


def test_supersolution_gamma_below_one_rejected(shell16):
    with pytest.raises(ParameterError):
        supersolution_phi(0.5, 1.0, shell16)
    with pytest.raises(ParameterError):
        supersolution_phi(3.0, 1.0, shell16)  # explicit form needs the envelope


def test_profile_supersolution_picks_the_bracket(shell16):
    bump = make_profile("admissible_bump", 1.0, 0.5, shell16)
    assert np.array_equal(profile_supersolution(bump, 1.5).values,
                          supersolution_phi(1.5, 1.0, shell16).values)
    env = make_profile("general_gamma_envelope", 1.0, 0.8, shell16,
                       envelope_c0=0.5, envelope_eps=0.4, gamma=3.0)
    assert np.array_equal(profile_supersolution(env, 3.0).values,
                          0.5 * shell16.r ** -0.4)
    # gamma > 2 has no closed-form bracket for the bump class
    bump3 = make_profile("admissible_bump", 1.0, 0.5, shell16, gamma=3.0)
    with pytest.raises(ParameterError):
        profile_supersolution(bump3, 3.0)
    with pytest.raises(ParameterError):
        solve_steady_monotone(3.0, bump3, shell16)


def test_branch_limit_gamma_to_one(shell16):
    # gamma -> 1+ limit of the power-law bracket approaches the log bracket
    phi_1 = supersolution_phi(1.0, 1.0, shell16).values
    phi_101 = supersolution_phi(1.01, 1.0, shell16).values
    assert np.max(np.abs(phi_101 - phi_1)) / np.max(phi_1) < 0.05


def test_subsuper_certificates_gamma2_equality_case(shell16):
    profile = exact_saturating_profile(shell16)
    cert = check_subsuper(supersolution_phi(2.0, 1.0, shell16), "super", 2.0,
                          profile, tol=1e-10)
    assert cert.passed
    assert abs(cert.max_residual) < 1e-10
    assert abs(cert.min_residual) < 1e-10
    assert cert.boundary_normal_derivative == pytest.approx(2.0, rel=1e-3)


def test_subsuper_certificates_gamma1(shell16):
    profile = exact_saturating_profile(shell16)
    cert = check_subsuper(supersolution_phi(1.0, 1.0, shell16), "super", 1.0,
                          profile, tol=1e-8)
    assert cert.passed
    assert cert.max_residual <= 1e-8


def test_zero_is_not_super_for_nonflat_background(shell16):
    profile = make_profile("admissible_bump", 1.0, 0.5, shell16)
    cert = check_subsuper(subsolution_phi(2.0, shell16), "super", 2.0,
                          profile, tol=1e-10)
    assert not cert.passed  # residual b - c_star > 0 somewhere


def test_zero_is_sub_for_admissible_background(shell16):
    profile = make_profile("admissible_bump", 1.0, 0.5, shell16)
    cert = check_subsuper(subsolution_phi(2.0, shell16), "sub", 2.0, profile,
                          tol=1e-12)
    assert cert.passed


# ------------------------------------------------------------ density map

def test_rho_from_phi_normalization(shell16):
    zero = shell16.zeros()
    for gamma in (1.0, 1.5, 2.0):
        rho = rho_from_phi(zero, gamma, 1.0)
        assert np.max(np.abs(rho.values - 1.0)) < 1e-14


def test_rho_from_phi_examples(shell16):
    two = shell16.field(np.full(shell16.n_nodes, 2.0))
    assert rho_from_phi(two, 2.0, 1.0).values[0] == pytest.approx(2.0)
    ln2 = shell16.field(np.full(shell16.n_nodes, math.log(2.0)))
    assert rho_from_phi(ln2, 1.0, 1.0).values[0] == pytest.approx(2.0)


def test_rho_from_phi_domain_error(shell16):
    bad = shell16.field(np.full(shell16.n_nodes, -100.0))
    with pytest.raises(EvaluationDomainError):
        rho_from_phi(bad, 2.0, 1.0)


# -------------------------------------------------------- monotone solver

def test_flat_background_fixed_point(shell16):
    profile = make_profile("constant", 1.0, 0.0, shell16)
    st = solve_steady_monotone(2.0, profile, shell16)
    assert np.max(np.abs(st.rho_tilde.values - 1.0)) < 1e-9
    assert st.iterations_sub == 1  # zero is the exact fixed point


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("amplitude", [0.5, 1.0])
def test_monotone_bounds_and_certificates(shell16, gamma, amplitude):
    profile = make_profile("admissible_bump", 1.0, amplitude, shell16)
    st = solve_steady_monotone(gamma, profile, shell16)
    assert st.bounds_ok
    assert st.limit_gap <= 1e-9
    assert st.monotonicity_defect <= 1e-9
    assert np.all(st.rho_tilde.values >= 1.0 - 1e-8)
    assert np.all(st.rho_tilde.values <= 1.0 + 1.0 / shell16.r + 1e-8)


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
    profile = make_profile("admissible_bump", 1.0, 0.5, shell16)

    def rho(gamma):
        return solve_steady_monotone(gamma, profile, shell16).rho_tilde.values

    base = rho(1.0)
    gaps = [np.max(np.abs(rho(1.0 + eps) - base)) for eps in (1e-4, 1e-3)]
    assert 0.9 <= math.log10(gaps[1] / gaps[0]) <= 1.1


# the documented rules a steady problem can break, each with the cases it
# covers: the envelope needs gamma > 1, the explicit supersolution gamma <= 2,
# and the ghost-node Laplacian a grid spacing below the inner radius
STEADY_RULES = {
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
def test_steady_solves_or_names_the_rule(gamma, c_star, amplitude, kind,
                                         r_outer, n_cells, stretch):
    # a case that breaks no rule certifies; one that breaks a rule raises a
    # ParameterError naming a rule it breaks
    grid = build_radial_grid(1.0, r_outer, n_cells, stretch)
    broken = [rule for rule, applies in STEADY_RULES.items()
              if applies(kind, gamma, grid)]
    try:
        profile = make_profile(kind, c_star, amplitude, grid, gamma=gamma)
        steady = solve_steady_monotone(gamma, profile, grid)
    except ParameterError as exc:
        assert any(rule in str(exc) for rule in broken), str(exc)
        return
    assert not broken
    assert steady.bounds_ok
    assert steady.monotonicity_defect <= 1e-9
    assert steady.limit_gap <= 1e-9


def test_monotone_envelope_branch(shell16):
    profile = make_profile("general_gamma_envelope", 1.0, 0.8, shell16,
                           envelope_c0=0.5, envelope_eps=0.5, gamma=3.0)
    st = solve_steady_monotone(3.0, profile, shell16)
    assert st.bounds_ok
    ceiling = profile_upper_bound(profile, 3.0)
    assert np.all(st.rho_tilde.values <= ceiling + 1e-8)


def test_monotone_agrees_with_newton(shell16):
    profile = make_profile("admissible_bump", 1.0, 0.5, shell16)
    st = solve_steady_monotone(2.0, profile, shell16, tol=1e-10)
    phi_newton = newton_steady(2.0, profile, shell16)
    assert np.max(np.abs(st.phi_tilde.values - phi_newton)) < 1e-9


def test_steady_compatibility_relation(steady_bump_gamma2):
    # grad Phi = gamma rho^(gamma-2) grad rho to discretization order
    assert compatibility_residual(steady_bump_gamma2) < 1e-5


def test_steady_compatibility_converges_at_second_order():
    # at gamma = 2 the relation is discretely exact (rho affine in Phi);
    # gamma = 1.5 shows the genuine O(h^2) defect
    residuals = []
    for n in (400, 800):
        g = build_radial_grid(1.0, 16.0, n)
        profile = make_profile("admissible_bump", 1.0, 0.5, g)
        st = solve_steady_monotone(1.5, profile, g)
        residuals.append(compatibility_residual(st))
    assert residuals[0] / residuals[1] > 3.0


def test_monotone_sandwich_and_direction(shell16):
    # instrumented rerun of the two bracketing sequences
    from nsplab.steady import _iterate
    profile = make_profile("admissible_bump", 1.0, 0.5, shell16)
    branch = _Branch(2.0, 1.0)
    phi_super = supersolution_phi(2.0, 1.0, shell16)
    shift = 1.1 * float(np.max(branch.Fprime(phi_super.values)))
    b = profile.values.values

    upper = phi_super.values.copy()
    lower = np.zeros_like(upper)
    for _ in range(12):
        up_next = solve_shifted(shift, RadialField(
            branch.F(upper) - b - shift * upper, shell16)).values
        lo_next = solve_shifted(shift, RadialField(
            branch.F(lower) - b - shift * lower, shell16)).values
        assert np.max(up_next - upper) <= 1e-10   # nonincreasing
        assert np.min(lo_next - lower) >= -1e-10  # nondecreasing
        assert np.max(lo_next - up_next) <= 1e-10  # ordered
        upper, lower = up_next, lo_next


def test_steady_residual_below_tolerance(steady_bump_gamma2):
    assert steady_bump_gamma2.residual_elliptic < 1e-6


def test_iteration_budget_error(shell16):
    from nsplab import IterationError
    profile = make_profile("admissible_bump", 1.0, 0.5, shell16)
    with pytest.raises(IterationError):
        solve_steady_monotone(2.0, profile, shell16, tol=1e-10, max_iter=2)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_solver_rejects_a_tolerance_that_is_not_finite_and_positive(shell16,
                                                                     tol):
    profile = make_profile("admissible_bump", 1.0, 0.5, shell16)
    with pytest.raises(ParameterError):
        solve_steady_monotone(2.0, profile, shell16, tol=tol)


def test_regularity_report_flat_background(shell16):
    profile = make_profile("constant", 1.0, 0.0, shell16)
    st = solve_steady_monotone(2.0, profile, shell16)
    report = steady_regularity_report(st, shell16)
    assert all(v < 1e-8 for v in report.norms.values())


def test_regularity_report_bump(steady_bump_gamma2, shell16):
    report = steady_regularity_report(steady_bump_gamma2, shell16)
    assert report.stable_under_refinement
    assert report.stable_under_widening
    assert all(np.isfinite(v) and v > 0.0 for v in report.norms.values())


@pytest.mark.parametrize("stretch", [0.0, 3.0])
def test_regularity_report_keeps_the_grid_stretch(stretch):
    # the refined (2n cells) and widened (2n cells on a doubled shell) grids
    # are built with the grid's own stretch
    grid = build_radial_grid(1.0, 16.0, 64, stretch)
    assert grid.stretch == stretch
    profile = make_profile("admissible_bump", 1.0, 0.5, grid)
    report = steady_regularity_report(
        solve_steady_monotone(2.0, profile, grid), grid)
    for norms, r_outer in ((report.refined_norms, 16.0),
                           (report.widened_norms, 31.0)):
        other = build_radial_grid(1.0, r_outer, 128, stretch)
        steady = solve_steady_monotone(
            2.0, make_profile("admissible_bump", 1.0, 0.5, other), other)
        assert norms == steady_regularity_report(steady, other).norms
