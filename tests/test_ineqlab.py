import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsplab import DegenerateFieldError, ParameterError, build_radial_grid
from nsplab import ineqlab as iq
from nsplab.elliptic import solve_poisson_neumann
from nsplab.grids import CUT_END
from nsplab.ineqlab import (VectorField3, boundary_pairing_report,
                            build_spherical_grid, curl, div_curl_report,
                            divergence, grad_scalar, l2_norm, l2_norm_vec,
                            lame_report, poisson_regularity_report,
                            random_scalar_field, random_tangent_field,
                            tangent_ensemble, verify_boundary_pairing,
                            verify_div_curl,
                            verify_lame_gradient_case, verify_sobolev_l6,
                            verify_trace_scaling)

from oracles import premerge_scalar_field, premerge_tangent_field


@pytest.fixture(scope="module")
def sgrid():
    return build_spherical_grid(1.0, 2.0, 24, 12, 16)


def test_grid_volume_exact_and_weights_positive(sgrid):
    vol = sgrid.integrate(np.ones(sgrid.shape))
    exact = 4.0 * math.pi * (2.0**3 - 1.0) / 3.0
    assert vol == pytest.approx(exact, rel=1e-13)
    assert np.all(sgrid.w_r > 0.0)
    assert np.all(sgrid.w_theta > 0.0)
    assert sgrid.w_phi > 0.0


def test_gradient_squared_agrees_with_radial_reduction():
    # the nine-component covariant gradient on the 3-D grid and the radial
    # module's closed-form |grad u|^2 = u'^2 + 2 (u/r)^2 are independent
    # implementations of the same quantity
    from nsplab import build_radial_grid, vector_gradient_norm
    from nsplab.ineqlab import grad_norm
    for nr in (32, 64):
        g3 = build_spherical_grid(1.0, 2.0, nr, 12, 16)
        prof = np.exp(-(((g3.r - 1.4) / 0.2) ** 2))
        v = VectorField3(vr=prof[:, None, None] * np.ones(g3.shape),
                         vtheta=np.zeros(g3.shape),
                         vphi=np.zeros(g3.shape), grid=g3)
        g1 = build_radial_grid(1.0, 2.0, nr)
        ref = vector_gradient_norm(g1.field(prof))
        # same stencils and quadrature pattern in both reductions: the two
        # computations agree to roundoff, not just to O(h^2)
        assert abs(grad_norm(v) - ref) / ref < 1e-12


def test_scalar_gradient_agrees_with_radial_reduction():
    from nsplab import build_radial_grid, radial_derivative, weighted_l2_norm
    from nsplab.ineqlab import l2_norm_vec
    g3 = build_spherical_grid(1.0, 2.0, 48, 12, 16)
    prof = np.sin(2.0 * g3.r)
    f = prof[:, None, None] * np.ones(g3.shape)
    g1 = build_radial_grid(1.0, 2.0, 48)
    ref = weighted_l2_norm(radial_derivative(g1.field(prof), 1))
    ours = l2_norm_vec(grad_scalar(g3, f))
    assert ours == pytest.approx(ref, rel=1e-3)


def test_grid_quadrature_refinement():
    exact = 4.0 * math.pi * (math.cos(1.0) - math.cos(2.0))

    def err(nr, nt, np_):
        g = build_spherical_grid(1.0, 2.0, nr, nt, np_)
        f = np.sin(g.r)[:, None, None] / (g.r**2)[:, None, None] \
            * np.ones(g.shape)
        return abs(g.integrate(f) - exact)

    assert err(16, 8, 8) / err(32, 16, 16) > 2.0


def test_radial_weights_shared_with_radial_grid():
    g = build_spherical_grid(1.0, 16.0, 32, 8, 8)
    radial = build_radial_grid(1.0, 16.0, 32)
    assert np.array_equal(g.r, radial.r)
    assert np.array_equal(4.0 * math.pi * g.w_r, radial.weights)


def test_grid_resolution_validation():
    with pytest.raises(ParameterError):
        build_spherical_grid(1.0, 2.0, 32, 16, 4)
    with pytest.raises(ParameterError):
        build_spherical_grid(1.0, 2.0, 8, 16, 16)
    with pytest.raises(ParameterError):
        build_spherical_grid(2.0, 1.0, 32, 16, 16)


def test_curl_of_radial_field_vanishes(sgrid):
    f = (sgrid.r**2)[:, None, None] * np.ones(sgrid.shape)
    v = VectorField3(vr=f, vtheta=np.zeros(sgrid.shape),
                     vphi=np.zeros(sgrid.shape), grid=sgrid)
    c = curl(v)
    for comp in (c.vr, c.vtheta, c.vphi):
        assert np.max(np.abs(comp)) < 1e-10


def test_divergence_of_radial_field():
    errs = []
    for nr, nt, np_ in ((24, 12, 16), (48, 12, 16)):
        g = build_spherical_grid(1.0, 2.0, nr, nt, np_)
        f = (g.r**2)[:, None, None] * np.ones(g.shape)
        v = VectorField3(vr=f, vtheta=np.zeros(g.shape),
                         vphi=np.zeros(g.shape), grid=g)
        exact = 4.0 * g.r[:, None, None] * np.ones(g.shape)
        errs.append(np.max(np.abs(divergence(v) - exact)))
    assert errs[0] / errs[1] > 3.0  # O(h^2) on the quartic flux


def test_div_of_curl_is_roundoff():
    # the tensor-product difference operators commute across axes, so the
    # discrete identity holds to roundoff at every resolution
    for nr, nt, np_ in ((16, 8, 8), (32, 16, 16)):
        g = build_spherical_grid(1.0, 2.0, nr, nt, np_)
        v = random_tangent_field(3, g)
        c = curl(v)
        assert l2_norm(g, divergence(c)) <= 1e-12 * max(l2_norm_vec(c), 1e-30)


def test_curl_of_gradient_is_roundoff():
    for nr, nt, np_ in ((16, 8, 8), (32, 16, 16)):
        g = build_spherical_grid(1.0, 2.0, nr, nt, np_)
        f = random_scalar_field(5, g)
        gf = grad_scalar(g, f)
        c = curl(gf)
        assert l2_norm_vec(c) <= 1e-12 * max(l2_norm_vec(gf), 1e-30)


def test_tangent_field_boundary_and_determinism(sgrid):
    v1 = random_tangent_field(42, sgrid)
    v2 = random_tangent_field(42, sgrid)
    assert np.max(np.abs(v1.vr[0])) == 0.0
    assert np.array_equal(v1.vr, v2.vr)
    assert np.array_equal(v1.vtheta, v2.vtheta)
    assert np.array_equal(v1.vphi, v2.vphi)
    v3 = random_tangent_field(43, sgrid)
    assert not np.array_equal(v1.vr, v3.vr)


def test_tangent_ensemble_nondegenerate(sgrid):
    from nsplab.ineqlab import grad_norm
    norms = [grad_norm(random_tangent_field(s, sgrid)) for s in range(20)]
    assert min(norms) > 0.0


def test_div_curl_constructed_curl_free_member(sgrid):
    # v = grad(psi) with psi from a radial Neumann solve, lifted to 3-D
    rg = build_radial_grid(1.0, 2.0, sgrid.r.size - 1)
    bump = np.exp(-(((rg.r - 1.4) / 0.15) ** 2))
    psi = solve_poisson_neumann(rg.field(bump)).phi
    from nsplab import radial_derivative
    dpsi = radial_derivative(psi, 1).values
    v = VectorField3(vr=dpsi[:, None, None] * np.ones(sgrid.shape),
                     vtheta=np.zeros(sgrid.shape),
                     vphi=np.zeros(sgrid.shape), grid=sgrid)
    ratio = verify_div_curl(v)
    assert np.isfinite(ratio) and ratio > 0.0


def test_div_curl_rejects_zero_field(sgrid):
    z = np.zeros(sgrid.shape)
    with pytest.raises(DegenerateFieldError):
        verify_div_curl(VectorField3(vr=z, vtheta=z, vphi=z, grid=sgrid))


def test_div_curl_ensemble_stable_under_refinement():
    r1 = div_curl_report(tangent_ensemble(
        build_spherical_grid(1.0, 2.0, 16, 8, 8), 10, seed=1))
    r2 = div_curl_report(tangent_ensemble(
        build_spherical_grid(1.0, 2.0, 32, 16, 16), 10, seed=1))
    assert abs(r2.max_ratio - r1.max_ratio) / r1.max_ratio < 0.25


def test_trace_scaling_invariance():
    rep = verify_trace_scaling(r_values=(1.0, 2.0, 4.0), nr=24, ntheta=12,
                               nphi=16, seed=2)
    assert rep.passed
    ratios = rep.details["ratios"]
    # pure rescaling: the discrete computation is scale-equivariant
    assert max(ratios) - min(ratios) <= 1e-3 * max(ratios)


def test_boundary_pairing_trivial_cases(sgrid):
    v = random_tangent_field(7, sgrid)
    f_const = np.full(sgrid.shape, 2.5)
    lhs, rhs = verify_boundary_pairing(v, f_const)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    z = np.zeros(sgrid.shape)
    vzero = VectorField3(vr=z, vtheta=z, vphi=z, grid=sgrid)
    f = random_scalar_field(8, sgrid)
    lhs, rhs = verify_boundary_pairing(vzero, f)
    assert lhs == 0.0


def test_boundary_pairing_small_ensemble(sgrid):
    rep = boundary_pairing_report(tangent_ensemble(sgrid, 10, seed=0),
                                  n_scalars=5)
    assert rep.passed
    assert rep.claimed_constant == 1.0
    assert rep.max_ratio <= 1.05


def test_sobolev_l6_ratio_properties(sgrid):
    f = random_scalar_field(11, sgrid)
    r1 = verify_sobolev_l6(sgrid, f)
    r2 = verify_sobolev_l6(sgrid, 2.0 * f)
    assert r2 == pytest.approx(r1, rel=1e-12)
    with pytest.raises(DegenerateFieldError):
        verify_sobolev_l6(sgrid, np.zeros(sgrid.shape))


def test_lame_trivial_and_homogeneous():
    g = build_radial_grid(1.0, 2.0, 256)
    const = g.field(np.full(g.n_nodes, 3.0))
    rep = verify_lame_gradient_case(const, 1.0, 1.0)
    assert rep.passed
    bump = np.exp(-(((g.r - 1.4) / 0.15) ** 2))
    psi = solve_poisson_neumann(g.field(bump)).phi
    r1 = verify_lame_gradient_case(psi, 1.0, 1.0)
    psi2 = g.field(2.0 * psi.values)
    r2 = verify_lame_gradient_case(psi2, 1.0, 1.0)
    assert r2.max_ratio == pytest.approx(r1.max_ratio, rel=1e-12)


def test_lame_ensemble_stable_under_refinement():
    r1 = lame_report(build_radial_grid(1.0, 16.0, 1000), 10, seed=0)
    r2 = lame_report(build_radial_grid(1.0, 16.0, 2000), 10, seed=0)
    assert abs(r2.max_ratio - r1.max_ratio) / r1.max_ratio < 0.25


def test_poisson_regularity_ensemble():
    rep = poisson_regularity_report(build_radial_grid(1.0, 16.0, 1000), 20,
                                    seed=0)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(1.0, abs=0.02)


def test_streamed_reports_equal_per_field_loop(sgrid):
    n_fields, n_scalars, seed, modes = 6, 4, 3, 2
    fields = [random_tangent_field(seed + i, sgrid, modes)
              for i in range(n_fields)]
    scalars = [random_scalar_field(seed + 1000 + j, sgrid, modes)
               for j in range(n_scalars)]
    div_curl = [verify_div_curl(v) for v in fields]
    pairs = [verify_boundary_pairing(v, f) for v in fields for f in scalars]
    pairing = [lhs / rhs for lhs, rhs in pairs]

    ens = tangent_ensemble(sgrid, n_fields, seed, modes)
    rep = div_curl_report(ens)
    assert rep.max_ratio == max(div_curl)
    assert rep.mean_ratio == float(np.mean(div_curl))
    rep = boundary_pairing_report(ens, n_scalars)
    assert rep.n_samples == n_fields * n_scalars
    assert rep.max_ratio == max(pairing)
    assert rep.mean_ratio == float(np.mean(pairing))


def test_shared_ensemble_gives_the_same_reports(sgrid):
    ens = tangent_ensemble(sgrid, 5, seed=2)
    assert ens.traces.shape == (5, 3) + sgrid.shape[1:]
    assert np.all(ens.traces[:, 0] == 0.0)  # v_r(R) = 0
    again = tangent_ensemble(sgrid, 5, seed=2)
    assert div_curl_report(ens) == div_curl_report(again)
    assert boundary_pairing_report(ens, 3) == boundary_pairing_report(again, 3)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nr=st.integers(16, 48), ntheta=st.integers(8, 24),
       nphi=st.integers(8, 32), r_inner=st.floats(0.5, 4.0),
       outer=st.floats(1.5, 8.0), modes=st.integers(1, 4),
       seed=st.integers(min_value=0))
def test_mode_sum_reproduces_the_premerge_fields(nr, ntheta, nphi, r_inner,
                                                 outer, modes, seed):
    grid = build_spherical_grid(r_inner, outer * r_inner, nr, ntheta, nphi)
    v = random_tangent_field(seed, grid, modes)
    for got, want in zip((v.vr, v.vtheta, v.vphi),
                         premerge_tangent_field(seed, grid, modes)):
        assert np.array_equal(got, want)
    f = random_scalar_field(seed, grid, modes)
    want = premerge_scalar_field(seed, grid, modes)
    # the shared sum reassociates the scalar's product: roundoff only
    assert (np.max(np.abs(f - want))
            <= 8.0 * np.finfo(float).eps * np.max(np.abs(want)))
    assert np.all(v.vr[0] == 0.0)
    far = grid.r >= grid.r_inner + CUT_END * (grid.r_outer - grid.r_inner)
    assert far.any()
    for comp in (v.vr, v.vtheta, v.vphi, f):
        assert np.all(comp[far] == 0.0)


def test_geometry_computed_once_per_grid(sgrid):
    r, sin, cot = sgrid.geometry
    assert sgrid.geometry is sgrid.geometry
    assert np.array_equal(sin[0, :, 0], np.sin(sgrid.theta))
    assert np.array_equal(cot[0, :, 0],
                          np.cos(sgrid.theta) / np.sin(sgrid.theta))
    assert np.array_equal(r[:, 0, 0], sgrid.r)


def test_d_phi_slicing_equals_roll(sgrid):
    f = np.random.default_rng(4).standard_normal(sgrid.shape)
    h = 2.0 * math.pi / sgrid.phi.size
    rolled = (np.roll(f, -1, axis=2) - np.roll(f, 1, axis=2)) / (2.0 * h)
    assert np.array_equal(iq._d_phi(sgrid, f), rolled)


def test_d_axis_equals_per_axis_formula(sgrid):
    # the one r/theta helper keeps the three-point formula of each axis
    f = np.random.default_rng(5).standard_normal(sgrid.shape)
    h = sgrid.r[1] - sgrid.r[0]
    d_r = np.empty_like(f)
    d_r[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    d_r[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    d_r[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    h = sgrid.theta[1] - sgrid.theta[0]
    d_theta = np.empty_like(f)
    d_theta[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / (2.0 * h)
    d_theta[:, 0] = (-3.0 * f[:, 0] + 4.0 * f[:, 1] - f[:, 2]) / (2.0 * h)
    d_theta[:, -1] = (3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]) / (2.0 * h)
    assert np.array_equal(iq._d_axis(sgrid, f, 0), d_r)
    assert np.array_equal(iq._d_axis(sgrid, f, 1), d_theta)


def test_l6_norm_matches_sixth_power(sgrid):
    for seed in range(4):
        f = random_scalar_field(seed, sgrid)
        ref = sgrid.integrate(f**6) ** (1.0 / 6.0)
        assert abs(iq.l6_norm(sgrid, f) - ref) <= 1e-15 * ref


def test_verify_inequalities_builds_each_tangent_field_once(tmp_path,
                                                            monkeypatch):
    from nsplab.cli import main
    calls = []
    build = iq.random_tangent_field

    def counted(seed, grid, modes=3):
        calls.append(seed)
        return build(seed, grid, modes)

    monkeypatch.setattr(iq, "random_tangent_field", counted)
    config = Path(__file__).parents[1] / "configs" / "quick.cfg"
    assert main(["verify-inequalities", "--config", str(config),
                 "--out", str(tmp_path), "--set", "ineqlab.n_fields=7"]) == 0
    # n_fields for the shared div-curl/pairing pass, 3 for trace scaling
    assert len(calls) == 7 + 3
