import dataclasses
import inspect
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsplab import DegenerateFieldError, ParameterError, RadialGrid
from nsplab import ineqlab as iq
from nsplab.elliptic import laplacian
from nsplab.grids import CUT_END, differentiate
from nsplab.ineqlab import (SphericalGrid, TangentEnsemble,
                            boundary_pairing_report, div_curl_report,
                            lame_report, poisson_regularity_report,
                            sobolev_l6_report, tangent_ensemble,
                            verify_trace_scaling)

from oracles import (VectorField3, boundary_integral, boundary_l2_sq,
                     boundary_pairings, curl, d_axis, d_phi, div_curl_norm,
                     divergence, geometry, grad_norm, grad_scalar, grid_shape,
                     inner_traces, integrate, l2_norm, l2_norm_vec, l6_norm,
                     lame_ratios, mode_sum_factors,
                     poisson_regularity_ratios, premerge_scalar_field,
                     radial_source, sphere_traces, tangent_field,
                     vector_gradient_norm, verify_lame_gradient_case)

MEMBER_FIELDS = ("grad_sq", "div_sq", "curl_sq")


@pytest.fixture(scope="module")
def sgrid():
    return SphericalGrid(1.0, 2.0, 24, 12, 16)


def test_grid_volume_exact_and_weights_positive(sgrid):
    vol = integrate(sgrid, np.ones(grid_shape(sgrid)))
    exact = 4.0 * math.pi * (2.0**3 - 1.0) / 3.0
    assert vol == pytest.approx(exact, rel=1e-13)
    assert np.all(sgrid.w_r > 0.0)
    assert np.all(sgrid.w_theta > 0.0)
    assert sgrid.w_phi > 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nr=st.integers(16, 24), ntheta=st.integers(8, 12),
       extra_phi=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_integrate_equals_the_explicit_triple_sum(nr, ntheta, extra_phi,
                                                  seed):
    # ntheta != nphi and a field that varies along every axis: weights
    # attached to the wrong angular axis cannot pass
    g = SphericalGrid(1.0, 3.0, nr, ntheta, ntheta + extra_phi)
    f = np.random.default_rng(seed).standard_normal(grid_shape(g))
    terms = (g.w_r[:, None, None] * g.w_theta[None, :, None] * g.w_phi) * f
    assert abs(integrate(g, f) - terms.sum()) <= 1e-12 * np.abs(terms).sum()


def test_gradient_squared_agrees_with_radial_reduction():
    # the nine-component covariant gradient on the 3-D grid and the radial
    # module's closed-form |grad u|^2 = u'^2 + 2 (u/r)^2 are independent
    # implementations of the same quantity
    for nr in (32, 64):
        g3 = SphericalGrid(1.0, 2.0, nr, 12, 16)
        prof = np.exp(-(((g3.r - 1.4) / 0.2) ** 2))
        v = VectorField3(vr=prof[:, None, None] * np.ones(grid_shape(g3)),
                         vtheta=np.zeros(grid_shape(g3)),
                         vphi=np.zeros(grid_shape(g3)), grid=g3)
        g1 = RadialGrid(1.0, 2.0, nr)
        ref = vector_gradient_norm(g1.field(prof))
        # same stencils and quadrature pattern in both reductions: the two
        # computations agree to roundoff, not just to O(h^2)
        assert abs(grad_norm(v) - ref) / ref < 1e-12


def test_scalar_gradient_agrees_with_radial_reduction():
    from nsplab import weighted_l2_norm
    g3 = SphericalGrid(1.0, 2.0, 48, 12, 16)
    prof = np.sin(2.0 * g3.r)
    f = prof[:, None, None] * np.ones(grid_shape(g3))
    g1 = RadialGrid(1.0, 2.0, 48)
    ref = weighted_l2_norm(g1.field(differentiate(g1, prof, 1)))
    ours = l2_norm_vec(grad_scalar(g3, f))
    assert ours == pytest.approx(ref, rel=1e-3)


def test_grid_quadrature_refinement():
    exact = 4.0 * math.pi * (math.cos(1.0) - math.cos(2.0))

    def err(nr, nt, np_):
        g = SphericalGrid(1.0, 2.0, nr, nt, np_)
        f = np.sin(g.r)[:, None, None] / (g.r**2)[:, None, None] \
            * np.ones(grid_shape(g))
        return abs(integrate(g, f) - exact)

    assert err(16, 8, 8) / err(32, 16, 16) > 2.0


def test_radial_weights_shared_with_radial_grid():
    g = SphericalGrid(1.0, 16.0, 32, 8, 8)
    radial = RadialGrid(1.0, 16.0, 32)
    assert np.array_equal(g.r, radial.r)
    assert np.array_equal(4.0 * math.pi * g.w_r, radial.weights)


def test_spherical_grid_is_its_build_values():
    # the nodes and weights are derived from the five build values, never
    # given, and replacing a build value gives the grid built afresh
    derived = ("r", "theta", "phi", "w_r", "w_theta", "w_phi")
    assert list(inspect.signature(SphericalGrid).parameters) == [
        "r_inner", "r_outer", "nr", "ntheta", "nphi"]
    for name in derived:
        with pytest.raises(TypeError):
            SphericalGrid(1.0, 2.0, 16, 8, 8, **{name: 0.0})
    moved = dataclasses.replace(SphericalGrid(1.0, 16.0, 24, 12, 16),
                                r_inner=2.0, r_outer=8.0)
    fresh = SphericalGrid(2.0, 8.0, 24, 12, 16)
    assert (moved.nr, moved.ntheta, moved.nphi) == (24, 12, 16)
    for name in derived:
        assert np.array_equal(getattr(moved, name), getattr(fresh, name)), name
    # the inner sphere is one radial weight R^2 and the angular weights
    sphere = iq._inner_sphere(fresh)
    assert not isinstance(sphere, SphericalGrid)
    assert np.array_equal(sphere.w_r, [4.0])
    assert sphere.w_theta is fresh.w_theta and sphere.w_phi == fresh.w_phi


def test_grid_resolution_validation():
    with pytest.raises(ParameterError):
        SphericalGrid(1.0, 2.0, 32, 16, 4)
    with pytest.raises(ParameterError):
        SphericalGrid(1.0, 2.0, 8, 16, 16)
    with pytest.raises(ParameterError):
        SphericalGrid(2.0, 1.0, 32, 16, 16)


@pytest.mark.parametrize("counts, name", [
    ((16.5, 8, 8), "nr"), ((16, 8.5, 8), "ntheta"), ((16, 8, 8.0), "nphi"),
    ((16, True, 8), "ntheta")])
def test_grid_counts_must_be_integers(counts, name):
    # ntheta = 8.5 built 9 theta nodes, the last one on the pole
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        SphericalGrid(1.0, 2.0, *counts)
    assert SphericalGrid(1.0, 2.0, *np.int64([16, 8, 8])).theta.size == 8


def test_curl_of_radial_field_vanishes(sgrid):
    f = (sgrid.r**2)[:, None, None] * np.ones(grid_shape(sgrid))
    v = VectorField3(vr=f, vtheta=np.zeros(grid_shape(sgrid)),
                     vphi=np.zeros(grid_shape(sgrid)), grid=sgrid)
    c = curl(v)
    for comp in (c.vr, c.vtheta, c.vphi):
        assert np.max(np.abs(comp)) < 1e-10


def test_divergence_of_radial_field():
    errs = []
    for nr, nt, np_ in ((24, 12, 16), (48, 12, 16)):
        g = SphericalGrid(1.0, 2.0, nr, nt, np_)
        f = (g.r**2)[:, None, None] * np.ones(grid_shape(g))
        v = VectorField3(vr=f, vtheta=np.zeros(grid_shape(g)),
                         vphi=np.zeros(grid_shape(g)), grid=g)
        exact = 4.0 * g.r[:, None, None] * np.ones(grid_shape(g))
        errs.append(np.max(np.abs(divergence(v) - exact)))
    assert errs[0] / errs[1] > 3.0  # O(h^2) on the quartic flux


def test_div_of_curl_is_roundoff():
    # the tensor-product difference operators commute across axes, so the
    # discrete identity holds to roundoff at every resolution
    for nr, nt, np_ in ((16, 8, 8), (32, 16, 16)):
        g = SphericalGrid(1.0, 2.0, nr, nt, np_)
        v = tangent_field(3, g)
        c = curl(v)
        assert l2_norm(g, divergence(c)) <= 1e-12 * max(l2_norm_vec(c), 1e-30)


def test_curl_of_gradient_is_roundoff():
    for nr, nt, np_ in ((16, 8, 8), (32, 16, 16)):
        g = SphericalGrid(1.0, 2.0, nr, nt, np_)
        f = premerge_scalar_field(5, g)
        gf = grad_scalar(g, f)
        c = curl(gf)
        assert l2_norm_vec(c) <= 1e-12 * max(l2_norm_vec(gf), 1e-30)


def test_tangent_field_boundary_and_determinism(sgrid):
    ens = tangent_ensemble(sgrid, 2, seed=42)  # seeds 42 and 43
    again = tangent_ensemble(sgrid, 2, seed=42)
    # v_r(R) = 0: the radial factors of v_r, taken at R
    assert np.max(np.abs(ens.inner[0][0])) == 0.0
    for name in MEMBER_FIELDS:
        assert np.array_equal(getattr(ens, name), getattr(again, name))
    assert _same_pieces(ens.inner, again.inner)
    traces = sphere_traces(ens.inner)
    assert not np.array_equal(traces[0], traces[1])
    assert ens.grad_sq[0] != ens.grad_sq[1]


def test_tangent_ensemble_nondegenerate(sgrid):
    assert min(tangent_ensemble(sgrid, 20).grad_sq) > 0.0


def test_div_curl_constructed_curl_free_member(sgrid):
    # v = grad(psi) with psi from a radial Neumann solve, lifted to 3-D
    rg = RadialGrid(1.0, 2.0, sgrid.r.size - 1)
    bump = np.exp(-(((rg.r - 1.4) / 0.15) ** 2))
    dpsi = differentiate(rg, laplacian(rg).solve_refined(bump), 1)
    v = VectorField3(vr=dpsi[:, None, None] * np.ones(grid_shape(sgrid)),
                     vtheta=np.zeros(grid_shape(sgrid)),
                     vphi=np.zeros(grid_shape(sgrid)), grid=sgrid)
    ratio = grad_norm(v) / div_curl_norm(v)
    assert np.isfinite(ratio) and ratio > 0.0


def test_div_curl_rejects_zero_field(sgrid):
    # a member whose div and curl vanish while its gradient does not
    ens = tangent_ensemble(sgrid, 3)
    zero = np.zeros(3)
    degenerate = TangentEnsemble(grid=sgrid, seed=0, modes=3,
                                 grad_sq=ens.grad_sq, div_sq=zero,
                                 curl_sq=zero, inner=ens.inner)
    with pytest.raises(DegenerateFieldError, match="div and curl"):
        div_curl_report(degenerate)


def test_div_curl_ensemble_stable_under_refinement():
    r1 = div_curl_report(tangent_ensemble(
        SphericalGrid(1.0, 2.0, 16, 8, 8), 10, seed=1))
    r2 = div_curl_report(tangent_ensemble(
        SphericalGrid(1.0, 2.0, 32, 16, 16), 10, seed=1))
    assert abs(r2.max_ratio - r1.max_ratio) / r1.max_ratio < 0.25


def test_trace_scaling_invariance(sgrid):
    rep = verify_trace_scaling(sgrid, seed=2)
    assert rep.passed
    ratios = rep.details["ratios"]
    # pure rescaling: the discrete computation is scale-equivariant
    assert max(ratios) - min(ratios) <= 1e-3 * max(ratios)


def test_trace_scaling_rejects_unresolved_shells():
    # spacing (f - 1) R / nr must stay below R: f < nr + 1
    grid = SphericalGrid(1.0, 2.0, 16, 8, 8)
    iq.check_outer_factor(16.99, grid)
    for factor in (17.0, 1e100):
        with pytest.raises(ParameterError, match="trace_outer_factor"):
            iq.check_outer_factor(factor, grid)
    with pytest.raises(ParameterError, match="trace_outer_factor"):
        verify_trace_scaling(grid, outer_factor=1e100)


def test_trace_scaling_shells_come_from_the_grid():
    # the shells start at R0, 2 R0 and 4 R0 of the grid's inner radius and
    # have its resolution
    grid = SphericalGrid(1.5, 3.0, 16, 8, 8)
    rep = verify_trace_scaling(grid)
    assert rep.details["r_values"] == [1.5, 3.0, 6.0]
    assert rep.passed == (rep.details["relative_spread"]
                          < iq.TRACE_SPREAD_TOL)


def test_boundary_pairing_trivial_cases(sgrid):
    v = tangent_ensemble(sgrid, 1, seed=7).inner
    # the constant scalar 2.5 as a one-term mode sum, and its gradient
    const = iq._ModeSum(grid=sgrid, amps=np.full((1, 1, 1), 2.5),
                        radial=np.ones((1, 1, sgrid.r.size)),
                        polar=np.ones((1, 1, sgrid.theta.size)),
                        azimuthal=np.ones((1, 1, sgrid.phi.size)))
    g_const = _inner(iq._scalar_gradient(const))
    assert float(iq._pairings(sgrid, v, g_const)[0, 0]) == pytest.approx(
        0.0, abs=1e-12)
    g = _inner(_scalar_gradient(8, sgrid, 3))
    zero = [(0.0 * rad, pol, azi) for rad, pol, azi in v]
    assert float(iq._pairings(sgrid, zero, g)[0, 0]) == 0.0
    # the same cases on the traces multiplied out on the grid
    traces = inner_traces(tangent_field(7, sgrid))
    g_const = inner_traces(grad_scalar(sgrid, np.full(grid_shape(sgrid), 2.5)))
    assert _pairing(sgrid, traces, g_const) == pytest.approx(0.0, abs=1e-12)
    g = inner_traces(grad_scalar(sgrid, premerge_scalar_field(8, sgrid)))
    assert _pairing(sgrid, np.zeros_like(traces), g) == 0.0


def test_boundary_pairing_small_ensemble(sgrid):
    rep = boundary_pairing_report(tangent_ensemble(sgrid, 10, seed=0),
                                  n_scalars=5)
    assert rep.passed
    assert rep.claimed_constant == 1.0
    assert rep.max_ratio <= 1.05


def test_sobolev_l6_ratio_properties(sgrid, monkeypatch):
    def ratio(f):
        return l6_norm(sgrid, f) / l2_norm_vec(grad_scalar(sgrid, f))

    f = premerge_scalar_field(11, sgrid)
    assert ratio(2.0 * f) == pytest.approx(ratio(f), rel=1e-12)
    # members whose gradients vanish while their L6 norms do not
    monkeypatch.setattr(iq, "_vector_sq",
                        lambda grid, comps: np.zeros(comps[0][0].shape[0]))
    with pytest.raises(DegenerateFieldError, match="gradient vanishes"):
        sobolev_l6_report(sgrid, 4)


def test_lame_trivial_and_homogeneous():
    g = RadialGrid(1.0, 2.0, 256)
    const = g.field(np.full(g.n_nodes, 3.0))
    rep = verify_lame_gradient_case(const, 3.0)
    assert rep.passed
    bump = np.exp(-(((g.r - 1.4) / 0.15) ** 2))
    psi = g.field(laplacian(g).solve_refined(bump))
    r1 = verify_lame_gradient_case(psi, 3.0)
    psi2 = g.field(2.0 * psi.values)
    r2 = verify_lame_gradient_case(psi2, 3.0)
    assert r2.max_ratio == pytest.approx(r1.max_ratio, rel=1e-12)


def test_lame_ensemble_stable_under_refinement():
    r1 = lame_report(RadialGrid(1.0, 16.0, 1000), 10, seed=0)
    r2 = lame_report(RadialGrid(1.0, 16.0, 2000), 10, seed=0)
    assert abs(r2.max_ratio - r1.max_ratio) / r1.max_ratio < 0.25


def test_poisson_regularity_ensemble():
    rep = poisson_regularity_report(RadialGrid(1.0, 16.0, 1000), 20,
                                    seed=0)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("call", ["tangent_ensemble", "sobolev_l6",
                                  "boundary_pairing", "lame",
                                  "poisson_regularity"])
def test_empty_ensembles_are_parameter_errors(sgrid, call):
    rgrid = RadialGrid(1.0, 16.0, 64)
    run = {"tangent_ensemble": lambda: tangent_ensemble(sgrid, 0),
           "sobolev_l6": lambda: sobolev_l6_report(sgrid, 0),
           "boundary_pairing": lambda: boundary_pairing_report(
               tangent_ensemble(sgrid, 2), 0),
           "lame": lambda: lame_report(rgrid, 0),
           "poisson_regularity": lambda: poisson_regularity_report(rgrid, 0),
           }[call]
    with pytest.raises(ParameterError, match="ensemble size must be >= 1, "
                                             "got 0"):
        run()


def _tangent_member(seed, grid, modes):
    """The factor-path quantities of one tangent field: a batch of one (the
    inner-sphere pieces keep their batch axis)."""
    ens = tangent_ensemble(grid, 1, seed, modes)
    return SimpleNamespace(inner=ens.inner, **{
        name: getattr(ens, name)[0] for name in MEMBER_FIELDS})


def _scalar_gradient(seed, grid, modes):
    """The grad-f pieces of one scalar, a batch of one."""
    return iq._scalar_gradient(iq._batch(iq._scalar_modes, seed, 1, grid,
                                         modes))


def _inner(comps):
    """The pieces of a vector field with their radial factors at r = R."""
    return [iq._at_inner(c) for c in comps]


def _same_pieces(a, b):
    return all(np.array_equal(x, y)
               for pa, pb in zip(a, b) for x, y in zip(pa, pb))


def _member_pieces(inner, i):
    """Member i of a batch of inner-sphere pieces, as a batch of one."""
    return [tuple(f[i:i + 1] for f in piece) for piece in inner]


def _pairing(grid, v_traces, g_traces):
    return abs(float(boundary_pairings(grid, v_traces[None],
                                       g_traces[None])[0, 0]))


def _sphere_sq(grid, inner):
    """|v|^2 on the inner sphere per member, from the factor pieces."""
    return iq._vector_sq(iq._inner_sphere(grid), inner)


def test_streamed_reports_equal_per_field_loop(sgrid):
    n_fields, n_scalars, seed, modes = 6, 4, 3, 2
    members = [_tangent_member(seed + i, sgrid, modes)
               for i in range(n_fields)]
    scalars = [_scalar_gradient(seed + 1000 + j, sgrid, modes)
               for j in range(n_scalars)]
    g_norms = [math.sqrt(iq._vector_sq(sgrid, comps)[0]) for comps in scalars]
    div_curl = [math.sqrt(m.grad_sq) / (math.sqrt(m.div_sq)
                                        + math.sqrt(m.curl_sq))
                for m in members]
    pairing = [abs(float(iq._pairings(sgrid, m.inner, _inner(comps))[0, 0]))
               / (math.sqrt(m.grad_sq) * gn)
               for m in members for comps, gn in zip(scalars, g_norms)]

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
    assert sphere_traces(ens.inner).shape == (5, 3) + grid_shape(sgrid)[1:]
    assert np.all(ens.inner[0][0] == 0.0)  # v_r(R) = 0
    again = tangent_ensemble(sgrid, 5, seed=2)
    assert div_curl_report(ens) == div_curl_report(again)
    assert boundary_pairing_report(ens, 3) == boundary_pairing_report(again, 3)


def test_geometry_computed_once_per_grid(sgrid):
    r, sin, cot = geometry(sgrid)
    assert geometry(sgrid) is geometry(sgrid)
    assert np.array_equal(sin[0, :, 0], np.sin(sgrid.theta))
    assert np.array_equal(cot[0, :, 0],
                          np.cos(sgrid.theta) / np.sin(sgrid.theta))
    assert np.array_equal(r[:, 0, 0], sgrid.r)


def test_d_phi_slicing_equals_roll(sgrid):
    f = np.random.default_rng(4).standard_normal(grid_shape(sgrid))
    h = 2.0 * math.pi / sgrid.phi.size
    rolled = (np.roll(f, -1, axis=2) - np.roll(f, 1, axis=2)) / (2.0 * h)
    assert np.array_equal(d_phi(sgrid, f), rolled)


def test_d_axis_equals_per_axis_formula(sgrid):
    # the one r/theta helper keeps the three-point formula of each axis
    f = np.random.default_rng(5).standard_normal(grid_shape(sgrid))
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
    assert np.array_equal(d_axis(sgrid, f, 0), d_r)
    assert np.array_equal(d_axis(sgrid, f, 1), d_theta)


def test_l6_norm_matches_sixth_power(sgrid):
    for seed in range(4):
        f = premerge_scalar_field(seed, sgrid)
        ref = integrate(sgrid, f**6) ** (1.0 / 6.0)
        assert abs(l6_norm(sgrid, f) - ref) <= 1e-15 * ref


def test_verify_inequalities_builds_each_tangent_field_once(tmp_path,
                                                            monkeypatch):
    from nsplab.cli import main
    calls = []
    build = iq._tangent_modes

    def counted(seed, modes):
        calls.append(seed)
        return build(seed, modes)

    monkeypatch.setattr(iq, "_tangent_modes", counted)
    config = Path(__file__).parents[1] / "configs" / "quick.cfg"
    assert main(["verify-inequalities", "--config", str(config),
                 "--out", str(tmp_path), "--set", "ineqlab.n_fields=7"]) == 0
    # n_fields factor builds for the shared div-curl/pairing pass, 3 for
    # trace scaling
    assert len(calls) == 7 + 3


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nr=st.integers(16, 48), ntheta=st.integers(8, 24),
       nphi=st.integers(8, 32), r_inner=st.floats(0.5, 4.0),
       outer=st.floats(1.5, 8.0), modes=st.integers(1, 4),
       seed=st.integers(min_value=0))
def test_factor_path_matches_the_grid_operators(nr, ntheta, nphi, r_inner,
                                                outer, modes, seed):
    # the per-field operators on the 3-D grid are the oracle of the factor
    # path; 1e-12 is the inequality-ratio tolerance of the benchmark gate
    grid = SphericalGrid(r_inner, outer * r_inner, nr, ntheta, nphi)

    def close(got, want):
        return abs(got - want) <= 1e-12 * abs(want)

    def close_traces(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    v = tangent_field(seed, grid, modes)
    m = _tangent_member(seed, grid, modes)
    assert close(math.sqrt(m.grad_sq), grad_norm(v))
    assert close(math.sqrt(m.div_sq) + math.sqrt(m.curl_sq),
                 div_curl_norm(v))
    assert close_traces(sphere_traces(m.inner)[0], inner_traces(v))
    v_sq = boundary_l2_sq(grid, inner_traces(v))
    assert close(_sphere_sq(grid, m.inner)[0], v_sq)

    f = premerge_scalar_field(seed, grid, modes)
    scalar = iq._batch(iq._scalar_modes, seed, 1, grid, modes)
    assert close(iq._gram(grid, [iq._cube(scalar)])[0] ** (1.0 / 6.0),
                 l6_norm(grid, f))
    gf = grad_scalar(grid, f)
    comps = iq._scalar_gradient(scalar)
    assert close(math.sqrt(iq._vector_sq(grid, comps)[0]), l2_norm_vec(gf))
    assert close_traces(sphere_traces(_inner(comps))[0], inner_traces(gf))
    # a pairing can vanish (members of different azimuthal orders), so it
    # is held to 1e-12 of its Cauchy-Schwarz bound on the sphere
    pairing = iq._pairings(grid, m.inner, _inner(comps))[0, 0]
    want = boundary_pairings(grid, inner_traces(v)[None],
                             inner_traces(gf)[None])[0, 0]
    scale = math.sqrt(v_sq * boundary_l2_sq(grid, inner_traces(gf)))
    assert abs(pairing - want) <= 1e-12 * scale


def test_batched_pairings_match_each_pair(sgrid):
    # the Gram over the sphere of the factor pieces against the traces
    # multiplied out on (theta, phi) and integrated pair by pair
    ens = tangent_ensemble(sgrid, 4, seed=5)
    scalars = iq._scalar_gradient(iq._batch(iq._scalar_modes, 0, 3, sgrid, 3))
    pairs = iq._pairings(sgrid, ens.inner, _inner(scalars))
    g = sphere_traces(_inner(scalars))
    for i, tv in enumerate(sphere_traces(ens.inner)):
        for j, tg in enumerate(g):
            direct = float(boundary_integral(sgrid, np.sum(tv * tg, 0)))
            assert pairs[i, j] == pytest.approx(direct, rel=1e-13, abs=1e-15)


def test_div_curl_boundary_identity_converges_at_second_order():
    # ||grad v||^2 - ||div v||^2 - ||curl v||^2 = R^-1 int_{r=R} |v|^2 dS
    # for fields tangent to the sphere r = R and vanishing at R_max
    # (Grisvard 1985, sec. 3.1; von Wahl 1992); the factor path makes grids
    # of 512 x 256 x 256 cheap
    for seed in (1, 2, 3):
        errors = []
        for n in (128, 256, 512):
            grid = SphericalGrid(1.0, 4.0, n, n // 2, n // 2)
            m = _tangent_member(seed, grid, 3)
            boundary = _sphere_sq(grid, m.inner)[0] / grid.r_inner
            errors.append((m.grad_sq - m.div_sq - m.curl_sq) / boundary - 1.0)
        assert abs(errors[-1]) < 2e-3
        order = math.log2(errors[-2] / errors[-1])
        assert 1.9 <= order <= 2.1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nr=st.integers(16, 48), ntheta=st.integers(8, 24),
       nphi=st.integers(8, 32), r_inner=st.floats(0.5, 4.0),
       outer=st.floats(1.5, 8.0), modes=st.integers(1, 4),
       seed=st.integers(min_value=0), n=st.integers(2, 6))
def test_batch_members_equal_batches_of_one(nr, ntheta, nphi, r_inner, outer,
                                            modes, seed, n):
    # member i of one batched evaluation is the batch of one of seed + i,
    # bit for bit: the reports do not depend on the ensemble size
    grid = SphericalGrid(r_inner, outer * r_inner, nr, ntheta, nphi)
    batch = tangent_ensemble(grid, n, seed, modes)
    scalars = iq._batch(iq._scalar_modes, seed, n, grid, modes)
    comps = iq._scalar_gradient(scalars)
    g_sq = iq._vector_sq(grid, comps)
    g_inner = _inner(comps)
    # every member has v_r(R) = 0, vanishes beyond the cut-off, and
    # differs from the member of the next seed
    assert np.all(batch.inner[0][0] == 0.0)
    far = grid.r >= grid.r_inner + CUT_END * (grid.r_outer - grid.r_inner)
    assert far.any()
    tangents = iq._batch(iq._tangent_modes, seed, n, grid, modes)
    for rad in [iq._tangent_radial(tangents, c) for c in range(3)] + [
            scalars.radial_stack(0)]:
        assert np.all(rad[..., far] == 0.0)
    assert len(set(batch.grad_sq)) == n
    for i in range(n):
        one = _tangent_member(seed + i, grid, modes)
        for name in MEMBER_FIELDS:
            assert np.array_equal(getattr(batch, name)[i], getattr(one, name))
        assert _same_pieces(_member_pieces(batch.inner, i), one.inner)
        one = _scalar_gradient(seed + i, grid, modes)
        assert g_sq[i] == iq._vector_sq(grid, one)[0]
        assert _same_pieces(_member_pieces(g_inner, i), _inner(one))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nr=st.integers(16, 48), ntheta=st.integers(8, 24),
       nphi=st.integers(8, 32), r_inner=st.floats(0.5, 4.0),
       outer=st.floats(1.5, 8.0), modes=st.integers(1, 4),
       seed=st.integers(min_value=0), n=st.integers(1, 4))
def test_l6_numerator_product_matches_the_grid_field(nr, ntheta, nphi,
                                                     r_inner, outer, modes,
                                                     seed, n):
    # 1e-12 is the inequality-ratio tolerance of the benchmark gate
    grid = SphericalGrid(r_inner, outer * r_inner, nr, ntheta, nphi)
    cube = iq._cube(iq._batch(iq._scalar_modes, seed, n, grid, modes))
    norms = iq._gram(grid, [cube]) ** (1.0 / 6.0)
    for i, got in enumerate(norms):
        want = l6_norm(grid, premerge_scalar_field(seed + i, grid, modes))
        assert abs(got - want) <= 1e-12 * want


def test_tangent_ensemble_allocates_little_besides_its_traces():
    # the ensemble keeps its traces as pieces at r = R: the whole pass
    # peaks below the (n, 3, ntheta, nphi) trace stack that it once held,
    # which multiplied-out traces would alone reach
    n, grid = 100, SphericalGrid(1.0, 16.0, 64, 32, 64)
    tracemalloc.start()
    try:
        tangent_ensemble(grid, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 3 * grid.theta.size * grid.phi.size


def test_ensemble_reports_allocate_no_3d_field():
    # every seeded report works on 1-D factors: at 256x128x256 one 3-D
    # field takes 8 nr ntheta nphi bytes (about 64 MB), and no report comes
    # near that
    shape = (256, 128, 256)
    grid = SphericalGrid(1.0, 16.0, *shape)
    tracemalloc.start()
    try:
        ens = tangent_ensemble(grid, 5)
        div_curl_report(ens)
        boundary_pairing_report(ens, 5)
        sobolev_l6_report(grid, 5)
        verify_trace_scaling(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.r.size * grid.theta.size * grid.phi.size


def test_l6_gram_runs_in_bounded_passes():
    # the (members, terms, terms) products of the Gram of f^3 grow as
    # C(modes + 2, 3)^2 per member: at modes = 12 one pass over 100
    # members traced a 252 MiB peak; bounded passes give the values of a
    # member-by-member loop
    grid = SphericalGrid(1.0, 16.0, 32, 16, 32)
    n, modes = 100, 12
    tracemalloc.start()
    try:
        rep = sobolev_l6_report(grid, n, 0, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    ratios = []
    for i in range(n):
        ms = iq._batch(iq._scalar_modes, i, 1, grid, modes)
        l6 = iq._gram(grid, [iq._cube(ms)])[0] ** (1.0 / 6.0)
        grad = math.sqrt(iq._vector_sq(grid, iq._scalar_gradient(ms))[0])
        ratios.append(l6 / grad)
    assert rep.max_ratio == pytest.approx(max(ratios), rel=1e-12)
    assert rep.mean_ratio == pytest.approx(np.mean(ratios), rel=1e-12)


# (max_ratio, mean_ratio) of the six reports of `nsplab verify-inequalities`
# on configs/acceptance.cfg at 64x32x64 (criteria 09-12), per seed: the
# seeded streams and every step after them are held bit for bit, so a
# change to a draw, a factor or a summation order fails here.  Recorded
# with numpy 2.4.6 and scipy-openblas on x86-64 with AVX-512; a numpy
# build whose cos or exp rounds differently moves the last bits
PINNED_REPORTS = {
    0: {
        "div_curl": (0.7620573525705716, 0.7187694642330134),
        "trace_scaling": (0.001406228390875762, 0.001406228390875762),
        "boundary_pairing": (0.03132017192997316, 0.0011392803958070541),
        "sobolev_l6": (0.2001447513824084, 0.13195403253303165),
        "lame_gradient_case": (0.6143733242609287, 0.40192370618796014),
        "poisson_regularity": (0.999998932437637, 0.9144627435019842),
    },
    17: {
        "div_curl": (0.7620573525705716, 0.7185351911615032),
        "trace_scaling": (0.017973115315227123, 0.017973115315227123),
        "boundary_pairing": (0.027299354180750086, 0.0010730126274142648),
        "sobolev_l6": (0.20427148236011858, 0.1311326952792289),
        "lame_gradient_case": (0.5490285045578802, 0.42110110452589805),
        "poisson_regularity": (0.999998932437637, 0.9179657631665075),
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_REPORTS))
def test_seeded_reports_are_pinned(tmp_path, seed):
    from nsplab.cli import main
    config = Path(__file__).parents[1] / "configs" / "acceptance.cfg"
    assert main(["verify-inequalities", "--config", str(config),
                 "--out", str(tmp_path), "--seed", str(seed),
                 "--set", "ineqlab.nr=64", "--set", "ineqlab.ntheta=32",
                 "--set", "ineqlab.nphi=64"]) == 0
    got = json.loads((tmp_path / "inequalities.json").read_text())
    for name, pinned in PINNED_REPORTS[seed].items():
        assert (got[name]["max_ratio"], got[name]["mean_ratio"]) == pinned


def test_draw_helpers_read_the_stream_as_numpy_does():
    # the same values, the same next draws and the same generator state
    # (PCG64 keeps half of a 64-bit draw for the next 32-bit one)
    for seed in range(10_000):
        ours, theirs = (np.random.default_rng([seed, 13]) for _ in range(2))
        assert iq._uniform(ours, 0.1, 0.7) == theirs.uniform(0.1, 0.7)
        assert ours.random() == theirs.random()
        assert iq._uniform(ours, -1.0, 1.0) == theirs.uniform(-1.0, 1.0)
        assert ours.integers(0, 5) == theirs.integers(0, 5)
        assert iq._sign(ours) == theirs.choice([-1.0, 1.0])
        assert ours.integers(0, 2) == theirs.integers(0, 2)
        assert iq._sign(ours) == theirs.choice([-1.0, 1.0])
        assert ours.random() == theirs.random()
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("build, key, n_comp, n_phases",
                         [(iq._tangent_modes, 3, 3, 4),
                          (iq._scalar_modes, 7, 1, 3)],
                         ids=["tangent", "scalar"])
def test_mode_sum_factors_equal_the_mode_by_mode_build(build, key, n_comp,
                                                       n_phases):
    # the draws scaled after the fact and one cos per factor family over
    # all members and modes give each mode the bits of its own draws and
    # its own cos
    def check(grid, modes, n):
        ms = iq._batch(build, 0, n, grid, modes)
        for seed in range(n):
            want = mode_sum_factors(np.random.default_rng([seed, key]), grid,
                                    modes, n_comp, n_phases)
            got = (ms.amps, ms.radial, ms.polar, ms.azimuthal)
            for g, w in zip(got, want):
                assert np.array_equal(g[seed], w)

    for cells in ((16, 8, 8), (32, 16, 32), (64, 32, 64)):
        for shell in ((1.0, 16.0), (0.5, 3.0)):
            for modes in (1, 3, 5):
                check(SphericalGrid(*shell, *cells), modes, 14)
    check(SphericalGrid(1.0, 16.0, 16, 8, 8), 3, 2000)


def test_radial_sources_equal_the_member_draws():
    grid = RadialGrid(1.0, 16.0, 300, 2.0)
    stack = iq._radial_sources(range(4, 40), grid)
    for row, seed in zip(stack, range(4, 40)):
        assert np.array_equal(row, radial_source(seed, grid))


@pytest.mark.parametrize("n_cells, stretch", [(2000, 0.0), (1000, 3.0)],
                         ids=["uniform", "stretched"])
def test_radial_passes_equal_the_member_loops(n_cells, stretch, monkeypatch):
    # the members of every pass, bit for bit, for ensembles that end
    # inside, at and just past a pass
    grid = RadialGrid(1.0, 16.0, n_cells, stretch)
    step = iq._RADIAL_PASS_FLOATS // grid.n_nodes
    assert step > 2
    seed, visc = 5, 1.0
    want = {"poisson_regularity": poisson_regularity_ratios(grid, 100, seed),
            "lame_gradient_case": lame_ratios(grid, 100, seed, visc)}
    report, seen = iq._ensemble_report, {}

    def record(inequality, ratios):
        seen[inequality] = ratios
        return report(inequality, ratios)

    monkeypatch.setattr(iq, "_ensemble_report", record)
    for n in (1, step - 1, step, step + 1, 100):
        reps = (poisson_regularity_report(grid, n, seed),
                lame_report(grid, n, seed, visc))
        for rep in reps:
            ratios = want[rep.inequality][:n]
            assert np.array_equal(seen[rep.inequality], ratios)
            assert rep.n_samples == n
            assert rep.max_ratio == max(ratios)
            assert rep.mean_ratio == float(np.mean(ratios))


def test_lame_rows_equal_batches_of_one():
    # a stack with a trivial row (a constant potential): every row is the
    # batch of one of its potential
    g = RadialGrid(1.0, 2.0, 256)
    psi = np.stack([laplacian(g).solve_refined(radial_source(s, g))
                    for s in range(3)] + [np.full(g.n_nodes, 3.0)])
    ratios = iq._lame_ratios(g, psi, 3.0)
    reps = [verify_lame_gradient_case(g.field(row), 3.0) for row in psi]
    assert [rep.details for rep in reps] == [{}, {}, {}, {"trivial": True}]
    assert [rep.max_ratio for rep in reps] == list(ratios)
    assert ratios[3] == 0.0
