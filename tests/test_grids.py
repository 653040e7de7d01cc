import dataclasses
import inspect
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsplab
from nsplab import (ParameterError, RadialGrid, SimConfig, make_profile,
                    solve_steady_monotone, weighted_l2_norm)
from nsplab.grids import RadialField, _stencil, _stencil_rows, differentiate
from nsplab.ineqlab import SphericalGrid, lame_report, tangent_ensemble

from oracles import (dense_l2_norm, derivative_csr, fornberg_weights, gas,
                     geometric_nodes, radial_integral, sobolev_norm,
                     stencil_loop_differentiate, stencil_window,
                     vector_gradient_norm, vector_hessian_norm,
                     vector_sobolev_norm)


def test_uniform_nodes():
    g = RadialGrid(1.0, 2.0, 8)
    assert np.allclose(g.r, 1.0 + 0.125 * np.arange(9), atol=0.0)
    assert g.r[0] == 1.0 and g.r[-1] == 2.0


def test_grid_takes_only_its_build_values():
    # the nodes, the weights and the stencil flag are derived, never given
    assert list(inspect.signature(RadialGrid).parameters) == [
        "r_inner", "r_outer", "n_cells", "stretch"]
    g = RadialGrid(1.0, 16.0, 64, 1.0)
    for name in ("r", "weights", "uniform"):
        with pytest.raises(TypeError, match="unexpected keyword"):
            RadialGrid(1.0, 16.0, 64, **{name: getattr(g, name)})
        with pytest.raises(ValueError):
            dataclasses.replace(g, **{name: getattr(g, name)})
    # the build values are the end nodes, bit for bit
    assert (g.r_inner, g.r_outer) == (g.r[0], g.r[-1])


@pytest.mark.parametrize("stretch", [0.0, 2.0])
def test_replaced_build_value_gives_the_freshly_built_grid(stretch):
    g = RadialGrid(1.0, 16.0, 64, stretch)
    differentiate(g, g.r, 2)  # fill the derivative cache of g
    fine = dataclasses.replace(g, n_cells=2 * g.n_cells)
    fresh = RadialGrid(1.0, 16.0, 128, stretch)
    assert np.array_equal(fine.r, fresh.r)
    assert np.array_equal(fine.weights, fresh.weights)
    assert fine.uniform == fresh.uniform == (stretch == 0.0)
    assert not fine._cache  # no stencil of g rides along
    np.testing.assert_array_equal(differentiate(fine, fine.r**2, 2),
                                  differentiate(fresh, fresh.r**2, 2))


def test_stretched_grid_second_derivative_is_exact_on_cubics():
    # a stretched grid takes the 4-point second derivative, exact on cubics;
    # the 3-point one of equal spacing is off by (h_+ - h_-) f''' / 3
    g = RadialGrid(1.0, 16.0, 64, 1.0)
    assert not g.uniform
    d2 = differentiate(g, g.r**3, 2)
    assert np.max(np.abs(d2 - 6.0 * g.r)) < 1e-8 * 6.0 * g.r_outer


def test_degenerate_shell_rejected():
    with pytest.raises(ParameterError):
        RadialGrid(1.0, 1.0, 8)
    with pytest.raises(ParameterError):
        RadialGrid(-1.0, 2.0, 8)
    with pytest.raises(ParameterError):
        RadialGrid(1.0, 2.0, 4)
    with pytest.raises(ParameterError):
        RadialGrid(1.0, 2.0, 64, stretch=-0.5)


@pytest.mark.parametrize("n_cells", [8.5, 16.0, True, "16", None])
def test_cell_count_must_be_an_integer(n_cells):
    # a float count was stored as given but built as int(n_cells) cells:
    # 8.5 built 8, and its doubling for the regularity report's refinement 17
    with pytest.raises(ParameterError, match="n_cells must be an integer"):
        RadialGrid(1.0, 16.0, n_cells)
    grid = RadialGrid(1.0, 16.0, np.int64(16))
    assert grid.n_nodes == 17
    assert dataclasses.replace(grid, n_cells=2 * grid.n_cells).n_nodes == 33


_SHELL = RadialGrid(1.0, 4.0, 16)
_SGRID = SphericalGrid(1.0, 2.0, 16, 8, 8)
_FLAT = make_profile("constant", gas(2.0), 0.0, _SHELL)

# the count each door checks, its minimum and a call handing it a value
COUNT_DOORS = (
    pytest.param("n_cells", 8, lambda v: RadialGrid(1.0, 2.0, v),
                 id="RadialGrid"),
    pytest.param("nr", 16, lambda v: SphericalGrid(1.0, 2.0, v, 8, 8),
                 id="SphericalGrid.nr"),
    pytest.param("ntheta", 8, lambda v: SphericalGrid(1.0, 2.0, 16, v, 8),
                 id="SphericalGrid.ntheta"),
    pytest.param("nphi", 8, lambda v: SphericalGrid(1.0, 2.0, 16, 8, v),
                 id="SphericalGrid.nphi"),
    pytest.param("output_stride", 1, lambda v: SimConfig(output_stride=v),
                 id="SimConfig"),
    pytest.param("max_iter", 1, lambda v: solve_steady_monotone(
        _FLAT, tol=1e-10, max_iter=v), id="solve_steady_monotone"),
    pytest.param("modes", 1, lambda v: tangent_ensemble(_SGRID, 1, modes=v),
                 id="check_modes"),
    pytest.param("ensemble size", 1, lambda v: tangent_ensemble(_SGRID, v),
                 id="tangent_ensemble.n_fields"),
    pytest.param("seed", 0, lambda v: tangent_ensemble(_SGRID, 1, v),
                 id="tangent_ensemble.seed"),
    pytest.param("ensemble size", 1, lambda v: lame_report(_SHELL, v),
                 id="lame_report.n_samples"),
    pytest.param("seed", 0, lambda v: lame_report(_SHELL, 1, v),
                 id="lame_report.seed"),
)


@pytest.mark.parametrize("name, minimum, call", COUNT_DOORS)
@pytest.mark.parametrize("kind", ["float", "bool", "below"])
def test_every_count_is_checked_where_it_is_built(name, minimum, call, kind):
    # unchecked, a float count raised TypeError inside numpy or range
    # (max_iter, the ensemble sizes, modes), True ran as 1 (max_iter,
    # output_stride) and a negative seed raised numpy's ValueError
    value, message = {
        "float": (minimum + 0.5,
                  f"{name} must be an integer, got {minimum + 0.5}"),
        "bool": (True, f"{name} must be an integer, got True"),
        "below": (minimum - 1,
                  f"{name} must be >= {minimum}, got {minimum - 1}")}[kind]
    with pytest.raises(ParameterError) as err:
        call(value)
    assert str(err.value) == message


def test_geometric_stretch_matches_closed_form():
    g = RadialGrid(1.0, 16.0, 256, stretch=1.0)
    expected = geometric_nodes(1.0, 16.0, 256, 1.0)
    assert np.max(np.abs(g.r - expected)) < 1e-12 * 16.0
    widths = np.diff(g.r)
    ratios = widths[1:] / widths[:-1]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12


def test_stretch_below_double_precision_gives_uniform_grid():
    # exp(stretch/(n-1)) rounds to 1: the geometric widths are all equal
    for stretch in (1e-308, 1e-15):
        g = RadialGrid(1.0, 16.0, 64, stretch=stretch)
        assert g.uniform
        assert np.array_equal(g.r, RadialGrid(1.0, 16.0, 64).r)


def test_weights_positive_and_volume_exact():
    for stretch in (0.0, 1.0):
        g = RadialGrid(1.0, 2.0, 64, stretch=stretch)
        assert np.all(g.weights > 0.0)
        vol = 4.0 * math.pi * (2.0**3 - 1.0) / 3.0
        assert abs(float(np.sum(g.weights)) - vol) < 1e-12 * vol


def test_l2_norm_constant_field(shell12):
    f = shell12.field(np.ones(shell12.n_nodes))
    assert weighted_l2_norm(f) == pytest.approx(math.sqrt(28 * math.pi / 3),
                                                rel=1e-12)


def test_l2_norm_inverse_radius(shell12):
    f = shell12.field(1.0 / shell12.r)
    assert weighted_l2_norm(f) == pytest.approx(math.sqrt(4 * math.pi),
                                                rel=1e-5)


def test_l2_norm_matches_dense_oracle():
    g = RadialGrid(1.0, 2.0, 2000)
    func = lambda r: np.sin(3.0 * r) * np.exp(-r) + 0.3 * r
    ours = weighted_l2_norm(g.field(func(g.r)))
    oracle = dense_l2_norm(func, 1.0, 2.0)
    assert ours == pytest.approx(oracle, rel=1e-6)


def test_mass_of_inverse_square(shell12):
    f = shell12.field(1.0 / shell12.r**2)
    assert radial_integral(f) == pytest.approx(4.0 * math.pi, rel=1e-4)


def test_derivative_exact_on_quadratic(shell12):
    d = differentiate(shell12, shell12.r**2, 1)
    assert np.max(np.abs(d - 2.0 * shell12.r)) < 1e-10


def test_derivative_of_constant_is_zero(shell12):
    f = np.full(shell12.n_nodes, 3.7)
    # roundoff amplified by h**-order sets the floor, far below any signal
    for order in (1, 2, 3):
        assert np.max(np.abs(differentiate(shell12, f, order))) < 1e-6


def test_derivative_invalid_order(shell12):
    f = np.ones(shell12.n_nodes)
    with pytest.raises(ParameterError):
        differentiate(shell12, f, 4)
    with pytest.raises(ParameterError):
        differentiate(shell12, f, 0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_differentiate_rejects_values_off_the_grid(shell12):
    for values in (np.ones(shell12.n_nodes + 1), np.ones((2, 5))):
        with pytest.raises(ParameterError):
            differentiate(shell12, values, 1)


@pytest.mark.parametrize("n_cells, stretch", [(8, 0.0), (8, 2.0), (64, 0.0),
                                              (64, 1.0), (1000, 0.0),
                                              (1000, 3.0)])
def test_vectorized_weights_equal_scalar_fornberg(n_cells, stretch):
    g = RadialGrid(1.0, 16.0, n_cells, stretch=stretch)
    n = g.n_nodes
    for order in (1, 2, 3):
        los, w, size = _stencil_rows(g, order)
        for i in range(n):
            lo, hi = stencil_window(i, n, order, g.uniform)
            ref = fornberg_weights(g.r[i], g.r[lo:hi], order)
            assert los[i] == lo and size[i] == hi - lo
            assert np.array_equal(_bits(w[i, :hi - lo]), _bits(ref))
            assert not np.any(w[i, hi - lo:])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_cells=st.integers(8, 400),
       stretch=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       order=st.integers(1, 3))
def test_apply_equals_csr_matvec(n_cells, stretch, order):
    g = RadialGrid(1.0, 16.0, n_cells, stretch=stretch)
    csr = derivative_csr(g, order)
    x = np.random.default_rng(n_cells).standard_normal((5, g.n_nodes))
    stacked = differentiate(g, x, order)
    for row, d in zip(x, stacked):
        ref = csr @ row
        assert np.array_equal(_bits(d), _bits(ref))
        assert np.array_equal(_bits(differentiate(g, row, order)), _bits(ref))


def _stack_heights(g, order):
    """Stack heights about the block of B profiles of the flat pass (B - 1,
    B, B + 1 and 2B + 1: whole blocks and a last shorter one), 1 and 100."""
    b = _stencil(g, order).tiles.shape[1] // g.n_nodes
    return sorted({1, max(b - 1, 1), b, b + 1, 2 * b + 1, 100})


@pytest.mark.parametrize("n_cells, stretch", [(100, 0.0), (1000, 0.0),
                                              (1000, 2.0), (5000, 1.0)])
def test_block_pass_equals_csr_matvec_at_every_stack_height(n_cells,
                                                            stretch):
    g = RadialGrid(1.0, 16.0, n_cells, stretch=stretch)
    rng = np.random.default_rng(n_cells)
    for order in (1, 2, 3):
        csr = derivative_csr(g, order)
        for height in _stack_heights(g, order):
            x = rng.standard_normal((height + 6, g.n_nodes))
            x[2] = 0.0
            x[3] = -0.0
            x[4, ::3] = -0.0
            for f in (x[:height], x[:4], x[1:height + 1], x[::2],
                      x[:height, ::-1], x[0]):
                d = differentiate(g, f, order)
                assert d.shape == f.shape
                for row, dr in zip(np.atleast_2d(f), np.atleast_2d(d)):
                    assert np.array_equal(_bits(dr), _bits(csr @ row))


@pytest.mark.parametrize("stretch", [0.0, 1.0])
def test_block_pass_keeps_the_signed_zeros_of_the_stencil_loop(stretch):
    # rows of zeros of both signs: each row sums from its first product, so
    # an output whose products are all -0 stays -0 (csr @ row gives +0)
    g = RadialGrid(1.0, 16.0, 1000, stretch=stretch)
    rng = np.random.default_rng(7)
    for order in (1, 2, 3):
        for height in _stack_heights(g, order):
            x = np.where(rng.random((height, g.n_nodes)) < 0.5, 0.0, -0.0)
            d = differentiate(g, x, order)
            ref = stencil_loop_differentiate(g, x, order)
            assert np.array_equal(_bits(d), _bits(ref))
            assert np.any(np.signbit(d))


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, {(w.category, str(w.message)) for w in caught}


@pytest.mark.parametrize("n_cells, stretch", [(17, 0.0), (18, 0.0),
                                              (1000, 0.0), (1000, 2.0)])
def test_non_finite_values_give_the_stencil_loop_bits(n_cells, stretch):
    # the flat pass multiplies NaN weights at the end rows, where it reads
    # across profiles: NaN * inf is quiet, so no warning (tier-1 turns them
    # into errors) that the stencil loop would not raise
    g = RadialGrid(1.0, 16.0, n_cells, stretch=stretch)
    rng = np.random.default_rng(n_cells)
    for order in (1, 2, 3):
        for height in _stack_heights(g, order):
            for bad in ((np.inf, -np.inf), (np.nan,), (np.inf, np.nan)):
                x = rng.standard_normal((height, g.n_nodes))
                for v in bad:
                    x.reshape(-1)[rng.integers(0, x.size, 6)] = v
                x[:, 0], x[:, -1] = bad[0], bad[-1]
                d, raised = _recorded(differentiate, g, x, order)
                ref, loop_raised = _recorded(stencil_loop_differentiate, g,
                                             x, order)
                assert raised <= loop_raised
                if len(bad) == 2 and math.isnan(bad[1]):
                    # inf - inf is a NaN of the other sign, and where two
                    # NaNs meet numpy's add keeps either by the element's
                    # place in its loop: np.full(17, -nan) + np.full(17, nan)
                    # ends in +nan.  Only the values are the loop's here.
                    np.testing.assert_array_equal(d, ref)
                else:
                    assert np.array_equal(_bits(d), _bits(ref))


def test_cli_import_leaves_scipy_sparse_out():
    src = str(Path(nsplab.__file__).resolve().parents[1])
    code = "import sys, nsplab.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivative_second_order_convergence(order):
    errs = []
    for n in (200, 400):
        g = RadialGrid(1.0, 2.0, n)
        f = np.exp(-((g.r - 1.0) ** 2))
        s = g.r - 1.0
        exact = {
            1: -2 * s,
            2: 4 * s**2 - 2,
            3: 12 * s - 8 * s**3,
        }[order] * np.exp(-(s**2))
        errs.append(np.max(np.abs(differentiate(g, f, order) - exact)))
    assert errs[0] / errs[1] > 3.0


def test_stretched_grid_derivative_second_order():
    errs = []
    for n in (400, 800):
        g = RadialGrid(1.0, 2.0, n, stretch=1.0)
        f = np.sin(2.0 * g.r)
        exact = -4.0 * np.sin(2.0 * g.r)
        errs.append(np.max(np.abs(differentiate(g, f, 2) - exact)))
    assert errs[0] / errs[1] > 3.0


def test_sobolev_norm_zero_field(shell12):
    f = shell12.zeros()
    for k in range(4):
        assert sobolev_norm(f, k) == 0.0


def test_sobolev_k0_equals_l2(shell12):
    f = shell12.field(np.cos(shell12.r))
    assert sobolev_norm(f, 0) == weighted_l2_norm(f)


def test_sobolev_h1_inverse_radius():
    g = RadialGrid(1.0, 2.0, 2000)
    f = g.field(1.0 / g.r)
    # ||f||^2 = 4 pi, ||f'||^2 = 2 pi
    assert sobolev_norm(f, 1) == pytest.approx(math.sqrt(6 * math.pi), rel=1e-4)


def test_norm_homogeneity(shell12):
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(shell12.n_nodes)
    f = shell12.field(vals)
    g = shell12.field(3.0 * vals)
    for k in range(4):
        assert sobolev_norm(g, k) == pytest.approx(3.0 * sobolev_norm(f, k),
                                                   rel=1e-13)
    u = shell12.field(vals)
    u3 = shell12.field(3.0 * vals)
    assert vector_sobolev_norm(u3, 3) == pytest.approx(
        3.0 * vector_sobolev_norm(u, 3), rel=1e-13)


def test_triangle_inequality(shell12):
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = shell12.field(rng.standard_normal(shell12.n_nodes))
        b = shell12.field(rng.standard_normal(shell12.n_nodes))
        s = shell12.field(a.values + b.values)
        for k in range(4):
            assert sobolev_norm(s, k) <= sobolev_norm(a, k) \
                + sobolev_norm(b, k) + 1e-12


def test_integration_by_parts_compatibility():
    # int (f' g + f g' + 2 f g / r) dV telescopes to the wall term 4 pi r^2 f g
    residuals = []
    for n in (200, 400):
        g = RadialGrid(1.0, 2.0, n)
        f = np.sin(2.0 * g.r)
        h = np.exp(-g.r)
        df, dh = differentiate(g, np.stack((f, h)), 1)
        lhs = float(np.dot(g.weights, df * h + f * dh + 2.0 * f * h / g.r))
        boundary = 4.0 * math.pi * (g.r[-1] ** 2 * f[-1] * h[-1]
                                    - g.r[0] ** 2 * f[0] * h[0])
        residuals.append(abs(lhs - boundary))
    assert residuals[0] / residuals[1] > 3.0


def test_vector_gradient_norm_pure_dilation(shell12):
    # u = r has grad u = identity: |grad u|^2 = 3, over the shell volume
    u = shell12.field(shell12.r)
    vol = 4.0 * math.pi * 7.0 / 3.0
    assert vector_gradient_norm(u) == pytest.approx(math.sqrt(3.0 * vol),
                                                    rel=1e-10)


def test_vector_hessian_norm_linear_field_vanishes(shell12):
    u = shell12.field(shell12.r)
    assert vector_hessian_norm(u) < 1e-9


def test_vector_hessian_norm_cubic_field():
    # for u = r^3 the direct Cartesian index sum gives |grad^2 u|^2 = 60 r^2
    g = RadialGrid(1.0, 2.0, 2000)
    u = g.field(g.r**3)
    exact = math.sqrt(60.0 * 4.0 * math.pi * (2.0**5 - 1.0) / 5.0)
    assert vector_hessian_norm(u) == pytest.approx(exact, rel=1e-6)


def test_vector_norm_triangle_inequality(shell12):
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = shell12.field(rng.standard_normal(shell12.n_nodes))
        b = shell12.field(rng.standard_normal(shell12.n_nodes))
        s = shell12.field(a.values + b.values)
        for k in range(4):
            assert vector_sobolev_norm(s, k) <= vector_sobolev_norm(a, k) \
                + vector_sobolev_norm(b, k) + 1e-12


def test_field_validation(shell12):
    with pytest.raises(ParameterError):
        RadialField(np.ones(3), shell12)
    bad = np.ones(shell12.n_nodes)
    bad[0] = np.nan
    with pytest.raises(ParameterError):
        RadialField(bad, shell12)
