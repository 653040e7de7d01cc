import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from nsplab import ParameterError, RadialGrid, weighted_l2_norm
from nsplab.elliptic import laplacian
from nsplab.grids import differentiate
from oracles import banded_layout, hessian_norm_radial


def manufactured(grid):
    r = grid.r
    phi = np.exp(-((r - grid.r_inner) ** 2))
    d1 = -2.0 * (r - grid.r_inner) * phi
    d2 = (4.0 * (r - grid.r_inner) ** 2 - 2.0) * phi
    return phi, d2 + 2.0 / r * d1


def test_poisson_zero_source(shell16):
    phi = laplacian(shell16).solve_refined(np.zeros(shell16.n_nodes))
    assert np.max(np.abs(phi)) == 0.0


def test_poisson_residual_certificate(shell16):
    rng = np.random.default_rng(3)
    q = shell16.field(rng.standard_normal(shell16.n_nodes))
    op = laplacian(shell16)
    phi = op.solve_refined(q.values)
    residual = weighted_l2_norm(shell16.field(q.values - op @ phi))
    assert residual <= 1e-10 * weighted_l2_norm(q)


def test_poisson_manufactured_second_order():
    errs = []
    for n in (250, 500, 1000):
        g = RadialGrid(1.0, 16.0, n)
        phi_m, q = manufactured(g)
        phi = laplacian(g).solve_refined(q)
        errs.append(np.max(np.abs(phi - phi_m)))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_poisson_neumann_condition_discrete():
    g = RadialGrid(1.0, 16.0, 1000)
    phi_m, q = manufactured(g)
    phi = laplacian(g).solve_refined(q)
    one_sided = differentiate(g, phi, 1)[0]
    assert abs(one_sided) < 5e-4  # analytic value is 0; O(h^2) residual


def test_poisson_zero_net_charge_outer_decay():
    # compensated double bump: the potential outside the support vanishes
    values = {}
    for r_max in (8.0, 16.0):
        g = RadialGrid(1.0, r_max, int(200 * r_max))
        r = g.r
        bump = np.exp(-((r - 2.0) ** 2) * 4.0) - np.exp(-((r - 3.0) ** 2) * 4.0)
        q = bump - np.dot(g.weights, bump) / np.dot(g.weights,
                                                    np.ones_like(bump))
        values[r_max] = abs(laplacian(g).solve_refined(q)[-1])
    # bounded by C / r_max^2 with a modest constant
    for r_max, v in values.items():
        assert v <= 1.0 / r_max**2


def test_poisson_linearity(shell16):
    rng = np.random.default_rng(7)
    q1 = rng.standard_normal(shell16.n_nodes)
    q2 = rng.standard_normal(shell16.n_nodes)
    a, b = 2.5, -1.25
    op = laplacian(shell16)
    s1, s2, s12 = (op.solve_refined(q) for q in (q1, q2, a * q1 + b * q2))
    scale = np.max(np.abs(s12)) + 1.0
    assert np.max(np.abs(s12 - (a * s1 + b * s2))) < 1e-12 * scale


def test_shifted_zero_rhs(shell16):
    w = laplacian(shell16, 1.0).solve_refined(np.zeros(shell16.n_nodes))
    assert np.max(np.abs(w)) == 0.0


def test_shifted_rejects_negative_shift(shell16):
    for shift in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="shift must be finite"):
            laplacian(shell16, shift)


def test_shifted_constant_balance():
    g = RadialGrid(1.0, 21.0, 2000)
    w = laplacian(g, 1.0).solve_refined(-np.ones(g.n_nodes))
    plateau = w[g.r <= 6.0]
    assert np.max(np.abs(plateau - 1.0)) < 1e-6


def test_shifted_manufactured_recovery():
    errs = []
    for n in (250, 500):
        g = RadialGrid(1.0, 16.0, n)
        w_m, lap = manufactured(g)
        rhs = lap - 1.0 * w_m
        w = laplacian(g, 1.0).solve_refined(rhs)
        errs.append(np.max(np.abs(w - w_m)))
    assert errs[0] / errs[1] > 3.0


def test_comparison_principle(shell16):
    # rhs <= 0 everywhere implies solution >= 0 (M-matrix discretization)
    rng = np.random.default_rng(21)
    for _ in range(20):
        rhs = -np.abs(rng.standard_normal(shell16.n_nodes))
        w = laplacian(shell16, 0.7).solve_refined(rhs)
        assert np.min(w) >= -1e-13


def test_apply_laplacian_annihilates_monopole(shell16):
    # 1/r is in the kernel of the interior stencil to roundoff
    f = shell16.field(2.0 / shell16.r)
    lap = (laplacian(shell16) @ f.values)[1:-1]
    assert np.max(np.abs(lap)) < 1e-10


def test_outer_robin_row_converges_on_the_monopole():
    # 1/r satisfies phi' + phi/r = 0 at R_max, so the outer ghost row's
    # residual on it is its truncation error: first order in h (measured
    # 4.62e-6, 2.30e-6, 1.15e-6, 5.73e-7), while a wrong Robin term leaves
    # an O(1/h) residual that grows under refinement
    res = []
    for n in (100, 200, 400, 800):
        g = RadialGrid(1.0, 16.0, n)
        res.append(abs((laplacian(g) @ (1.0 / g.r))[-1]))
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert np.all((orders > 0.9) & (orders < 1.1)), orders
    assert res[-1] < 1e-6


def test_hessian_norm_examples(shell12):
    const = shell12.field(np.full(shell12.n_nodes, 4.0))
    assert hessian_norm_radial(const) < 1e-9
    g = RadialGrid(1.0, 2.0, 512)
    f = g.field(1.0 / g.r)
    # phi'' = 2/r^3 and phi'/r = -1/r^3 give |hess|^2 = 6 / r^6
    assert hessian_norm_radial(f) == pytest.approx(math.sqrt(7.0 * math.pi),
                                                   rel=1e-4)


def test_poisson_regularity_constant_is_one(shell16):
    # radial identity: with phi' vanishing at both walls (guaranteed here by
    # zero net charge), ||hess phi|| = ||q|| exactly up to quadrature error
    rng = np.random.default_rng(4)
    ratios = []
    for i in range(20):
        r = shell16.r
        b1 = np.exp(-((r - rng.uniform(3, 6)) ** 2) / rng.uniform(0.5, 1.5) ** 2)
        b2 = np.exp(-((r - rng.uniform(6, 9)) ** 2) / rng.uniform(0.5, 1.5) ** 2)
        vals = b1 - b2 * float(np.dot(shell16.weights, b1)
                               / np.dot(shell16.weights, b2))
        q = shell16.field(vals)
        phi = shell16.field(laplacian(shell16).solve_refined(vals))
        ratios.append(hessian_norm_radial(phi) / weighted_l2_norm(q))
    assert max(ratios) < 1.0 + 1e-3
    assert min(ratios) > 0.999


# ------------------------------------------------------- factored kernel

def _cn_like(grid):
    """Crank-Nicolson operator I - (dt/2) nu L of the viscous step, built by
    the stepper itself."""
    from types import SimpleNamespace

    from nsplab.evolve import _Stepper, _viscous_operator
    ws = SimpleNamespace(nu_s=1.0 / (1.0 + 0.5 / grid.r),
                         visc=_viscous_operator(grid))
    return _Stepper(ws, 0.05).cn


@pytest.mark.parametrize("n_cells", [16, 2000])
@pytest.mark.parametrize("stretch", [0.0, 1.5])
@pytest.mark.parametrize("operator", ["poisson", "shifted", "crank_nicolson"])
def test_factored_solve_matches_solve_banded(n_cells, stretch, operator):
    g = RadialGrid(1.0, 4.0, n_cells, stretch)
    op = {"poisson": lambda: laplacian(g),
          "shifted": lambda: laplacian(g, 2.5),
          "crank_nicolson": lambda: _cn_like(g)}[operator]()
    ab = banded_layout(op.sub, op.diag, op.sup)
    rng = np.random.default_rng(n_cells)
    for _ in range(3):
        rhs = rng.standard_normal(g.n_nodes)
        assert np.array_equal(op.solve(rhs), solve_banded((1, 1), ab, rhs))


def test_solves_reuse_cached_factors(monkeypatch):
    from scipy.linalg import lapack
    calls = []
    dgttrf = lapack.dgttrf

    def counting(*args, **kwargs):
        calls.append(1)
        return dgttrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgttrf", counting)
    g = RadialGrid(1.0, 16.0, 300)
    q = np.exp(-((g.r - 3.0) ** 2))
    first = laplacian(g).solve_refined(q)
    second = laplacian(g).solve_refined(q)
    assert len(calls) == 1
    assert np.array_equal(first, second)
    laplacian(g, 1.5).solve_refined(q)
    laplacian(g, 1.5).solve_refined(q)
    assert len(calls) == 2


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_cells=st.integers(8, 400), stretch=st.floats(0.0, 3.0),
       r_outer=st.floats(2.0, 40.0),
       shift=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       seed=st.integers(0, 2**32 - 1))
def test_solve_is_solve_banded_with_certified_residual(n_cells, stretch,
                                                       r_outer, shift, seed):
    g = RadialGrid(1.0, r_outer, n_cells, stretch)
    try:
        op = laplacian(g, shift)
    except ParameterError:  # spacing not below the inner radius
        assume(False)
    rhs = g.field(np.random.default_rng(seed).standard_normal(g.n_nodes))
    ab = banded_layout(op.sub, op.diag, op.sup)
    assert np.array_equal(op.solve(rhs.values),
                          solve_banded((1, 1), ab, rhs.values))
    w = op.solve_refined(rhs.values)
    residual = weighted_l2_norm(g.field(rhs.values - op @ w))
    assert residual <= 1e-10 * weighted_l2_norm(rhs)


@pytest.mark.parametrize("stretch, shift", [(0.0, 0.0), (3.0, 0.0),
                                            (0.0, 2.5)])
def test_tridiagonal_takes_row_stacks(stretch, shift):
    # the k rows of a stack are the k columns of one gttrs call, and each
    # has the bits of its own solve, apply and refined solve
    g = RadialGrid(1.0, 16.0, 2000, stretch)
    op = laplacian(g, shift)
    rhs = np.random.default_rng(3).standard_normal((100, g.n_nodes))
    x, y, refined = op.solve(rhs), op @ rhs, op.solve_refined(rhs)
    for i, row in enumerate(rhs):
        assert np.array_equal(x[i], op.solve(row))
        assert np.array_equal(y[i], op @ row)
        assert np.array_equal(refined[i], op.solve_refined(row))
