import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from nsplab import (ParameterError, build_radial_grid, hessian_norm_radial,
                    solve_poisson_neumann, solve_shifted, weighted_l2_norm)
from nsplab.elliptic import laplacian
from nsplab.grids import RadialField
from oracles import banded_layout


def manufactured(grid):
    r = grid.r
    phi = np.exp(-((r - grid.r_inner) ** 2))
    d1 = -2.0 * (r - grid.r_inner) * phi
    d2 = (4.0 * (r - grid.r_inner) ** 2 - 2.0) * phi
    return phi, d2 + 2.0 / r * d1


def test_poisson_zero_source(shell16):
    sol = solve_poisson_neumann(shell16.zeros())
    assert np.max(np.abs(sol.phi.values)) == 0.0


def test_poisson_residual_certificate(shell16):
    rng = np.random.default_rng(3)
    q = shell16.field(rng.standard_normal(shell16.n_nodes))
    sol = solve_poisson_neumann(q)
    assert sol.residual_norm <= 1e-10 * weighted_l2_norm(q)


def test_poisson_manufactured_second_order():
    errs = []
    for n in (250, 500, 1000):
        g = build_radial_grid(1.0, 16.0, n)
        phi_m, q = manufactured(g)
        sol = solve_poisson_neumann(g.field(q))
        errs.append(np.max(np.abs(sol.phi.values - phi_m)))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_poisson_neumann_condition_discrete():
    g = build_radial_grid(1.0, 16.0, 1000)
    phi_m, q = manufactured(g)
    sol = solve_poisson_neumann(g.field(q))
    from nsplab import radial_derivative
    one_sided = radial_derivative(sol.phi, 1).values[0]
    assert abs(one_sided) < 5e-4  # analytic value is 0; O(h^2) residual


def test_poisson_zero_net_charge_outer_decay():
    # compensated double bump: the potential outside the support vanishes
    values = {}
    for r_max in (8.0, 16.0):
        g = build_radial_grid(1.0, r_max, int(200 * r_max))
        r = g.r
        bump = np.exp(-((r - 2.0) ** 2) * 4.0) - np.exp(-((r - 3.0) ** 2) * 4.0)
        q = bump - np.dot(g.weights, bump) / np.dot(g.weights,
                                                    np.ones_like(bump))
        sol = solve_poisson_neumann(g.field(q))
        values[r_max] = abs(sol.phi.values[-1])
    # bounded by C / r_max^2 with a modest constant
    for r_max, v in values.items():
        assert v <= 1.0 / r_max**2


def test_poisson_linearity(shell16):
    rng = np.random.default_rng(7)
    q1 = rng.standard_normal(shell16.n_nodes)
    q2 = rng.standard_normal(shell16.n_nodes)
    a, b = 2.5, -1.25
    s1 = solve_poisson_neumann(shell16.field(q1)).phi.values
    s2 = solve_poisson_neumann(shell16.field(q2)).phi.values
    s12 = solve_poisson_neumann(shell16.field(a * q1 + b * q2)).phi.values
    scale = np.max(np.abs(s12)) + 1.0
    assert np.max(np.abs(s12 - (a * s1 + b * s2))) < 1e-12 * scale


def test_shifted_zero_rhs(shell16):
    w = solve_shifted(1.0, shell16.zeros())
    assert np.max(np.abs(w.values)) == 0.0


def test_shifted_rejects_negative_shift(shell16):
    with pytest.raises(ParameterError):
        solve_shifted(-1.0, shell16.zeros())


def test_shifted_constant_balance():
    g = build_radial_grid(1.0, 21.0, 2000)
    w = solve_shifted(1.0, g.field(-np.ones(g.n_nodes)))
    plateau = w.values[g.r <= 6.0]
    assert np.max(np.abs(plateau - 1.0)) < 1e-6


def test_shifted_manufactured_recovery():
    errs = []
    for n in (250, 500):
        g = build_radial_grid(1.0, 16.0, n)
        w_m, lap = manufactured(g)
        rhs = lap - 1.0 * w_m
        w = solve_shifted(1.0, g.field(rhs))
        errs.append(np.max(np.abs(w.values - w_m)))
    assert errs[0] / errs[1] > 3.0


def test_comparison_principle(shell16):
    # rhs <= 0 everywhere implies solution >= 0 (M-matrix discretization)
    rng = np.random.default_rng(21)
    for _ in range(20):
        rhs = -np.abs(rng.standard_normal(shell16.n_nodes))
        w = solve_shifted(0.7, shell16.field(rhs))
        assert np.min(w.values) >= -1e-13


def test_apply_laplacian_annihilates_monopole(shell16):
    # 1/r is in the kernel of the interior stencil to roundoff
    f = shell16.field(2.0 / shell16.r)
    lap = (laplacian(shell16) @ f.values)[1:-1]
    assert np.max(np.abs(lap)) < 1e-10


def test_hessian_norm_examples(shell12):
    const = shell12.field(np.full(shell12.n_nodes, 4.0))
    assert hessian_norm_radial(const) < 1e-9
    g = build_radial_grid(1.0, 2.0, 512)
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
        sol = solve_poisson_neumann(q)
        ratios.append(hessian_norm_radial(sol.phi) / weighted_l2_norm(q))
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
    return _Stepper(SimpleNamespace(viscosity=True), ws, 0.05).cn


@pytest.mark.parametrize("n_cells", [16, 2000])
@pytest.mark.parametrize("stretch", [0.0, 1.5])
@pytest.mark.parametrize("operator", ["poisson", "shifted", "crank_nicolson"])
def test_factored_solve_matches_solve_banded(n_cells, stretch, operator):
    g = build_radial_grid(1.0, 4.0, n_cells, stretch)
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
    g = build_radial_grid(1.0, 16.0, 300)
    q = g.field(np.exp(-((g.r - 3.0) ** 2)))
    first = solve_poisson_neumann(q)
    second = solve_poisson_neumann(q)
    assert len(calls) == 1
    assert np.array_equal(first.phi.values, second.phi.values)
    solve_shifted(1.5, q)
    solve_shifted(1.5, q)
    assert len(calls) == 2


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_cells=st.integers(8, 400), stretch=st.floats(0.0, 3.0),
       r_outer=st.floats(2.0, 40.0),
       shift=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       seed=st.integers(0, 2**32 - 1))
def test_solve_is_solve_banded_with_certified_residual(n_cells, stretch,
                                                       r_outer, shift, seed):
    g = build_radial_grid(1.0, r_outer, n_cells, stretch)
    try:
        op = laplacian(g, shift)
    except ParameterError:  # spacing not below the inner radius
        assume(False)
    rhs = g.field(np.random.default_rng(seed).standard_normal(g.n_nodes))
    ab = banded_layout(op.sub, op.diag, op.sup)
    assert np.array_equal(op.solve(rhs.values),
                          solve_banded((1, 1), ab, rhs.values))
    if shift == 0.0:
        residual = solve_poisson_neumann(rhs).residual_norm
    else:
        w = solve_shifted(shift, rhs)
        residual = weighted_l2_norm(g.field(rhs.values - op @ w.values))
    assert residual <= 1e-10 * weighted_l2_norm(rhs)
