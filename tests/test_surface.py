"""The declared public surface of nsplab and the callers outside the
package that rely on it."""

import ast
import dataclasses
import importlib
import importlib.util
import math
import re
import types
from pathlib import Path

import pytest

import nsplab
from nsplab.config import parse_config

ROOT = Path(__file__).parents[1]

# the 3-D per-field operators, the 3-D L6 norm and inner-sphere
# contractions, the radial grid norms that only tests call, the per-term
# Sobolev sums (the sample row takes its norms in one stacked quadrature),
# and the batch-of-one forms of the stacked norms and of the Lame ratios
# live in tests/oracles.py (grids.integrate as radial_integral)
MOVED = ("VectorField3", "_d_axis", "_d_phi", "grad_scalar", "divergence",
         "curl", "gradient_squared", "l2_norm", "l2_norm_vec", "grad_norm",
         "_div_curl_norm", "_traces", "l6_norm", "_trace",
         "_boundary_integral", "_boundary_l2_sq", "_boundary_pairings",
         "integrate", "sobolev_norm", "vector_sobolev_norm",
         "vector_gradient_norm", "vector_hessian_norm", "hessian_norm_radial",
         "verify_lame_gradient_case", "sobolev_terms")
# one-shot wrappers of the run workspace and of the E/D sample, the
# readers of the sampled columns that the post-run pass replaced, the
# per-sample record and its recorder (a sample is its row) and the E_basic
# helper (the row computes it), the library-side run digest, the per-sample field
# wrapping (samples read the run loop's arrays), the second spellings
# of the gas law (FluidParams owns F and F') and of the run settings
# (SimConfig checks its own), and the run's second door to the Poisson
# solve (the run workspace holds the Laplacian), and the per-member 3-D
# L6 numerator (the L6 norm is the Gram of f^3 on the factors), the
# trace-scaling radii (the report reads them from its spherical grid), the
# Laplacian solve wrappers (every solve is laplacian(grid, shift)
# .solve_refined), the field wrapper of differentiate, the gas-only
# supersolution (profile_supersolution reads the gas from the profile), and
# the per-member mode-sum factors and radial source (a member only draws;
# its batch or pass builds the factors and the sources), and the second and
# third spellings of the radial quadrature (grids._integrals is the one),
# and the radial grid's builder function (RadialGrid builds itself from its
# four build values), and the spherical grid's (SphericalGrid builds itself
# from its five), the second spelling of the steady ceiling (it is the
# density of the supersolution) and the ensemble-size check (grids.
# _check_count checks every count)
DELETED = (("evolve", "compute_rhs"), ("evolve", "step_imex"),
           ("energy", "energy_E"), ("energy", "dissipation_D"),
           ("energy", "measure_viscous_constant"),
           ("energy", "lemma_remainder_constant"),
           ("energy", "basic_energy_identity_residual"), ("energy", "mass"),
           ("energy", "EnergySample"), ("evolve", "_default_digest"),
           ("evolve", "Tendencies"), ("evolve", "_fields"),
           ("evolve", "_arrays"), ("steady", "_Branch"),
           ("steady", "rho_from_phi"), ("evolve", "check_run_settings"),
           ("elliptic", "solve_poisson_values"), ("ineqlab", "_l6_norms"),
           ("ineqlab", "trace_radii"), ("elliptic", "solve_shifted"),
           ("elliptic", "solve_poisson_neumann"),
           ("elliptic", "PoissonSolution"), ("grids", "radial_derivative"),
           ("steady", "supersolution_phi"), ("energy", "SeriesRecorder"),
           ("energy", "basic_energy"), ("ineqlab", "_mode_sum"),
           ("ineqlab", "_random_radial_source"), ("grids", "_wsq"),
           ("grids", "_row_integrals"), ("grids", "build_radial_grid"),
           ("ineqlab", "build_spherical_grid"),
           ("steady", "profile_upper_bound"),
           ("ineqlab", "_check_ensemble_size"))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from nsplab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(nsplab.__all__))
    # every public name other than a submodule is declared
    public = {name for name, value in vars(nsplab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(nsplab.__all__)


def _readme_sketch() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Library sketch.*?```python\n(.*?)```", readme,
                     re.S).group(1)


def test_readme_library_sketch_names_are_exported():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"\bnl\.(\w+)", _readme_sketch()))
    assert {"RadialGrid", "run_simulation"} <= names
    assert names <= set(nsplab.__all__)
    # the README lists the surface it declares
    listed = re.search(r"binds exactly these names:\n(.*?)\n\n", readme,
                       re.S).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == set(nsplab.__all__)


def test_readme_library_sketch_runs(capsys):
    # the documented calls, verbatim, so they cannot drift behind the API
    namespace = {}
    exec(_readme_sketch(), namespace)
    verdict = namespace["series"].verdict
    assert verdict.passed
    assert capsys.readouterr().out == f"{verdict}\n"


def test_benchmark_child_imports_resolve():
    # every nsplab name the benchmark's child process imports, and every
    # attribute it reads off nsplab.cli
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text(
        encoding="utf-8"))
    wanted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith(
                "nsplab"):
            wanted += [(node.module, alias.name) for alias in node.names]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "cli"):
            wanted.append(("nsplab.cli", node.attr))
    assert ("nsplab.evolve", "init_perturbation") in wanted
    for module, name in wanted:
        owner = importlib.import_module(module)
        assert hasattr(owner, name) or importlib.import_module(
            f"{module}.{name}"), (module, name)


def test_benchmark_child_runs_its_q0_step():
    # the benchmark's own call path (cli._build_grid, cli._build_steady,
    # init_perturbation), so a signature change fails here and not only in
    # every benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    cfg = parse_config((ROOT / "configs" / "quick.cfg").read_text(
        encoding="utf-8"))
    q0_norm = child._q0_norm(cfg)
    assert math.isfinite(q0_norm) and q0_norm > 0.0


@pytest.mark.parametrize("name", MOVED)
def test_moved_oracle_names_are_gone_from_the_package(name):
    assert not hasattr(nsplab, name)
    for module in ("grids", "elliptic", "ineqlab"):
        assert not hasattr(importlib.import_module(f"nsplab.{module}"), name)


@pytest.mark.parametrize("module, name", DELETED)
def test_deleted_wrappers_are_gone(module, name):
    assert not hasattr(nsplab, name)
    assert not hasattr(importlib.import_module(f"nsplab.{module}"), name)


def _np_dot_calls(node, func=None):
    """(enclosing function, call) of every np.dot call under node."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "dot"
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "np"):
            yield func, child
        inner = child.name if isinstance(child, ast.FunctionDef) else func
        yield from _np_dot_calls(child, inner)


def test_radial_quadrature_has_one_home():
    # every sum_i w_i f_i of the package is grids._integrals: no other
    # module hands the weights to np.dot, and no other function of grids
    # calls np.dot
    for path in sorted((ROOT / "src" / "nsplab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, call in _np_dot_calls(tree):
            if path.name == "grids.py":
                assert func == "_integrals", func
                continue
            names = {n.attr if isinstance(n, ast.Attribute) else n.id
                     for arg in call.args for n in ast.walk(arg)
                     if isinstance(n, (ast.Attribute, ast.Name))}
            assert "weights" not in names, (path.name, func)


def test_discrete_norms_live_in_grids():
    grids = importlib.import_module("nsplab.grids")
    for name in ("_hessian_norms", "_vector_gradient_norms",
                 "_vector_hessian_norms", "_integrals"):
        assert callable(getattr(grids, name))
    # elliptic is the Laplacian and its tridiagonal type alone
    tree = ast.parse((ROOT / "src" / "nsplab" / "elliptic.py").read_text(
        encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not {name for name in imported
                if "norm" in name or name == "_integrals"}


def test_spherical_grid_has_no_3d_quadrature():
    # nothing in the package integrates a 3-D field or shapes its geometry
    # for one; the oracles do
    grid_type = importlib.import_module("nsplab.ineqlab").SphericalGrid
    for name in ("integrate", "shape", "geometry"):
        assert not hasattr(grid_type, name), name


def test_time_series_reads_times_through_column():
    # an instance, since a dataclass field without a default is no class
    # attribute
    assert not hasattr(nsplab.TimeSeries(columns={}, c_visc=1.0, dt=0.1), "t")


def test_sampled_values_are_columns_and_the_run_has_no_digest():
    series = nsplab.TimeSeries(columns={}, c_visc=1.0, dt=0.1)
    for name in ("samples", "grad_u_sq", "config_digest"):
        assert not hasattr(series, name)
    assert "digest_extra" not in {f.name for f in
                                  dataclasses.fields(nsplab.SimConfig)}
