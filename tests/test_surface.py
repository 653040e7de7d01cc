"""The declared public surface of nsplab and the callers outside the
package that rely on it."""

import ast
import dataclasses
import importlib
import re
import types
from pathlib import Path

import pytest

import nsplab

ROOT = Path(__file__).parents[1]

# the 3-D per-field operators live in tests/oracles.py
MOVED = ("VectorField3", "_d_axis", "_d_phi", "grad_scalar", "divergence",
         "curl", "gradient_squared", "l2_norm", "l2_norm_vec", "grad_norm",
         "_div_curl_norm", "_traces")
# one-shot wrappers of the run workspace and of the E/D sample, the
# readers of the sampled columns that SeriesRecorder.finish replaced, the
# per-sample record, the library-side run digest, and the per-sample
# field wrapping (samples read the run loop's arrays)
DELETED = (("evolve", "compute_rhs"), ("evolve", "step_imex"),
           ("energy", "energy_E"), ("energy", "dissipation_D"),
           ("energy", "measure_viscous_constant"),
           ("energy", "lemma_remainder_constant"),
           ("energy", "basic_energy_identity_residual"), ("energy", "mass"),
           ("energy", "EnergySample"), ("evolve", "_default_digest"),
           ("evolve", "Tendencies"), ("evolve", "_fields"),
           ("evolve", "_arrays"))


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


def test_readme_library_sketch_names_are_exported():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch.*?```python\n(.*?)```", readme,
                       re.S).group(1)
    names = set(re.findall(r"\bnl\.(\w+)", sketch))
    assert {"build_radial_grid", "run_simulation"} <= names
    assert names <= set(nsplab.__all__)
    # the README lists the surface it declares
    listed = re.search(r"binds exactly these names:\n(.*?)\n\n", readme,
                       re.S).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == set(nsplab.__all__)


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


@pytest.mark.parametrize("name", MOVED)
def test_moved_oracle_names_are_gone_from_the_package(name):
    assert not hasattr(nsplab, name)
    assert not hasattr(importlib.import_module("nsplab.ineqlab"), name)


@pytest.mark.parametrize("module, name", DELETED)
def test_deleted_wrappers_are_gone(module, name):
    assert not hasattr(nsplab, name)
    assert not hasattr(importlib.import_module(f"nsplab.{module}"), name)


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
