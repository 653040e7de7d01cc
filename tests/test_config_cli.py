import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsplab import cli, evolve, run_simulation
from nsplab.cli import main
from nsplab.config import parse_config
from nsplab.errors import ConfigError

CONFIGS = Path(__file__).parents[1] / "configs"

QUICK = """
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
profile = admissible_bump
amplitude = 0.5

[evolve]
delta = 1e-3
t_end = 0.5
output_stride = 10

[ineqlab]
nr = 16
ntheta = 8
nphi = 8
n_fields = 5
n_scalars = 3
n_lame = 3

[output]
seed = 7
"""


def write_cfg(tmp_path, text=QUICK, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- parsing

def test_parse_defaults_and_values():
    cfg = parse_config(QUICK)
    assert cfg.fluid.gamma == 2.0
    assert cfg.domain["n_cells"] == 320
    assert cfg.evolve["dt"] == "auto"
    assert cfg.seed == 7


def test_parse_rejects_gamma_below_one():
    with pytest.raises(ConfigError):
        parse_config(QUICK.replace("gamma = 2.0", "gamma = 0.5"))


def test_parse_rejects_unknown_key():
    bad = QUICK.replace("mu = 0.5", "mu = 0.5\nturbo = on")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "turbo" in str(err.value)
    assert "line" in str(err.value)


@pytest.mark.parametrize("key", ["pressure", "coupling", "viscosity"])
def test_parse_rejects_per_term_switches(key):
    # a run always carries every term the diagnostics assume
    with pytest.raises(ConfigError) as err:
        parse_config(QUICK, overrides=[f"evolve.{key}=off"])
    assert f"evolve.{key}" in str(err.value)


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError):
        parse_config(QUICK + "\n[plotting]\nstyle = fancy\n")


def test_parse_missing_domain_section():
    text = "\n".join(line for line in QUICK.splitlines()
                     if not line.startswith("[domain]")
                     and not line.startswith("r_")
                     and not line.startswith("n_cells"))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "[domain]" in str(err.value)
    assert "r_inner" in str(err.value)  # lists the required keys


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError):
        parse_config(QUICK + "\n[fluid]\ngamma = 2.0\ngamma = 2.0\n")


def test_parse_type_errors_name_the_key():
    with pytest.raises(ConfigError) as err:
        parse_config(QUICK.replace("n_cells = 320", "n_cells = many"))
    assert "domain.n_cells" in str(err.value)


def test_overrides():
    cfg = parse_config(QUICK, overrides=["fluid.gamma=1.5",
                                         "evolve.delta=1e-4"])
    assert cfg.fluid.gamma == 1.5
    assert cfg.evolve["delta"] == 1e-4
    with pytest.raises(ConfigError):
        parse_config(QUICK, overrides=["fluid.warp=9"])
    with pytest.raises(ConfigError):
        parse_config(QUICK, overrides=["gamma=1.5"])


def test_seed_override():
    assert parse_config(QUICK, seed=123).seed == 123
    # the --seed flag is held to the same range as [output] seed
    with pytest.raises(ConfigError, match=r"\[output\]"):
        parse_config(QUICK, seed=-1)


def test_gamma_above_two_needs_envelope_profile():
    with pytest.raises(ConfigError):
        parse_config(QUICK.replace("gamma = 2.0", "gamma = 3.0"))
    cfg = parse_config(QUICK.replace("gamma = 2.0", "gamma = 3.0").replace(
        "profile = admissible_bump", "profile = general_gamma_envelope"))
    assert cfg.fluid.gamma == 3.0


def test_parse_empty_domain_header_uses_defaults():
    cfg = parse_config("[fluid]\n[domain]\n")
    assert cfg.domain == {"r_inner": 1.0, "r_outer": 16.0, "n_cells": 2000,
                          "stretch": 0.0}
    assert cfg.fluid.gamma == 2.0


# each range rule lives in the constructor or validator that owns the value;
# parse_config still rejects the value and names the section
@pytest.mark.parametrize("override, section", [
    ("domain.r_outer=0.5", "[domain]"),
    ("domain.n_cells=4", "[domain]"),
    ("steady.amplitude=1.5", "[steady]"),
    ("fluid.gamma=3.0", "[steady]"),
    ("evolve.delta=-1e-3", "[evolve]"),
    ("evolve.t_end=0", "[evolve]"),
    ("evolve.output_stride=0", "[evolve]"),
    ("evolve.dt=-0.1", "[evolve]"),
    ("evolve.vacuum_floor=2", "[evolve]"),
    ("evolve.sponge_rate=-5", "[evolve]"),
    ("evolve.sponge_width=-2", "[evolve]"),
    ("evolve.delta=inf", "[evolve]"),
    ("evolve.t_end=inf", "[evolve]"),
    ("evolve.t_end=nan", "[evolve]"),
    ("evolve.dt=nan", "[evolve]"),
    ("evolve.margin=-1", "[evolve]"),
    ("evolve.margin=nan", "[evolve]"),
    ("steady.tol=nan", "[steady]"),
    ("steady.tol=0", "[steady]"),
    ("steady.tol=inf", "[steady]"),
    ("ineqlab.ntheta=4", "[ineqlab]"),
    ("ineqlab.allowance=nan", "[ineqlab]"),
    ("ineqlab.allowance=inf", "[ineqlab]"),
    ("ineqlab.allowance=-1", "[ineqlab]"),
    ("ineqlab.modes=0", "[ineqlab]"),
    ("ineqlab.trace_outer_factor=0.5", "[ineqlab]"),
    ("ineqlab.trace_outer_factor=1e308", "[ineqlab]"),
    ("ineqlab.trace_outer_factor=1e100", "[ineqlab]"),
    ("ineqlab.trace_outer_factor=17", "[ineqlab]"),
    ("domain.r_outer=1e200", "[domain]"),
    ("domain.stretch=40", "stretch"),
    ("domain.stretch=710", "[domain]"),
    ("domain.stretch=1e308", "[domain]"),
    ("output.seed=-1", "[output]"),
])
def test_parse_owner_checks_name_the_section(override, section):
    with pytest.raises(ConfigError) as err:
        parse_config(QUICK, overrides=[override])
    assert section in str(err.value)
    # the message names the key, not the radius of the overflowing shell
    # or the spacing of the too-wide one
    if override.startswith("ineqlab.trace_outer_factor"):
        assert "trace_outer_factor" in str(err.value)


_VALUES = st.one_of(
    st.tuples(st.just("fluid.gamma"), st.floats(1.0, 2.0)),
    st.tuples(st.just("fluid.mu"), st.floats(0.01, 10.0)),
    st.tuples(st.just("domain.r_outer"), st.floats(1.5, 40.0)),
    st.tuples(st.just("domain.n_cells"), st.integers(8, 4000)),
    st.tuples(st.just("domain.stretch"), st.floats(0.0, 3.0)),
    st.tuples(st.just("steady.amplitude"), st.floats(0.0, 1.0)),
    st.tuples(st.just("steady.max_iter"), st.integers(1, 1000)),
    st.tuples(st.just("evolve.delta"), st.floats(0.0, 1.0)),
    st.tuples(st.just("evolve.t_end"), st.floats(1e-3, 100.0)),
    st.tuples(st.just("evolve.output_stride"), st.integers(1, 500)),
    st.tuples(st.just("ineqlab.nr"), st.integers(16, 128)),
    st.tuples(st.just("ineqlab.n_fields"), st.integers(1, 500)),
    st.tuples(st.just("output.seed"), st.integers(0, 2**31)),
)


def _with_value(text, target, value):
    """Config text with section.key = value written in (replacing any line
    that sets the key in that section)."""
    section, key = target.split(".")
    out, current = [], None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            current = stripped[1:-1]
        elif current == section and stripped.partition("=")[0].strip() == key:
            continue
        out.append(line)
        if stripped == f"[{section}]":
            out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_VALUES)
def test_override_equals_value_written_in_text(item):
    target, value = item
    by_override = parse_config(QUICK, overrides=[f"{target}={value!r}"])
    in_text = parse_config(_with_value(QUICK, target, repr(value)))
    assert by_override == in_text
    assert by_override.canonical == in_text.canonical


# -------------------------------------------------------------------- CLI

def test_cli_steady_success(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["all_pass"] is True
    assert (out / "rho_tilde.txt").exists()
    assert (out / "phi_tilde.txt").exists()
    rho = np.loadtxt(out / "rho_tilde.txt")
    assert rho.shape == (321, 2)


def test_cli_steady_constant_profile(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["steady", "--config", str(cfg), "--out", str(out),
                 "--set", "steady.profile=constant",
                 "--set", "steady.amplitude=0.0"])
    assert code == 0
    rho = np.loadtxt(out / "rho_tilde.txt")
    assert np.max(np.abs(rho[:, 1] - 1.0)) < 1e-9


def test_cli_bad_amplitude_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["steady", "--config", str(cfg), "--out", str(out),
                 "--set", "steady.amplitude=1.5"])
    assert code == 2


def test_cli_simulate_zero_delta(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--set", "evolve.delta=0.0"])
    assert code == 0
    lines = (out / "series.csv").read_text().strip().splitlines()
    assert lines[0] == "t,E,D,D_no_qtt,mass,E_basic,identity_residual,min_density"
    e_col = [float(row.split(",")[1]) for row in lines[1:]]
    assert max(e_col) <= 1e-12
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"].startswith("SKIPPED")


def test_cli_simulate_pass_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append((out / "series.csv").read_bytes())
    assert outs[0] == outs[1]
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["verdict"] == "PASS"


def test_cli_simulate_rejects_a_per_term_switch(tmp_path):
    # the scheme has no per-term switches: an unknown override target
    assert main(["simulate", "--config", str(CONFIGS / "quick.cfg"),
                 "--out", str(tmp_path),
                 "--set", "evolve.viscosity=off"]) == 2


def test_cli_simulate_vacuum_abort(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--set", "evolve.delta=1e5"])
    assert code == 4
    summary = json.loads((out / "summary.json").read_text())
    # the initial data already crosses the vacuum guard
    assert summary["verdict"] == "ABORTED"
    assert summary["failure_time"] == 0.0
    assert "vacuum guard" in summary["reason"]
    assert capsys.readouterr().err == f"aborted: {summary['reason']}\n"


def test_cli_simulate_unscalable_initial_data_aborts(tmp_path, capsys):
    # no amplitude brings the initial energy to delta = 2000; at delta =
    # 1e-200 it underflows to zero and at mu = 1e200 it overflows
    cfg = write_cfg(tmp_path)
    for override in ("evolve.delta=2000", "evolve.delta=1e-200",
                     "fluid.mu=1e200"):
        out = tmp_path / override
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--set", override])
        assert code == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "ABORTED"
        assert summary["failure_time"] == 0.0
        assert "could not scale" in summary["reason"]
        assert not (out / "series.csv").exists()
        assert capsys.readouterr().err == f"aborted: {summary['reason']}\n"


def test_cli_simulate_two_samples_fall_back_to_c_visc(tmp_path):
    # stride 83 keeps only the endpoints of the 83-step run: no centered
    # difference, so c_fit is the configured constant and there is no kappa
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(CONFIGS / "quick.cfg"),
                 "--out", str(out), "--set", "evolve.output_stride=83"])
    assert code == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_samples"] == 2
    assert summary["c_fit"] == summary["c_visc"]
    assert "lemma_remainder_kappa" not in summary
    # with every step sampled the fit and the constant are measured
    assert main(["simulate", "--config", str(CONFIGS / "quick.cfg"),
                 "--out", str(out), "--set", "evolve.output_stride=1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["c_fit"] != summary["c_visc"]
    assert "lemma_remainder_kappa" in summary


def test_cli_simulate_huge_margin_does_not_overflow(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / "quick.cfg"),
                 "--out", str(out), "--set", "evolve.margin=1e200"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "PASS"
    assert summary["margin"] == 1e200


@pytest.mark.parametrize("command, args, named", [
    ("verify-inequalities", ["--seed", "-1"], "[output]"),
    ("verify-inequalities", ["--set", "ineqlab.trace_outer_factor=1e100"],
     "trace_outer_factor"),
    ("steady", ["--set", "domain.stretch=1e308"], "[domain]"),
    ("steady", ["--set", "domain.stretch=40"], "stretch"),
])
def test_cli_rejects_at_parse_time(tmp_path, capsys, command, args, named):
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / "quick.cfg"),
                 "--out", str(out), *args]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_mid_run_abort_writes_partial_series(tmp_path, capsys):
    # the velocity bump piles up density until it crosses the vacuum guard
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--set", "evolve.delta=3000",
                 "--set", "evolve.init_kind=velocity_only"])
    assert code == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "ABORTED"
    assert 0.0 < summary["failure_time"] < 0.5
    assert "vacuum guard" in summary["reason"]
    lines = (out / "series.csv").read_text().strip().splitlines()
    assert len(lines) == summary["n_samples"] + 1 > 2
    assert capsys.readouterr().err == f"aborted: {summary['reason']}\n"


def test_cli_simulate_non_finite_sampled_tendency_aborts(tmp_path, capsys,
                                                        monkeypatch):
    # an evaluation of the explicit tendencies that is not finite at the
    # state after step 10, a sampled state at stride 10, aborts the run
    # there with its partial series
    calls = []
    real_rhs, real_init = evolve._Workspace.rhs, evolve.init_perturbation

    def init(*args, **kwargs):
        # count only the run loop's evaluations
        state = real_init(*args, **kwargs)
        calls.clear()
        return state

    def rhs(self, q, u, phi):
        q_t, u_t, lap_u = real_rhs(self, q, u, phi)
        calls.append(None)
        # the initial state's evaluation, then two per step
        if len(calls) == 1 + 2 * 10:
            u_t = np.full_like(u_t, np.inf)
        return q_t, u_t, lap_u

    monkeypatch.setattr(evolve, "init_perturbation", init)
    monkeypatch.setattr(evolve._Workspace, "rhs", rhs)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(write_cfg(tmp_path)),
                 "--out", str(out)])
    assert code == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "ABORTED"
    assert summary["n_samples"] == 1
    assert summary["failure_time"] == pytest.approx(10 * summary["dt"])
    assert summary["reason"] == "non-finite values produced during time step"
    lines = (out / "series.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert capsys.readouterr().err == f"aborted: {summary['reason']}\n"


def test_series_csv_is_the_series(tmp_path):
    # every CSV column of the run's TimeSeries, bit for bit
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / "quick.cfg"),
                 "--out", str(out)]) == 0
    cfg = parse_config((CONFIGS / "quick.cfg").read_text(encoding="utf-8"))
    grid = cli._build_grid(cfg)
    _, steady = cli._build_steady(cfg, grid)
    series = run_simulation(cli._sim_config(cfg, grid, steady, tmp_path))
    header = (out / "series.csv").read_text().splitlines()[0]
    assert tuple(header.split(",")) == cli.CSV_COLUMNS
    table = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1,
                       ndmin=2)
    assert table.shape == (series.column("t").size, len(cli.CSV_COLUMNS))
    for i, name in enumerate(cli.CSV_COLUMNS):
        assert table[:, i].tobytes() == series.column(name).tobytes(), name


def test_cli_simulate_checkpoints(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--set", "evolve.checkpoints=on",
                 "--set", "evolve.t_end=0.1"])
    assert code == 0
    files = sorted((out / "checkpoints").glob("state_*.txt"))
    assert files and files[0].name == "state_00000000.txt"
    lines = files[0].read_text().splitlines()
    assert lines[:2] == ["# t 0", "r q u phi"]
    assert len(lines[2:]) == 321
    assert all(len(row.split()) == 4 for row in lines[2:])


def test_cli_simulate_sponge_rate_beyond_heun_limit(tmp_path):
    # dt = 0.0119 here: a rate of 300 puts rate*dt = 3.6 past Heun's limit
    # of 2 (the run used to blow up at t = 0.3); 150 gives 1.8 and runs
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--set", "evolve.sponge_rate=300"]) == 2
    assert not (out / "series.csv").exists()
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--set", "evolve.sponge_rate=150"]) == 0


def test_cli_verify_inequalities(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["verify-inequalities", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        outs.append(json.loads((out / "inequalities.json").read_text()))
    for payload in outs:
        for block in ("div_curl", "trace_scaling", "boundary_pairing",
                      "sobolev_l6", "lame_gradient_case",
                      "poisson_regularity"):
            assert block in payload
        assert payload["all_pass"] is True
    for payload in outs:
        payload.pop("timestamp")
        payload.pop("wall_time_s")
    assert outs[0] == outs[1]


def test_cli_verify_inequalities_acceptance_at_64x32x64(tmp_path):
    # the criteria-09/10 ensembles at 64x32x64 pass: exit 0
    code = main(["verify-inequalities", "--config",
                 str(CONFIGS / "acceptance.cfg"), "--out", str(tmp_path),
                 "--set", "ineqlab.nr=64", "--set", "ineqlab.ntheta=32",
                 "--set", "ineqlab.nphi=64"])
    assert code == 0
    assert json.loads((tmp_path / "inequalities.json").read_text())[
        "all_pass"] is True


@pytest.mark.parametrize("override", ["ineqlab.n_fields=1",
                                      "ineqlab.n_scalars=1",
                                      "ineqlab.modes=6"])
def test_cli_verify_inequalities_batch_shape_edges(tmp_path, override):
    # batch-shape edges of the factor path: ensembles of one, six modes
    assert main(["verify-inequalities", "--config", str(CONFIGS / "quick.cfg"),
                 "--out", str(tmp_path), "--set", override]) == 0


def test_cli_verify_inequalities_bad_resolution(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["verify-inequalities", "--config", str(cfg),
                 "--out", str(out), "--set", "ineqlab.ntheta=4"])
    assert code == 2


@pytest.mark.parametrize("key", ["n_fields", "n_scalars", "n_lame"])
def test_cli_verify_inequalities_empty_ensemble(tmp_path, key):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["verify-inequalities", "--config", str(cfg),
                 "--out", str(out), "--set", f"ineqlab.{key}=0"])
    assert code == 2


def test_cli_sweep_single_cell_matches_simulate(tmp_path):
    cfg = write_cfg(tmp_path)
    out_sim = tmp_path / "sim"
    out_sweep = tmp_path / "sweep"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_sim)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out_sweep)]) == 0
    sweep_lines = (out_sweep / "sweep.csv").read_text().strip().splitlines()
    assert len(sweep_lines) == 2  # header + one row
    row = dict(zip(sweep_lines[0].split(","),
                   [float(x) for x in sweep_lines[1].split(",")]))
    summary = json.loads((out_sim / "summary.json").read_text())
    for key in ("E0", "sup_ratio_E", "sup_ratio_quadratic", "c_fit",
                "mass_drift"):
        assert row[key] == summary[key]
    assert row["verdict_pass"] == 1.0
    # row directory carries the same series bytes as the simulate run
    assert ((out_sweep / "row_000" / "series.csv").read_bytes()
            == (out_sim / "series.csv").read_bytes())


def test_cli_sweep_determinism(tmp_path):
    cfg = write_cfg(tmp_path, QUICK + "\n[sweep]\ndelta = 1e-4, 1e-3\n"
                                      "n_cells = 200, 400\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_sweep_writes_row_checkpoints(tmp_path):
    cfg = write_cfg(tmp_path)
    sweeps = []
    for flag in ("on", "off"):
        out = tmp_path / flag
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--set", f"evolve.checkpoints={flag}",
                     "--set", "evolve.t_end=0.1"]) == 0
        sweeps.append((out / "sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]
    assert not (tmp_path / "off" / "row_000" / "checkpoints").exists()
    files = sorted((tmp_path / "on" / "row_000" / "checkpoints")
                   .glob("state_*.txt"))
    assert files[0].name == "state_00000000.txt"
    first, header = files[-1].read_text().splitlines()[:2]
    assert first.split()[:2] == ["#", "t"] and header == "r q u phi"
    assert float(first.split()[2]) == pytest.approx(0.1, rel=1e-12)
    data = np.loadtxt(files[-1], skiprows=2)
    assert np.array_equal(data[:, 0], parse_config(QUICK).radial_grid().r)


def test_cli_sweep_keeps_rows_when_one_aborts(tmp_path, capsys):
    # the second row's initial data already crosses the vacuum guard
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--set", "sweep.delta=1e-3,1e7"])
    assert code == 4
    assert "aborted: row_001: density fell" in capsys.readouterr().err
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, [float(x) for x in line.split(",")]))
            for line in lines[1:]]
    assert len(rows) == 2
    assert rows[0]["verdict_pass"] == 1.0
    assert rows[1]["verdict_pass"] == 0.0
    assert rows[1]["delta"] == 1e7
    assert all(rows[1][k] == 0.0 for k in ("E0", "sup_ratio_E",
                                           "sup_ratio_quadratic", "c_fit",
                                           "mass_drift"))


def test_cli_sweep_keeps_rows_when_one_cannot_scale_its_initial_data(
        tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    # 1e-200: the initial energy underflows to zero
    for bad in (2000.0, 1e-200):
        out = tmp_path / str(bad)
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--set", f"sweep.delta=1e-3,{bad!r}",
                     "--set", "evolve.t_end=0.2"])
        assert code == 4
        assert ("aborted: row_001: could not scale initial data"
                in capsys.readouterr().err)
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, [float(x) for x in line.split(",")]))
                for line in lines[1:]]
        assert [r["delta"] for r in rows] == [1e-3, bad]
        assert rows[0]["verdict_pass"] == 1.0
        assert rows[1]["verdict_pass"] == 0.0
        assert all(rows[1][k] == 0.0 for k in ("E0", "sup_ratio_E",
                                               "sup_ratio_quadratic", "c_fit",
                                               "mass_drift"))


def test_cli_sweep_keeps_rows_when_one_steady_solve_fails(tmp_path):
    # gamma = 2 converges in 10 iterations; gamma = 1 needs more than 15
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--set", "steady.max_iter=15", "--set", "sweep.gamma=2.0,1.0",
                 "--set", "evolve.t_end=0.2"])
    assert code == 3
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, [float(x) for x in line.split(",")]))
            for line in lines[1:]]
    assert [r["gamma"] for r in rows] == [2.0, 1.0]
    assert rows[0]["verdict_pass"] == 1.0
    assert rows[0]["steady_residual"] > 0.0
    assert all(v == 0.0 for k, v in rows[1].items()
               if k not in ("gamma", "delta", "n_cells", "r_max"))
    assert (out / "row_000" / "series.csv").exists()
    assert not (out / "row_001" / "series.csv").exists()


def test_cli_sweep_keeps_rows_when_one_fails_its_dt_check(tmp_path, capsys):
    # at n_cells = 160 the CFL step doubles and sponge_rate * dt = 3.6
    # exceeds Heun's limit of 2; at 320 it is 1.8
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--set", "sweep.n_cells=320,160",
                 "--set", "evolve.sponge_rate=150",
                 "--set", "evolve.t_end=0.2"])
    assert code == 3
    assert "failed: row_001: sponge_rate * dt" in capsys.readouterr().err
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, [float(x) for x in line.split(",")]))
            for line in lines[1:]]
    assert [r["n_cells"] for r in rows] == [320.0, 160.0]
    assert rows[0]["verdict_pass"] == 1.0
    assert rows[1]["verdict_pass"] == 0.0
    assert all(rows[1][k] == 0.0 for k in ("E0", "sup_ratio_E",
                                           "sup_ratio_quadratic", "c_fit",
                                           "mass_drift"))
    assert (out / "row_000" / "series.csv").exists()
    assert not (out / "row_001" / "series.csv").exists()


def test_cli_sweep_rejects_bad_row_before_running(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--set", "sweep.r_max=16.0,0.5"])
    assert code == 2
    assert not (out / "row_000").exists()


def test_cli_sweep_rejects_row_too_coarse_for_the_laplacian(tmp_path, capsys):
    # at n_cells = 8 and stretch = 3 the outermost cell is wider than the
    # first interior radius, which the Laplacian's spacing rule forbids
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--set", "sweep.n_cells=320,8", "--set", "domain.stretch=3",
                 "--set", "evolve.t_end=0.2"])
    assert code == 2
    assert "[domain]" in capsys.readouterr().err
    assert not (out / "row_000").exists()


def test_cli_unreadable_config(tmp_path):
    assert main(["steady", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")]) == 2


def test_cli_sweep_amplitude_robustness_and_convergence(tmp_path):
    cfg = write_cfg(tmp_path, QUICK + "\n[sweep]\ndelta = 1e-4, 1e-3\n"
                                      "n_cells = 320, 640\n")
    out = tmp_path / "out"
    # gamma != 2 so the density is a nonlinear function of the potential and
    # the compatibility defect shows its O(h^2) discretization signature
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--set", "fluid.gamma=1.5"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, [float(x) for x in line.split(",")]))
            for line in lines[1:]]
    assert len(rows) == 4
    # stability ratio robust across amplitudes at fixed resolution
    for n in (320.0, 640.0):
        sups = [r["sup_ratio_E"] for r in rows if r["n_cells"] == n]
        assert abs(sups[0] - sups[1]) / max(sups) < 0.30
    # the steady compatibility residual drops ~4x per doubling
    for d in (1e-4, 1e-3):
        res = {r["n_cells"]: r["steady_compat_residual"]
               for r in rows if r["delta"] == d}
        assert 3.0 < res[320.0] / res[640.0] < 5.0
