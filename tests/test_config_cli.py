import json

import numpy as np
import pytest

from nsplab.cli import main
from nsplab.config import parse_config
from nsplab.errors import ConfigError

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


def test_gamma_above_two_needs_envelope_profile():
    with pytest.raises(ConfigError):
        parse_config(QUICK.replace("gamma = 2.0", "gamma = 3.0"))
    cfg = parse_config(QUICK.replace("gamma = 2.0", "gamma = 3.0").replace(
        "profile = admissible_bump", "profile = general_gamma_envelope"))
    assert cfg.fluid.gamma == 3.0


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


def test_cli_simulate_vacuum_abort(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--set", "evolve.delta=1e5"])
    assert code == 4
    summary = json.loads((out / "summary.json").read_text())
    # the initial data already crosses the vacuum guard
    assert summary["verdict"] == "ABORTED"
    assert summary["failure_time"] == 0.0


def test_cli_simulate_checkpoints(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--set", "evolve.checkpoints=on",
                 "--set", "evolve.t_end=0.1"])
    assert code == 0
    files = sorted((out / "checkpoints").glob("state_*.txt"))
    assert files and files[0].name == "state_00000000.txt"
    header = files[0].read_text().splitlines()[1]
    assert header == "r q u phi"


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


def test_cli_verify_inequalities_bad_resolution(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["verify-inequalities", "--config", str(cfg),
                 "--out", str(out), "--set", "ineqlab.ntheta=4"])
    assert code == 2


def test_cli_sweep_single_cell_matches_simulate(tmp_path, monkeypatch):
    monkeypatch.setenv("NSP_THREADS", "2")
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
    assert row["sup_ratio_E"] == pytest.approx(summary["sup_ratio_E"],
                                               rel=1e-12)
    assert row["verdict_pass"] == 1.0
    # row directory carries the same series bytes as the simulate run
    assert ((out_sweep / "row_000" / "series.csv").read_bytes()
            == (out_sim / "series.csv").read_bytes())


def test_cli_sweep_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("NSP_THREADS", "4")
    cfg = write_cfg(tmp_path, QUICK + "\n[sweep]\ndelta = 1e-4, 1e-3\n"
                                      "n_cells = 200, 400\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_sweep_keeps_rows_when_one_aborts(tmp_path):
    # the second row's initial data already crosses the vacuum guard
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--set", "sweep.delta=1e-3,1e7"])
    assert code == 4
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, [float(x) for x in line.split(",")]))
            for line in lines[1:]]
    assert len(rows) == 2
    assert rows[0]["verdict_pass"] == 1.0
    assert rows[1]["verdict_pass"] == 0.0
    assert rows[1]["delta"] == 1e7


def test_cli_unreadable_config(tmp_path):
    assert main(["steady", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")]) == 2


def test_cli_sweep_amplitude_robustness_and_convergence(tmp_path, monkeypatch):
    monkeypatch.setenv("NSP_THREADS", "4")
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
