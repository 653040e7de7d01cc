"""Command-line entry point: steady, simulate, verify-inequalities, sweep.

Exit codes: 0 success, 2 config/parameter error, 3 certificate or verdict
failure, 4 runtime abort (vacuum / non-finite values).  All randomness flows
from the single seed recorded in the outputs; CSV values are written with
full round-trip precision so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import energy as energy_mod
from . import ineqlab
from .config import AppConfig, parse_config
from .errors import (IterationError, NsplabError, ParameterError,
                     SimulationAbort, VacuumError)
from .evolve import SimConfig, run_simulation
from .steady import (check_subsuper, compatibility_residual,
                     profile_supersolution, solve_steady_monotone,
                     steady_regularity_report, subsolution_phi, write_profile)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERDICT = 3
EXIT_RUNTIME = 4

CSV_COLUMNS = ("t", "E", "D", "D_no_qtt", "mass", "E_basic",
               "identity_residual", "min_density")


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _series_csv(path: Path, series: energy_mod.TimeSeries) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for s in series.samples:
        lines.append(",".join(_fmt(getattr(s, c)) for c in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _build_grid(cfg: AppConfig):
    return cfg.radial_grid()


def _build_steady(cfg: AppConfig, grid):
    profile = cfg.background(grid)
    return profile, solve_steady_monotone(cfg.fluid.gamma, profile, grid,
                                          tol=cfg.steady["tol"],
                                          max_iter=cfg.steady["max_iter"])


def cmd_steady(cfg: AppConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    grid = _build_grid(cfg)
    gamma = cfg.fluid.gamma
    profile, steady = _build_steady(cfg, grid)

    sub_cert = check_subsuper(subsolution_phi(gamma, grid), "sub", gamma,
                              profile, tol=1e-8)
    super_cert = check_subsuper(profile_supersolution(profile, gamma), "super",
                                gamma, profile, tol=1e-8)

    report = steady_regularity_report(steady, grid)
    residual_pass = steady.residual_elliptic <= 1e-6

    write_profile(steady.rho_tilde, outdir / "rho_tilde.txt")
    write_profile(steady.phi_tilde, outdir / "phi_tilde.txt")

    ok = (steady.bounds_ok and residual_pass and sub_cert.passed
          and super_cert.passed and report.stable_under_refinement
          and report.stable_under_widening)
    payload = {
        "gamma": gamma,
        "profile": profile.kind,
        "amplitude": profile.amplitude,
        "bounds_ok": steady.bounds_ok,
        "residual_elliptic": steady.residual_elliptic,
        "compatibility_residual": compatibility_residual(steady),
        "residual_pass": residual_pass,
        "iterations": [steady.iterations_super, steady.iterations_sub],
        "limit_gap": steady.limit_gap,
        "monotonicity_defect": steady.monotonicity_defect,
        "subsolution_certificate": asdict(sub_cert),
        "supersolution_certificate": asdict(super_cert),
        "regularity_norms": report.norms,
        "regularity_refined": report.refined_norms,
        "regularity_widened": report.widened_norms,
        "stable_under_refinement": report.stable_under_refinement,
        "stable_under_widening": report.stable_under_widening,
        "all_pass": ok,
        "seed": cfg.seed,
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_json(outdir / "certificate.json", payload)
    return EXIT_OK if ok else EXIT_VERDICT


def _sim_config(cfg: AppConfig, grid, steady, outdir: Path) -> SimConfig:
    """The run settings of cfg; with evolve.checkpoints on, checkpoints go
    to outdir/checkpoints, which is created here."""
    ev = cfg.evolve
    checkpoint_dir = None
    if ev["checkpoints"]:
        checkpoint_dir = outdir / "checkpoints"
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_dir = str(checkpoint_dir)
    return SimConfig(params=cfg.fluid, grid=grid, steady=steady,
                     delta=ev["delta"], t_end=ev["t_end"], dt=ev["dt"],
                     sponge_width=ev["sponge_width"],
                     sponge_rate=ev["sponge_rate"],
                     output_stride=ev["output_stride"],
                     init_kind=ev["init_kind"], mode=ev["mode"],
                     pressure=ev["pressure"], coupling=ev["coupling"],
                     viscosity=ev["viscosity"], margin=ev["margin"],
                     vacuum_floor=ev["vacuum_floor"],
                     checkpoint_dir=checkpoint_dir,
                     digest_extra=hashlib.sha256(
                         cfg.canonical.encode()).hexdigest())


def _summarize(series: energy_mod.TimeSeries, cfg: AppConfig,
               wall: float, failure_time=None) -> dict:
    samples = series.samples
    e0 = samples[0].E if samples else 0.0
    mass0 = samples[0].mass if samples else 0.0
    drift = max(abs(s.mass - mass0) for s in samples) if samples else 0.0
    out = {
        "config_digest": series.config_digest,
        "dt": series.dt,
        "n_samples": len(samples),
        "c_visc": series.c_visc,
        "E0": e0,
        "mass_drift": drift,
        "seed": cfg.seed,
        "wall_time_s": wall,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    if failure_time is not None:
        out["failure_time"] = failure_time
        out["verdict"] = "ABORTED"
    elif series.verdict is None:
        out["verdict"] = "SKIPPED (zero initial energy)"
    else:
        v = series.verdict
        out["verdict"] = "PASS" if v.passed else "FAIL"
        out["sup_ratio_E"] = v.sup_ratio_E
        out["sup_ratio_quadratic"] = v.sup_ratio_quadratic
        out["sup_ratio_quadratic_with_qtt"] = v.sup_ratio_quadratic_with_qtt
        out["margin"] = v.margin
        out["c_fit"] = v.c_fit
        if len(samples) >= 3:
            out["lemma_remainder_kappa"] = energy_mod.lemma_remainder_constant(
                series)
    return out


def cmd_simulate(cfg: AppConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    grid = _build_grid(cfg)
    _, steady = _build_steady(cfg, grid)
    try:
        series = run_simulation(_sim_config(cfg, grid, steady, outdir))
    except SimulationAbort as exc:
        wall = time.perf_counter() - t0
        if exc.series is None:  # aborted while building the initial data
            summary = {"verdict": "ABORTED", "failure_time": exc.t_fail,
                       "seed": cfg.seed, "wall_time_s": wall}
        else:
            _series_csv(outdir / "series.csv", exc.series)
            summary = _summarize(exc.series, cfg, wall,
                                 failure_time=exc.t_fail)
        _write_json(outdir / "summary.json", summary)
        return EXIT_RUNTIME
    wall = time.perf_counter() - t0
    _series_csv(outdir / "series.csv", series)
    _write_json(outdir / "summary.json", _summarize(series, cfg, wall))
    if series.verdict is not None and not series.verdict.passed:
        return EXIT_VERDICT
    return EXIT_OK


def cmd_verify_inequalities(cfg: AppConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    iq = cfg.ineqlab
    d = cfg.domain
    seed = cfg.seed
    sgrid = cfg.spherical_grid()
    rgrid = _build_grid(cfg)
    # one pass over the tangent fields serves both div-curl and pairing
    tangents = ineqlab.tangent_ensemble(sgrid, iq["n_fields"], seed,
                                        iq["modes"])
    reports = {
        "div_curl": ineqlab.div_curl_report(tangents),
        "trace_scaling": ineqlab.verify_trace_scaling(
            r_values=ineqlab.trace_radii(d["r_inner"]),
            outer_factor=iq["trace_outer_factor"], nr=iq["nr"],
            ntheta=iq["ntheta"], nphi=iq["nphi"], seed=seed,
            modes=iq["modes"]),
        "boundary_pairing": ineqlab.boundary_pairing_report(
            tangents, iq["n_scalars"], iq["allowance"]),
        "sobolev_l6": ineqlab.sobolev_l6_report(sgrid, iq["n_fields"], seed,
                                                iq["modes"]),
        "lame_gradient_case": ineqlab.lame_report(
            rgrid, iq["n_lame"], seed, mu=cfg.fluid.mu,
            lambda_=cfg.fluid.lambda_),
        "poisson_regularity": ineqlab.poisson_regularity_report(
            rgrid, iq["n_fields"], seed),
    }
    ok = all(r.passed for r in reports.values())
    payload = {name: asdict(r) for name, r in reports.items()}
    payload["seed"] = seed
    payload["grid"] = {"nr": iq["nr"], "ntheta": iq["ntheta"],
                       "nphi": iq["nphi"], "r_inner": d["r_inner"],
                       "r_outer": d["r_outer"]}
    payload["all_pass"] = ok
    payload["wall_time_s"] = time.perf_counter() - t0
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    _write_json(outdir / "inequalities.json", payload)
    return EXIT_OK if ok else EXIT_VERDICT


SWEEP_COLUMNS = ("gamma", "delta", "n_cells", "r_max", "E0", "sup_ratio_E",
                 "sup_ratio_quadratic", "c_fit", "mass_drift",
                 "steady_residual", "steady_compat_residual", "verdict_pass")


def _sweep_row(cfg: AppConfig, row_dir: Path) -> dict:
    """Run one sweep row.  A steady solve that fails to converge, a run that
    fails its time-step checks (CFL, explicit sponge) and a run that aborts
    leave the row's result columns zero and verdict_pass 0."""
    row_dir.mkdir(parents=True, exist_ok=True)
    row = {"gamma": cfg.fluid.gamma, "delta": cfg.evolve["delta"],
           "n_cells": cfg.domain["n_cells"], "r_max": cfg.domain["r_outer"],
           "steady_residual": 0.0, "steady_compat_residual": 0.0,
           "E0": 0.0, "sup_ratio_E": 0.0, "sup_ratio_quadratic": 0.0,
           "c_fit": 0.0, "mass_drift": 0.0, "verdict_pass": 0.0,
           "aborted": False}
    grid = _build_grid(cfg)
    try:
        _, steady = _build_steady(cfg, grid)
    except IterationError as exc:
        print(f"failed: {row_dir.name}: {exc}", file=sys.stderr)
        return row
    row["steady_residual"] = steady.residual_elliptic
    row["steady_compat_residual"] = compatibility_residual(steady)
    try:
        series = run_simulation(_sim_config(cfg, grid, steady, row_dir))
    except SimulationAbort as exc:
        print(f"aborted: {row_dir.name}: {exc}", file=sys.stderr)
        if exc.series is not None:
            _series_csv(row_dir / "series.csv", exc.series)
        row["aborted"] = True
        return row
    except ParameterError as exc:
        print(f"failed: {row_dir.name}: {exc}", file=sys.stderr)
        return row
    _series_csv(row_dir / "series.csv", series)
    v = series.verdict
    row.update({
        "E0": series.samples[0].E,
        "sup_ratio_E": v.sup_ratio_E if v else 0.0,
        "sup_ratio_quadratic": v.sup_ratio_quadratic if v else 0.0,
        "c_fit": v.c_fit if v else 0.0,
        "mass_drift": max(abs(s.mass - series.samples[0].mass)
                          for s in series.samples),
        "verdict_pass": 1.0 if (v is None or v.passed) else 0.0,
    })
    return row


def cmd_sweep(cfg: AppConfig, outdir: Path, raw_text: str,
              base_overrides: list[str]) -> int:
    """Every row config is parsed before the first row runs; the rows then
    run one after another in row order."""
    sw = cfg.sweep
    gammas = sw["gamma"] or [cfg.fluid.gamma]
    deltas = sw["delta"] or [cfg.evolve["delta"]]
    cells = sw["n_cells"] or [cfg.domain["n_cells"]]
    rmaxes = sw["r_max"] or [cfg.domain["r_outer"]]
    row_cfgs = [
        parse_config(raw_text, seed=cfg.seed, overrides=[
            *base_overrides, f"fluid.gamma={g}", f"evolve.delta={dl}",
            f"domain.n_cells={nc}", f"domain.r_outer={rm}"])
        for g, dl, nc, rm in itertools.product(gammas, deltas, cells, rmaxes)]
    results = [_sweep_row(row_cfg, outdir / f"row_{i:03d}")
               for i, row_cfg in enumerate(row_cfgs)]

    lines = [",".join(SWEEP_COLUMNS)]
    for row in results:
        lines.append(",".join(_fmt(row[c]) for c in SWEEP_COLUMNS))
    (outdir / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if any(row["aborted"] for row in results):
        return EXIT_RUNTIME
    all_pass = all(row["verdict_pass"] == 1.0 for row in results)
    return EXIT_OK if all_pass else EXIT_VERDICT


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nsplab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("steady", "simulate", "verify-inequalities", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--set", action="append", default=[], metavar="S.K=V",
                        help="override a config value (repeatable)")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed overriding [output] seed")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text, overrides=args.set, seed=args.seed)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "steady":
            return cmd_steady(cfg, outdir)
        if args.command == "simulate":
            return cmd_simulate(cfg, outdir)
        if args.command == "verify-inequalities":
            return cmd_verify_inequalities(cfg, outdir)
        return cmd_sweep(cfg, outdir, text, args.set)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationAbort, VacuumError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except NsplabError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
