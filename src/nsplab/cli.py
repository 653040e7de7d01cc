"""Command-line entry point: steady, simulate, verify-inequalities, sweep.

Exit codes: 0 success, 2 config/parameter error or unwritable output, 3
certificate or verdict failure, 4 runtime abort (vacuum / non-finite values).
All randomness flows from the single seed recorded in the outputs; CSV values
are written with full round-trip precision so reruns are byte-identical.
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
    rows = zip(*(series.column(c).tolist() for c in CSV_COLUMNS))
    lines = [",".join(CSV_COLUMNS), *(",".join(map(_fmt, r)) for r in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _build_grid(cfg: AppConfig):
    return cfg.radial_grid()


def _build_steady(cfg: AppConfig, grid):
    profile = cfg.background(grid)
    return profile, solve_steady_monotone(profile, tol=cfg.steady["tol"],
                                          max_iter=cfg.steady["max_iter"])


def cmd_steady(cfg: AppConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    grid = _build_grid(cfg)
    profile, steady = _build_steady(cfg, grid)

    sub_cert = check_subsuper(subsolution_phi(grid), "sub", profile, tol=1e-8)
    super_cert = check_subsuper(profile_supersolution(profile), "super",
                                profile, tol=1e-8)

    report = steady_regularity_report(steady)
    residual_pass = steady.residual_elliptic <= 1e-6

    write_profile(steady.rho_tilde, outdir / "rho_tilde.txt")
    write_profile(steady.phi_tilde, outdir / "phi_tilde.txt")

    ok = (steady.bounds_ok and residual_pass and sub_cert.passed
          and super_cert.passed and report.stable_under_refinement
          and report.stable_under_widening)
    payload = {
        "gamma": profile.fluid.gamma,
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


def _sim_config(cfg: AppConfig, outdir: Path) -> SimConfig:
    """The run settings of cfg; with evolve.checkpoints on, the run writes
    its checkpoints to outdir/checkpoints (run_simulation creates it)."""
    on = cfg.evolve["checkpoints"]
    return cfg.run_settings(str(outdir / "checkpoints") if on else None)


def _simulate(cfg: AppConfig, steady, outdir: Path, t0: float) -> dict:
    """Run the simulation of cfg, write outdir/series.csv (the partial series
    of an aborted run too) and return the summary: the verdict (PASS, FAIL,
    ABORTED or SKIPPED), the measured ratios and, for an abort, the failure
    time and its reason."""
    failure = None
    try:
        series = run_simulation(steady, _sim_config(cfg, outdir))
    except SimulationAbort as exc:
        failure, series = exc, exc.series
    out = {"seed": cfg.seed}
    if series is not None:
        _series_csv(outdir / "series.csv", series)
        e, mass = series.column("E"), series.column("mass")
        n = e.size
        out.update({
            "config_digest": hashlib.sha256(cfg.canonical.encode()).hexdigest(),
            "dt": series.dt,
            "n_samples": n,
            "c_visc": series.c_visc,
            "E0": float(e[0]) if n else 0.0,
            "mass_drift": float(abs(mass - mass[0]).max()) if n else 0.0,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        })
    if failure is not None:
        out.update(verdict="ABORTED", failure_time=failure.t_fail,
                   reason=str(failure))
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
        if series.remainder_kappa is not None:
            out["lemma_remainder_kappa"] = series.remainder_kappa
    out["wall_time_s"] = time.perf_counter() - t0
    return out


def cmd_simulate(cfg: AppConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    _, steady = _build_steady(cfg, _build_grid(cfg))
    summary = _simulate(cfg, steady, outdir, t0)
    _write_json(outdir / "summary.json", summary)
    if summary["verdict"] == "ABORTED":
        print(f"aborted: {summary['reason']}", file=sys.stderr)
    return {"ABORTED": EXIT_RUNTIME, "FAIL": EXIT_VERDICT}.get(
        summary["verdict"], EXIT_OK)


def cmd_verify_inequalities(cfg: AppConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    iq = cfg.ineqlab
    seed = cfg.seed
    sgrid = cfg.spherical_grid()
    rgrid = _build_grid(cfg)
    # one pass over the tangent fields serves both div-curl and pairing
    tangents = ineqlab.tangent_ensemble(sgrid, iq["n_fields"], seed,
                                        iq["modes"])
    reports = {
        "div_curl": ineqlab.div_curl_report(tangents),
        "trace_scaling": ineqlab.verify_trace_scaling(
            sgrid, iq["trace_outer_factor"], seed, iq["modes"]),
        "boundary_pairing": ineqlab.boundary_pairing_report(
            tangents, iq["n_scalars"], iq["allowance"]),
        "sobolev_l6": ineqlab.sobolev_l6_report(sgrid, iq["n_fields"], seed,
                                                iq["modes"]),
        "lame_gradient_case": ineqlab.lame_report(
            rgrid, iq["n_lame"], seed,
            longitudinal_viscosity=cfg.fluid.longitudinal_viscosity),
        "poisson_regularity": ineqlab.poisson_regularity_report(
            rgrid, iq["n_fields"], seed),
    }
    ok = all(r.passed for r in reports.values())
    payload = {name: asdict(r) for name, r in reports.items()}
    payload["seed"] = seed
    payload["grid"] = {name: getattr(sgrid, name) for name in
                       ("nr", "ntheta", "nphi", "r_inner", "r_outer")}
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
    try:
        _, steady = _build_steady(cfg, _build_grid(cfg))
    except IterationError as exc:
        print(f"failed: {row_dir.name}: {exc}", file=sys.stderr)
        return row
    row["steady_residual"] = steady.residual_elliptic
    row["steady_compat_residual"] = compatibility_residual(steady)
    try:
        summary = _simulate(cfg, steady, row_dir, time.perf_counter())
    except ParameterError as exc:
        print(f"failed: {row_dir.name}: {exc}", file=sys.stderr)
        return row
    if summary["verdict"] == "ABORTED":
        print(f"aborted: {row_dir.name}: {summary['reason']}", file=sys.stderr)
        row["aborted"] = True
        return row
    for key in ("E0", "sup_ratio_E", "sup_ratio_quadratic", "c_fit",
                "mass_drift"):
        row[key] = summary.get(key, 0.0)
    row["verdict_pass"] = 0.0 if summary["verdict"] == "FAIL" else 1.0
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
    except OSError as exc:  # a command's OSError comes from writing outputs
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationAbort, VacuumError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except NsplabError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
