"""The benchmark's workloads and the correctness gate run on every invocation.

Each workload is one ``nsplab`` command.  ``full`` is the benchmarked size;
``smoke`` runs the same command at ``configs/quick.cfg`` sizes.  An operation
is the simulation (``stability``), one sweep row (``identity-sweep``) or one
inequality report (``inequalities``); the gate marks each operation passed or
failed.  An operation fails when

* the process exits non-zero, or its verdict / ``all_pass`` is not a pass;
* its ``series.csv`` / ``sweep.csv`` bytes (or its report) differ from the
  first invocation of the same run (criterion 13);
* a value differs from ``reference.json`` (recorded on the seed commit at
  seed 0) by more than 1e-10 relative for radial verdict values and sweep
  columns, 1e-12 relative for inequality ratios;
* a roundoff-level quantity (mass drift, steady residuals) exceeds its
  acceptance bound, or a criterion bound (06, 07, 08, 09) is broken.

The reference applies to every seed for ``stability`` and ``identity-sweep``,
whose computation does not depend on the seed, and only to seed 0 for
``inequalities``; other seeds are held to the acceptance bounds alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

ACCEPTANCE = "configs/acceptance.cfg"
QUICK = "configs/quick.cfg"
REFERENCE_SEED = 0

RADIAL_RTOL = 1e-10
RATIO_RTOL = 1e-12
# criterion 07: |mass(t) - mass(0)| <= 1e-10 ||q0||
MASS_DRIFT_FACTOR = 1e-10
# `nsplab steady` passes a steady state with this residual or less
STEADY_RESIDUAL_MAX = 1e-6
# tests/test_steady.py bound on the steady compatibility defect
COMPAT_RESIDUAL_MAX = 1e-5
# criterion 08: nonlinear remainder slope per decade of delta
REMAINDER_SLOPE_MIN = 1.5
# criterion 09 at 64x32x64
PAIRING_MAX_RATIO = 1.02

SUMMARY_KEYS = ("E0", "c_fit", "c_visc", "dt", "lemma_remainder_kappa",
                "margin", "n_samples", "sup_ratio_E", "sup_ratio_quadratic",
                "sup_ratio_quadratic_with_qtt")
SWEEP_REFERENCE_COLUMNS = ("gamma", "delta", "n_cells", "r_max", "E0",
                           "sup_ratio_E", "sup_ratio_quadratic", "c_fit",
                           "verdict_pass")
REPORTS = ("div_curl", "trace_scaling", "boundary_pairing", "sobolev_l6",
           "lame_gradient_case", "poisson_regularity")
REPORT_VALUES = ("max_ratio", "mean_ratio", "n_samples")

_SWEEP_SETS = ("evolve.output_stride=1", "evolve.sponge_rate=0",
               "sweep.gamma=1.0,1.5,2.0")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    sizes: dict          # size -> (config path, --set overrides)
    operations: int      # operations per invocation
    seed_dependent: bool
    env: dict = field(default_factory=dict)

    def argv(self, size: str, seed: int, out: Path) -> list[str]:
        config, sets = self.sizes[size]
        argv = [self.command, "--config", config, "--out", str(out),
                "--seed", str(seed)]
        for s in sets:
            argv += ["--set", s]
        return argv


WORKLOADS = {
    # criterion-06 r16 run: 2001 nodes, 5179 IMEX steps, 105 samples
    "stability": Workload(
        "stability", "simulate",
        {"full": (ACCEPTANCE, ()), "smoke": (QUICK, ())},
        operations=1, seed_dependent=False),
    # criterion 08's nonlinear-remainder pair at three gammas: six rows, each
    # with its own grid, steady solve and ~430 samples
    "identity-sweep": Workload(
        "identity-sweep", "sweep",
        {"full": (ACCEPTANCE, ("domain.n_cells=1000", "evolve.t_end=2")
                  + _SWEEP_SETS),
         "smoke": (QUICK, _SWEEP_SETS + ("sweep.delta=1e-4,1e-3",))},
        operations=6, seed_dependent=False, env={"NSP_THREADS": "2"}),
    # criteria 09/10 resolution: 64x32x64 ensembles of 100 fields
    "inequalities": Workload(
        "inequalities", "verify-inequalities",
        {"full": (ACCEPTANCE, ("ineqlab.nr=64", "ineqlab.ntheta=32",
                               "ineqlab.nphi=64")),
         "smoke": (QUICK, ())},
        operations=6, seed_dependent=True),
}


@dataclass
class Outcome:
    """Gate result of one invocation."""
    failed: int
    problems: list
    snapshot: dict = field(default_factory=dict)   # compared across invocations
    values: dict = field(default_factory=dict)     # what reference.json holds
    size: dict = field(default_factory=dict)       # problem size, for provenance


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _compare(values, ref, keys, rtol, problems):
    for key in keys:
        if not _close(float(values[key]), float(ref[key]), rtol):
            problems.append(f"{key} = {values[key]!r} differs from "
                            f"reference {ref[key]!r} beyond {rtol:g} relative")


def _rows(text: str) -> list[dict]:
    return [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def check_stability(out: Path, first, ref, size: str) -> Outcome:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    series = (out / "series.csv").read_bytes()
    values = {k: summary[k] for k in SUMMARY_KEYS}
    problems = []
    if summary["verdict"] != "PASS":
        problems.append(f"verdict {summary['verdict']}")
    margin = summary["margin"]
    if not (summary["sup_ratio_E"] <= margin
            and summary["sup_ratio_quadratic"] <= margin ** 2):
        problems.append("criterion 06 ratio above its bound")
    if first is not None and series != first["series.csv"]:
        problems.append("series.csv differs from the first invocation")
    if ref is not None:
        if summary["mass_drift"] > MASS_DRIFT_FACTOR * ref["q0_norm"]:
            problems.append(f"mass drift {summary['mass_drift']:.3e} above "
                            "1e-10 ||q0||")
        if "values" in ref:
            _compare(values, ref["values"], SUMMARY_KEYS, RADIAL_RTOL,
                     problems)
    rows = _rows(series.decode())
    return Outcome(failed=1 if problems else 0, problems=problems,
                   snapshot={"series.csv": series}, values=values,
                   size={"samples": len(rows),
                         "steps": round(rows[-1]["t"] / summary["dt"])})


def _remainder(series: bytes) -> float:
    """Largest |zero-order identity residual| of a row's series."""
    return max(abs(r["identity_residual"]) for r in _rows(series.decode()))


def check_sweep(out: Path, first, ref, size: str) -> Outcome:
    text = (out / "sweep.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    rows = _rows(text)
    snapshot = {"sweep.csv": lines}
    row_problems = [[] for _ in rows]
    for i, row in enumerate(rows):
        name = f"row_{i:03d}/series.csv"
        snapshot[name] = (out / name).read_bytes()
        p = row_problems[i]
        if row["verdict_pass"] != 1.0:
            p.append("verdict not passed")
        if row["steady_residual"] > STEADY_RESIDUAL_MAX:
            p.append(f"steady residual {row['steady_residual']:.3e}")
        if row["steady_compat_residual"] > COMPAT_RESIDUAL_MAX:
            p.append(f"compatibility residual "
                     f"{row['steady_compat_residual']:.3e}")
        if first is not None:
            if (len(first["sweep.csv"]) != len(lines)
                    or first["sweep.csv"][0] != lines[0]
                    or first["sweep.csv"][i + 1] != lines[i + 1]):
                p.append("sweep.csv row differs from the first invocation")
            if first.get(name) != snapshot[name]:
                p.append(f"{name} differs from the first invocation")
        if ref is not None:
            if i >= len(ref["q0_norms"]):
                p.append("row not in the reference")
                continue
            if row["mass_drift"] > MASS_DRIFT_FACTOR * ref["q0_norms"][i]:
                p.append(f"mass drift {row['mass_drift']:.3e} above "
                         "1e-10 ||q0||")
            if "values" in ref:
                _compare(row, ref["values"]["rows"][i],
                         SWEEP_REFERENCE_COLUMNS, RADIAL_RTOL, p)
    if ref is not None and len(rows) != len(ref["q0_norms"]):
        row_problems.append(
            [f"{len(rows)} rows, expected {len(ref['q0_norms'])}"])
    # criterion 08: the remainder grows like delta^2 between the two deltas
    pairs = {}
    for i, row in enumerate(rows):
        pairs.setdefault((row["gamma"], row["n_cells"], row["r_max"]),
                         []).append(i)
    for idx in pairs.values():
        if len(idx) != 2:
            continue
        lo, hi = sorted(idx, key=lambda i: rows[i]["delta"])
        rem_lo = _remainder(snapshot[f"row_{lo:03d}/series.csv"])
        rem_hi = _remainder(snapshot[f"row_{hi:03d}/series.csv"])
        slope = (math.log10(rem_hi / rem_lo)
                 / math.log10(rows[hi]["delta"] / rows[lo]["delta"]))
        if not slope >= REMAINDER_SLOPE_MIN:
            for i in (lo, hi):
                row_problems[i].append(f"remainder slope {slope:.3f}")
    problems = [f"row {i}: {p}" for i, ps in enumerate(row_problems)
                for p in ps]
    samples = [len(_rows(snapshot[f"row_{i:03d}/series.csv"].decode()))
               for i in range(len(rows))]
    return Outcome(failed=sum(1 for ps in row_problems if ps),
                   problems=problems, snapshot=snapshot,
                   values={"rows": [{c: r[c] for c in SWEEP_REFERENCE_COLUMNS}
                                    for r in rows]},
                   size={"rows": len(rows), "samples_per_row": samples})


def check_inequalities(out: Path, first, ref, size: str) -> Outcome:
    data = json.loads((out / "inequalities.json").read_text(encoding="utf-8"))
    problems = []
    failed = 0
    for name in REPORTS:
        rep = data[name]
        p = []
        if not rep["passed"] or not math.isfinite(rep["max_ratio"]):
            p.append("not passed")
        if (name == "boundary_pairing" and size == "full"
                and rep["max_ratio"] > PAIRING_MAX_RATIO):
            p.append(f"max ratio {rep['max_ratio']!r} above criterion 09")
        if first is not None and first[name] != rep:
            p.append("report differs from the first invocation")
        if ref is not None and "values" in ref:
            _compare(rep, ref["values"][name], REPORT_VALUES, RATIO_RTOL, p)
        if not data["all_pass"]:
            p.append("all_pass is false")
        problems += [f"{name}: {x}" for x in p]
        failed += bool(p)
    return Outcome(failed=failed, problems=problems,
                   snapshot={name: data[name] for name in REPORTS},
                   values={name: {k: data[name][k] for k in REPORT_VALUES}
                           for name in REPORTS})


CHECKS = {"stability": check_stability, "identity-sweep": check_sweep,
          "inequalities": check_inequalities}


def check(workload: Workload, out: Path, exit_code, first, ref, size: str,
          seed: int) -> Outcome:
    """Gate one invocation; a crash or a missing output fails every
    operation of the invocation.

    ``ref`` is this workload's entry of reference.json for ``size`` (None
    while recording); its exact values are dropped here when they do not
    apply to ``seed``.
    """
    if exit_code != 0:
        return Outcome(failed=workload.operations,
                       problems=[f"exit code {exit_code}"])
    if (ref is not None and workload.seed_dependent
            and seed != REFERENCE_SEED):
        ref = {k: v for k, v in ref.items() if k != "values"}
    try:
        return CHECKS[workload.name](out, first, ref, size)
    except (OSError, KeyError, ValueError, IndexError, TypeError,
            ZeroDivisionError) as exc:
        return Outcome(failed=workload.operations,
                       problems=[f"unreadable output: {exc!r}"])
