"""nsplab benchmark: each workload runs the real ``nsplab`` command in fresh
interpreters, one invocation after another, and every invocation's outputs go
through the correctness gate in workloads.py.

    python3 perfbench/run.py --workload stability --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke [--trace 1]
    python3 perfbench/run.py --record-reference

Run it from the repository root; nsplab is imported from ``src/``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time inside
``nsplab.cli.main``), ``setup_s`` (median time to import ``nsplab.cli`` and
parse the workload config in a fresh interpreter, sampled by setup-only
processes and by every invocation) and ``peak_rss_mb`` (median peak resident
memory of an invocation).  ``--trace 1`` alternates untraced and traced
invocations and reports the per-layer metrics of the traced ones (medians)
plus ``trace.overhead_s``, the traced minus the untraced median wall time.
Metric names and units are those of BENCHMARK.json.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
each metric with its unit and sample count, ``failed_ratio``, and a
provenance line (machine, versions, thread settings, problem size,
repeats).  Spans of the last traced invocation and the full record of the
run are written under ``.perfbench_runs/``.

``--smoke`` runs every workload twice at ``configs/quick.cfg`` sizes, with
no setup probes and no timing budget, and prints one result line per
workload; it exits non-zero if any gate fails.  ``--record-reference``
rewrites reference.json from the current code at seed 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK = Path(".perfbench_runs")
SETUP_PROBES = 5
# no run lasts longer than this, however slow its invocations
HARD_LIMIT_S = 165.0


def _spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _env(workload):
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(workload.env)
    return env


def _child(workload, argv, result, flags=(), timeout=HARD_LIMIT_S):
    """Run child.py once; returns its result dict, or one with 'error'."""
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result),
           *flags, "--", *argv]
    try:
        proc = subprocess.run(cmd, env=_env(workload), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"child exit {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(result.read_text())


def _machine():
    info = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append(" ".join((index / f).read_text().strip()
                                   for f in ("level", "type", "size")))
        except OSError:
            pass
    info["caches"] = caches
    return info


def _median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run of one workload: invocations, gate and samples."""

    def __init__(self, workload, size, seed, reference):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.reference = reference
        self.dir = WORK / workload.name
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup = []
        self.plain = []      # untraced invocation results
        self.traced = []     # traced invocation results
        self.problem_size = {}
        self.versions = {}
        self.missing_targets = []
        self.start = time.perf_counter()
        self.dir.mkdir(parents=True, exist_ok=True)

    def probe(self, count, keep=True):
        for _ in range(count):
            res = _child(self.workload,
                         self.workload.argv(self.size, self.seed,
                                            self.dir / "probe"),
                         self.dir / "probe.json", ("--setup-only",), 60.0)
            if "error" in res:
                self.problems.append(f"setup probe: {res['error']}")
                continue
            if keep:
                self.setup.append(res["setup_s"])

    def invoke(self, traced, timeout):
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        flags = ("--spans", str(self.dir / "spans.csv")) if traced else ()
        res = _child(self.workload,
                     self.workload.argv(self.size, self.seed, out),
                     self.dir / "result.json", flags, timeout)
        self.attempted += self.workload.operations
        if "error" in res:
            self.failed += self.workload.operations
            self.problems.append(res["error"])
            return
        outcome = wl.check(self.workload, out, res["exit_code"], self.first,
                           self.reference, self.size, self.seed)
        self.failed += outcome.failed
        self.problems += outcome.problems
        if self.first is None and outcome.snapshot:
            self.first = outcome.snapshot
            self.versions = res["versions"]
            self.problem_size = dict(res["problem"], **outcome.size)
        self.setup.append(res["setup_s"])
        (self.traced if traced else self.plain).append(res)
        self.missing_targets = res.get("missing_targets",
                                       self.missing_targets)
        shutil.rmtree(out, ignore_errors=True)

    def loop(self, seconds, trace, repeats=None):
        """Invoke until the run would exceed ``seconds`` (at least once, and
        in trace mode at least one untraced and one traced invocation), or
        exactly ``repeats`` times."""
        deadline = self.start + seconds
        hard = self.start + HARD_LIMIT_S
        longest = 0.0
        k = 0
        while True:
            t = time.perf_counter()
            self.invoke(trace and k % 2 == 1, hard - t)
            longest = max(longest, time.perf_counter() - t)
            k += 1
            if repeats is not None:
                if k >= repeats:
                    break
                continue
            end = time.perf_counter() + longest
            if end > hard or (end > deadline and not (trace and k < 2)):
                break


def _end_to_end(run, units):
    walls = [r["wall_s"] for r in run.plain]
    values = {"wall_s": _median(walls), "setup_s": _median(run.setup),
              "peak_rss_mb": _median([r["peak_rss_mb"] for r in run.plain])}
    counts = {"wall_s": len(walls), "setup_s": len(run.setup),
              "peak_rss_mb": len(walls)}
    return {n: {"value": values[n], "unit": u} for n, u in units.items()}, counts


def _per_layer(run, units):
    values = {}
    for name, unit in units.items():
        samples = [r["layers"][name] for r in run.traced
                   if name in r.get("layers", {})]
        if unit == "count" and samples:
            values[name] = statistics.median_low(samples)
        else:
            values[name] = _median(samples)
    if run.plain and run.traced:
        values["trace.overhead_s"] = (_median([r["wall_s"] for r in run.traced])
                                      - _median([r["wall_s"] for r in run.plain]))
    counts = {n: len(run.traced) for n in units}
    return {n: {"value": values[n], "unit": u} for n, u in units.items()}, counts


def _report(run, trace, seconds):
    e2e_units, layer_units = _spec()
    if trace:
        metrics, counts = _per_layer(run, layer_units)
    else:
        metrics, counts = _end_to_end(run, e2e_units)
    for name, m in metrics.items():
        print(f"{run.workload.name:15s} {name:42s} {m['value']!r:>24} "
              f"{m['unit']:6s} n={counts[name]}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{run.workload.name:15s} {'failed_ratio':42s} {ratio!r:>24} "
          f"ratio  {run.failed}/{run.attempted}")
    for p in run.problems[:20]:
        print(f"{run.workload.name:15s} FAILED: {p}")
    provenance = {
        "machine": _machine(), "versions": run.versions,
        "threads": {k: run.workload.env.get(k, os.environ.get(k, "unset"))
                    for k in ("NSP_THREADS", "OPENBLAS_NUM_THREADS")},
        "workload": run.workload.name, "size": run.size,
        "argv": run.workload.argv(run.size, run.seed, "OUT"),
        "problem_size": run.problem_size,
        "repeats": {"untraced": len(run.plain), "traced": len(run.traced),
                    "setup_samples": len(run.setup)},
        "seed": run.seed, "seconds": seconds, "trace": int(trace),
        "missing_targets": run.missing_targets,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {"correct": run.failed == 0 and run.attempted > 0
              and not run.problems,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = dict(result, provenance=provenance, problems=run.problems,
                  samples={"setup_s": run.setup,
                           "wall_s": [r["wall_s"] for r in run.plain],
                           "traced_wall_s": [r["wall_s"] for r in run.traced]})
    (run.dir / f"record_seed{run.seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return result


def _record_reference():
    reference = {"seed": wl.REFERENCE_SEED}
    for name, workload in wl.WORKLOADS.items():
        reference[name] = {}
        for size in workload.sizes:
            run = Run(workload, size, wl.REFERENCE_SEED, None)
            out = run.dir / "out"
            shutil.rmtree(out, ignore_errors=True)
            res = _child(workload, workload.argv(size, run.seed, out),
                         run.dir / "result.json")
            outcome = wl.check(workload, out, res.get("exit_code"), None, None,
                               size, run.seed)
            if outcome.failed or "error" in res:
                raise SystemExit(f"{name}/{size}: {res.get('error')} "
                                 f"{outcome.problems}")
            entry = {"values": outcome.values}
            config, sets = workload.sizes[size]
            if name == "stability":
                entry["q0_norm"] = _q0_norm(workload, config, sets)
            elif name == "identity-sweep":
                entry["q0_norms"] = [
                    _q0_norm(workload, config, sets + (
                        f"fluid.gamma={row['gamma']!r}",
                        f"evolve.delta={row['delta']!r}",
                        f"domain.n_cells={int(row['n_cells'])}",
                        f"domain.r_outer={row['r_max']!r}"))
                    for row in outcome.values["rows"]]
            reference[name][size] = entry
            shutil.rmtree(out, ignore_errors=True)
            print(f"recorded {name}/{size}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def _q0_norm(workload, config, sets):
    argv = ["simulate", "--config", config, "--out", "unused"]
    for s in sets:
        argv += ["--set", s]
    res = _child(workload, argv, WORK / "q0.json", ("--q0-norm",))
    if "error" in res:
        raise SystemExit(res["error"])
    return res["q0_norm"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    if not (Path("src/nsplab/cli.py").is_file()
            and Path(wl.ACCEPTANCE).is_file() and Path(wl.QUICK).is_file()):
        print("error: run from the nsplab repository root (src/nsplab and "
              "configs/ not found)", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record_reference:
        _record_reference()
        return 0
    reference = json.loads(REFERENCE.read_text())
    if args.smoke:
        names = [args.workload] if args.workload else list(wl.WORKLOADS)
        ok = True
        for name in names:
            run = Run(wl.WORKLOADS[name], "smoke", args.seed,
                      reference[name]["smoke"])
            run.loop(0.0, bool(args.trace), repeats=2)
            ok = _report(run, bool(args.trace), 0.0)["correct"] and ok
        return 0 if ok else 1
    if args.workload is None:
        p.error("--workload is required unless --smoke or --record-reference")
    workload = wl.WORKLOADS[args.workload]
    run = Run(workload, "full", args.seed, reference[args.workload]["full"])
    run.probe(1, keep=False)          # compiles bytecode, warms the file cache
    run.probe(SETUP_PROBES)
    run.loop(args.seconds, bool(args.trace))
    _report(run, bool(args.trace), args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
