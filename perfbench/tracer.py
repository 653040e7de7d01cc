"""In-memory span tracer that wraps nsplab's layer functions from outside.

Installing the tracer replaces each traced function with a wrapper in every
``nsplab`` namespace that binds it, so calls made through any import path
(``nsplab.solve_poisson_neumann``, ``evolve.solve_poisson_neumann``, ...)
record the same span.  A span is a list

    [id, name, start, end, parent_id, run_id, cpu_start, cpu_end, extra]

kept in one list and written out after the run.  Parents are tracked per
thread, so the threaded sweep rows each get their own run id.  No nsplab
source is touched; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("grids", "elliptic", "steady", "evolve", "energy", "ineqlab",
          "config", "cli")

# Functions of these layers that are not public but mark a layer boundary
# the per-layer metrics need: (module, attribute path, span name).
EXTRA_TARGETS = (
    ("grids", "RadialField.__post_init__", "grids.field_created"),
    ("evolve", "_Stepper.advance", "evolve.step"),
    ("energy", "SeriesRecorder.add", "energy.sample"),
    ("cli", "_sweep_row", "cli.sweep_row"),
)

# scipy's solve_banded is one object bound separately in two modules; each
# binding is wrapped under its own name and only in its own namespace.
BANDED_TARGETS = (("elliptic", "elliptic.solve_banded"),
                  ("evolve", "evolve.solve_banded"))

NORMS = ("grids.weighted_l2_norm", "grids.sobolev_norm",
         "grids.vector_sobolev_norm", "grids.vector_gradient_sobolev_norm",
         "grids.vector_gradient_norm", "grids.vector_hessian_norm")
OPERATORS = ("ineqlab.grad_scalar", "ineqlab.divergence", "ineqlab.curl")
REPORTS = (("div_curl", "ineqlab.div_curl_report"),
           ("trace_scaling", "ineqlab.verify_trace_scaling"),
           ("boundary_pairing", "ineqlab.boundary_pairing_report"),
           ("sobolev_l6", "ineqlab.sobolev_l6_report"),
           ("lame_gradient_case", "ineqlab.lame_report"),
           ("poisson_regularity", "ineqlab.poisson_regularity_report"))


def _residual(args, kwargs, result):
    return result.residual_norm


def _iterations(args, kwargs, result):
    return result.iterations_super + result.iterations_sub


def _grid_key(args, kwargs, result):
    seed, grid = args[0], args[1]
    return (seed, grid.r_inner, grid.r_outer, grid.shape)


def _points(args, kwargs, result):
    return args[0].vr.size


# span name -> function(args, kwargs, result) whose value is kept in the span
OBSERVERS = {
    "elliptic.solve_poisson_neumann": _residual,
    "steady.solve_steady_monotone": _iterations,
    "ineqlab.random_tangent_field": _grid_key,
    "ineqlab.gradient_squared": _points,
}
# spans that also record the thread's CPU time
CPU_SPANS = ("evolve.run_simulation",)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count()
        self._runs = itertools.count()
        self._local = threading.local()
        self._patches = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn):
        spans, ids, runs, local = self.spans, self._ids, self._runs, self._local
        observe = OBSERVERS.get(name)
        cpu = name in CPU_SPANS
        clock = time.perf_counter
        thread_time = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
                rec = [next(ids), name, 0.0, 0.0, parent[0], parent[5],
                       0.0, 0.0, None]
            else:
                rec = [next(ids), name, 0.0, 0.0, -1, next(runs),
                       0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec)
            if cpu:
                rec[6] = thread_time()
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                if cpu:
                    rec[7] = thread_time()
                stack.pop()
            if observe is not None:
                rec[8] = observe(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of the layer modules, the extra
        boundaries and both solve_banded bindings."""
        mods = {layer: sys.modules[f"nsplab.{layer}"] for layer in LAYERS
                if f"nsplab.{layer}" in sys.modules}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "nsplab" or n.startswith("nsplab.")]
        for layer in LAYERS:
            mod = mods.get(layer)
            if mod is None:
                self.missing.append(layer)
                continue
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for bound, val in list(vars(ns).items()):
                        if val is obj:
                            self._patch(ns, bound, wrapper)
        for layer, path, name in EXTRA_TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = mods.get(layer)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{layer}.{path}")
                continue
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
        for layer, name in BANDED_TARGETS:
            mod = mods.get(layer)
            if mod is None or "solve_banded" not in vars(mod):
                self.missing.append(name)
                continue
            self._patch(mod, "solve_banded", self._wrap(name, mod.solve_banded))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- output

    def write_spans(self, path):
        """One line per span: id,name,start,end,parent,run (times in s)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,run\n")
            for rec in self.spans:
                fh.write(f"{rec[0]},{rec[1]},{rec[2]!r},{rec[3]!r},"
                         f"{rec[4]},{rec[5]}\n")


def summarize(spans) -> dict:
    """Reduce spans to the per-layer metrics, all plain numbers."""
    by_id = {rec[0]: rec for rec in spans}
    children = {}
    for rec in spans:
        children.setdefault(rec[4], []).append(rec)

    def dur(rec):
        return rec[3] - rec[2]

    def has_ancestor(rec, names):
        parent = by_id.get(rec[4])
        while parent is not None:
            if parent[1] in names:
                return True
            parent = by_id.get(parent[4])
        return False

    def named(*names):
        return [rec for rec in spans if rec[1] in names]

    def count(*names):
        return len(named(*names))

    def busy(*names):
        """Time inside any of ``names``, not counting nested repeats."""
        return sum((dur(rec) for rec in named(*names)
                    if not has_ancestor(rec, names)), 0.0)

    def per_call(scale, *names):
        n = count(*names)
        return busy(*names) / n * scale if n else 0.0

    m = {}
    m["grids.fields_created"] = count("grids.field_created")
    m["grids.radial_derivative.calls"] = count("grids.radial_derivative")
    m["grids.radial_derivative.busy_s"] = busy("grids.radial_derivative")
    m["grids.norms.calls"] = count(*NORMS)
    m["grids.norms.busy_s"] = busy(*NORMS)

    poisson = "elliptic.solve_poisson_neumann"
    m["elliptic.poisson.calls"] = count(poisson)
    m["elliptic.poisson.us_per_call"] = per_call(1e6, poisson)
    m["elliptic.banded_solves"] = count("elliptic.solve_banded")
    m["elliptic.poisson.max_residual"] = max(
        (rec[8] for rec in named(poisson)), default=0.0)
    m["elliptic.shifted.calls"] = count("elliptic.solve_shifted")
    m["elliptic.shifted.busy_s"] = busy("elliptic.solve_shifted")

    steady = "steady.solve_steady_monotone"
    m["steady.solve.calls"] = count(steady)
    m["steady.solve.busy_s"] = busy(steady)
    m["steady.iterations"] = sum(rec[8] for rec in named(steady))

    # run_simulation's own time: everything but the init, sampling,
    # elliptic and Crank-Nicolson spans below it
    def excluded(name):
        return name in ("evolve.init_perturbation", "energy.sample",
                        "evolve.solve_banded") or name.startswith("elliptic.")

    def excluded_time(rec):
        return sum(dur(c) if excluded(c[1]) else excluded_time(c)
                   for c in children.get(rec[0], ()))

    steps = count("evolve.step")
    sims = named("evolve.run_simulation")
    step_self = sum(dur(rec) - excluded_time(rec) for rec in sims)
    m["evolve.steps"] = steps
    m["evolve.step.self_us"] = step_self / steps * 1e6 if steps else 0.0
    m["evolve.cn_solves"] = count("evolve.solve_banded")
    m["evolve.cn_solve.us_per_call"] = per_call(1e6, "evolve.solve_banded")
    m["evolve.init.busy_s"] = busy("evolve.init_perturbation")
    m["evolve.compute_rhs.calls"] = count("evolve.compute_rhs")

    m["energy.samples"] = count("energy.sample")
    m["energy.sample.ms_per_call"] = per_call(1e3, "energy.sample")
    m["energy.verdict.busy_s"] = busy("energy.check_theorem_bound")

    for report, name in REPORTS:
        m[f"ineqlab.report.{report}.busy_s"] = busy(name)
    tangent = named("ineqlab.random_tangent_field")
    m["ineqlab.tangent_field.calls"] = len(tangent)
    m["ineqlab.tangent_field.busy_s"] = busy("ineqlab.random_tangent_field")
    m["ineqlab.tangent_field.unique_ratio"] = (
        len({rec[8] for rec in tangent}) / len(tangent) if tangent else 0.0)
    m["ineqlab.scalar_field.calls"] = count("ineqlab.random_scalar_field")
    m["ineqlab.scalar_field.busy_s"] = busy("ineqlab.random_scalar_field")
    gsq = named("ineqlab.gradient_squared")
    points = sum(rec[8] for rec in gsq)
    m["ineqlab.gradient_squared.calls"] = len(gsq)
    m["ineqlab.gradient_squared.ns_per_point"] = (
        busy("ineqlab.gradient_squared") / points * 1e9 if points else 0.0)
    m["ineqlab.operators.calls"] = count(*OPERATORS)
    m["ineqlab.operators.busy_s"] = busy(*OPERATORS)

    m["config.parse.calls"] = count("config.parse_config")
    m["config.parse.busy_s"] = busy("config.parse_config")
    rows = [rec for rec in sims if has_ancestor(rec, ("cli.sweep_row",))]
    row_wall = sum((dur(rec) for rec in rows), 0.0)
    row_cpu = sum((rec[7] - rec[6] for rec in rows), 0.0)
    m["cli.sweep.row_cpu_s"] = row_cpu
    m["cli.sweep.row_wait_share"] = 1.0 - row_cpu / row_wall if row_wall else 0.0

    self_time = dict.fromkeys(LAYERS, 0.0)
    for rec in spans:
        own = dur(rec) - sum(dur(c) for c in children.get(rec[0], ()))
        self_time[rec[1].split(".", 1)[0]] += own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.spans"] = len(spans)
    return m
