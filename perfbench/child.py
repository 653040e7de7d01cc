"""One nsplab invocation in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py --result R.json [--setup-only | --q0-norm]
                               [--spans S.csv] -- <nsplab arguments>

``setup_s`` runs from this file's first statement until ``nsplab.cli`` is
imported and the workload config is read and parsed.  ``wall_s`` runs from
entering ``nsplab.cli.main`` until it returns with its outputs written.
``peak_rss_mb`` is the process's peak resident set.  With ``--spans`` the
layer functions are traced (see tracer.py) and the per-layer metrics and the
span file are written as well.  nsplab is imported from ``src/`` of the
current directory (run.py sets ``PYTHONPATH``).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _config_args(argv):
    """The --config path, --set overrides and --seed of an nsplab argv."""
    config, sets, seed = None, [], None
    it = iter(argv)
    for arg in it:
        if arg == "--config":
            config = next(it)
        elif arg == "--set":
            sets.append(next(it))
        elif arg == "--seed":
            seed = int(next(it))
    return config, sets, seed


def _versions():
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}"}


def _q0_norm(cfg):
    """||q0|| of the run a config describes (for the mass-drift bound)."""
    from nsplab import cli
    from nsplab.evolve import init_perturbation
    from nsplab.grids import weighted_l2_norm
    grid = cli._build_grid(cfg)
    _, steady = cli._build_steady(cfg, grid)
    ev = cfg.evolve
    q0 = init_perturbation(ev["init_kind"], ev["delta"], grid, steady,
                           cfg.fluid, mode=ev["mode"]).q
    return weighted_l2_norm(q0)


def main(argv):
    split = argv.index("--")
    own, nsp = argv[:split], argv[split + 1:]
    result_path = own[own.index("--result") + 1]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    import nsplab.cli as cli
    from nsplab.config import parse_config
    config, sets, seed = _config_args(nsp)
    with open(config, encoding="utf-8") as fh:
        cfg = parse_config(fh.read(), overrides=sets, seed=seed)
    result = {"setup_s": time.perf_counter() - T0}

    if "--q0-norm" in own:
        result["q0_norm"] = _q0_norm(cfg)
    elif "--setup-only" not in own:
        tracer = None
        if spans_path is not None:
            from tracer import Tracer, summarize
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        code = cli.main(nsp)
        result["wall_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = summarize(tracer.spans)
            result["missing_targets"] = tracer.missing
            tracer.write_spans(spans_path)
        result["versions"] = _versions()
        iq = cfg.ineqlab
        result["problem"] = {
            "nodes": cfg.domain["n_cells"] + 1, "t_end": cfg.evolve["t_end"],
            "spherical_grid": f"{iq['nr']}x{iq['ntheta']}x{iq['nphi']}",
            "ensembles": {k: iq[k]
                          for k in ("n_fields", "n_scalars", "n_lame")}}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)      # skip interpreter teardown; the result is on disk
