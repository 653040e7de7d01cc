"""Apply each mutant of the catalogue in ``mutants.py`` and run the tests
that should kill it.

    python tests/run_mutants.py [NAME ...]

The repository is copied once to a temporary directory.  Each mutant is
applied to that copy alone, its ``killed_by`` tests are run there with
pytest, and the file is restored.  The killing tests are first run on the
unmutated copy, where they must pass, so that no mutant counts as killed
by a test that fails anyway.  One JSON line is printed per mutant:

    {"mutant": NAME, "killed": true, "killed_by": [NODE_ID, ...]}

``killed_by`` lists the named tests that failed.  The exit status is 1 if
any mutant survives and 2 if the copy cannot be tested.  Names on the
command line restrict the run to those mutants.  pytest does not collect
this file.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", ".perfbench_runs",
                                "*.egg-info")


def _env(copy: Path) -> dict:
    # no bytecode: a mutant that keeps the file's size must not be served
    # from a cached compile of the original
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(copy / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _failed(copy: Path, node_ids) -> tuple[int, list[str]]:
    """pytest's exit code on node_ids in the copy, and the ids that failed
    or errored, as pytest prints them."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-rfE", *node_ids],
        cwd=copy, env=_env(copy), capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        where = subprocess.run(
            [sys.executable, "-c", "import nsplab; print(nsplab.__file__)"],
            cwd=copy, env=_env(copy), capture_output=True, text=True)
        if not where.stdout.startswith(str(copy)):
            print(f"nsplab imports from {where.stdout.strip()!r}, not from "
                  "the copy", file=sys.stderr)
            return 2
        wanted = sorted({t for m in chosen for t in m.killed_by})
        code, failed = _failed(copy, wanted)
        if code != 0:
            print(f"the killing tests fail without a mutant: {failed}",
                  file=sys.stderr)
            return 2
        survivors = 0
        for m in chosen:
            path = copy / m.path
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{m.name}: its old text does not occur once in "
                      f"{m.path}", file=sys.stderr)
                return 2
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                code, failed = _failed(copy, m.killed_by)
            finally:
                path.write_text(text, encoding="utf-8")
            killed = code == 1 and bool(failed)
            survivors += not killed
            print(json.dumps({"mutant": m.name, "killed": killed,
                              "killed_by": failed}), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
