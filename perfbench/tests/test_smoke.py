"""Keeps the benchmark harness from rotting: runs it at configs/quick.cfg
sizes and checks the output schema and the correctness gate, never timings.

    python3 -m pytest perfbench/tests -q     # from the repository root
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _results(*args):
    proc = subprocess.run([sys.executable, str(RUN), "--smoke", *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def _check_schema(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_smoke_every_workload_end_to_end():
    results = _results()
    assert len(results) == len(SPEC["workloads"])
    for result in results:
        _check_schema(result, SPEC["end_to_end"])
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def test_smoke_traced_per_layer():
    (result,) = _results("--trace", "1", "--workload", "stability")
    _check_schema(result, SPEC["per_layer"])
    assert result["metrics"]["trace.spans"]["value"] > 0
