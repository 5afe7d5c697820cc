"""The benchmark harness still reaches the package: every perfbench workload
runs at its smoke size, traced, with no failed operation, and its spans see
the calls they wrap.  perfbench/ reaches into public names (nested_blowup,
non_edges, Graph(n, rows), Graph.rows, the FORMULAS bundles, the two counters
as module attributes), so a change to any of them shows here."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# per-layer metrics that must be nonzero: the span saw its call
_REACHED = {
    "c4-verify": ["counting.enum_s", "counting.diagonal_s"],
    "theta-verify": [],
    "blowup-io": ["graphs.nested_blowup_s", "graphs.read_edge_list_s"],
    "custom-census": [],
}


@pytest.mark.parametrize("workload", list(_REACHED))
def test_smoke_workload_runs_traced(workload, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "7",
         "--job", "0", "--trace", "1", "--size", "smoke", "--work-dir", str(tmp_path / "work")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["errors"]
    for name in _REACHED[workload]:
        assert result["metrics"][name] > 0, name
