"""Work counts repeat exactly between two runs at one seed.

Slow (two traced runs per workload, about six minutes in all), so the file
name keeps it out of the default test collection; run it explicitly::

    python3 -m pytest -q perfbench/tests/check_repeat.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_work_counts_repeat(workload):
    first = traced_run(workload, seed=3)
    second = traced_run(workload, seed=3)
    assert set(first) == set(layers.LAYER_METRICS)
    for name in layers.WORK_COUNTS:
        assert first[name] == second[name], name
