"""Smoke test of the benchmark itself, on two scenes per scenario kind.

    python -m pytest -q perfbench/test_smoke.py

Every metric that BENCHMARK.json names is printed, exact counts repeat
across two runs, no scene fails, and the benchmark refuses to run
without the program's sources.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = re.compile(r"_calls_|chains_|assignment_|gate_|source_|raw_per_frame|kept_ratio"
                   r"|robustness")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scenes", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["corpus", "deform"])
def test_metrics_complete_and_counts_repeat(workload, trace):
    results = []
    for _ in range(2):
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {name: m["unit"] for name, m in res["metrics"].items()} == \
            {m["name"]: m["unit"] for m in expected}
    exact = [name for name in results[0]["metrics"] if EXACT.search(name)]
    assert exact
    for name in exact:
        assert results[0]["metrics"][name] == results[1]["metrics"][name], name


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("corpus", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
