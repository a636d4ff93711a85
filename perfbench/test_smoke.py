"""Smoke test of the benchmark: every workload at a tiny exec count.

    python3 -m pytest perfbench/test_smoke.py -q

Asserts that both modes exit 0, pass their correctness checks and emit
exactly the metrics BENCHMARK.json names, and that the benchmark
refuses to run without the repository's sources.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_EXECS = 60


def _run(cwd: pathlib.Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--execs", str(TINY_EXECS)],
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace, section):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run"))
    proc = _run(tmp_path, "http_root", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
