"""Tests of the benchmark itself: self-time arithmetic and tiny-size smoke runs.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import COUNT_SPAN, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 6.5, 0],
        [COUNT_SPAN, 6.5, 7.0, 0],
        ["second root", 20.0, 21.0, -1],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5 - 0.5, 2.0, 1.0, 1.5, 0.5, 1.0])


def test_self_time_clips_and_merges_children():
    # children overlapping each other or sticking out of the parent are
    # counted once and only inside the parent's interval
    spans = [["p", 0.0, 4.0, -1], ["a", -1.0, 2.0, 0], ["b", 1.0, 3.0, 0], ["c", 3.5, 9.0, 0]]
    assert self_times(spans)[0] == pytest.approx(4.0 - 3.0 - 0.5)


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["scan", "certify", "bits"])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    declared = _declared()["per_layer" if trace else "end_to_end"]
    result = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.missing_hooks"]["value"] == 0


def test_declared_workloads_are_the_ones_run_py_knows():
    from workloads import WORKLOADS
    assert [w["name"] for w in _declared()["workloads"]] == list(WORKLOADS)


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.rglob("*"):
        if f.is_file() and "__pycache__" not in f.parts:
            dest = tmp_path / "perfbench" / f.relative_to(HERE)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
