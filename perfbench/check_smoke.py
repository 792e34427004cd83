"""Smoke test of the benchmark: every workload, traced and untraced, tiny inputs.

    python3 -m pytest perfbench/check_smoke.py -q

Each run must exit 0, check every op without a failure and print exactly the
metrics BENCHMARK.json names, with their units. The file name keeps it out of
the repository's own test collection: it starts hundreds of interpreters and
takes about 35 s.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_no_op_fails(workload: str, trace: int) -> None:
    info, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    entries = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [e["name"] for e in entries]
    for entry in entries:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert result["metrics"]["success_frac"]["value"] == 1.0  # failed_frac is 0
        assert all(result["metrics"][e["name"]]["value"] > 0 for e in entries)
    machine = info["machine"]
    assert {"python", "numpy", "nproc", "git_commit", "src_sha256"} <= set(machine)


def test_fails_without_the_program(tmp_path: Path) -> None:
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
