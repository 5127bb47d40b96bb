"""Self-tests of the benchmark: `python3 -m pytest perfbench` from the repo root.

They run every workload in smoke mode (tiny inputs), untraced and traced,
and check the result line against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refcount  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_refcount_closed_forms():
    refcount.self_check()


def test_refcount_totals():
    assert sum(refcount.parking_counts(7, 7).values()) == 262144
    assert sum(refcount.parking_counts(9, 6).values()) == 69174
    assert sum(refcount.parking_counts(10, 5).values()) == 14641
    assert refcount.parking_counts(2, 2) == {(1, 1): 2, (2,): 1}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        self_sum = sum(v["value"] for k, v in result["metrics"].items()
                       if k.endswith(".self_s"))
        assert self_sum <= result["metrics"]["trace.verdict_s"]["value"]
        assert report["counts_repeat"]
    assert report["lines_of_code"]["total"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "frontier", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
