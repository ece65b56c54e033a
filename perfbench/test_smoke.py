"""Smoke test of the benchmark itself, at a tiny data size.

Run from the repository root (about four minutes; it starts Spark five
times)::

    python3 -m pytest perfbench/test_smoke.py -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--rows", "500", "--seconds", "1"]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 100
    return result


def assert_metrics(result: dict, spec: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_printed_with_units(workload):
    result = result_of(run("--workload", workload, "--seed", "3", "--trace", "0", *TINY))
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    result = result_of(run("--workload", workload, "--seed", "4", "--trace", "1", *TINY))
    assert result["correct"]
    assert_metrics(result, SPEC["per_layer"])
    trace = json.loads(
        (ROOT / ".bench_build" / f"{workload}-seed4-trace1.json").read_text()
    )
    spans = trace["spans"]
    assert spans and all({"op", "parent", "layer", "start", "end"} <= set(s) for s in spans)


def test_wrong_expected_result_counts_as_failure():
    result = result_of(
        run("--workload", "xs_mixed", "--seed", "5", "--trace", "0", "--corrupt-expected", *TINY)
    )
    assert not result["correct"]
    # expr 1 is wrong on each of the five backends in each of the passes
    assert result["failed"] >= 5 and result["failed"] % 5 == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "xs_mixed", "--seed", "1", "--trace", "0", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
