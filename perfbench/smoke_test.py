"""Smoke test of the benchmark itself, at minimal size (one-second runs).

    python3 -m pytest perfbench/smoke_test.py

It is not part of the tier-1 suite, which collects only ``tests/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BITLEAK_D = 2048  # ring degree of the bitleak-2048 parameter set


def run_bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    run = run_bench(workload, trace)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    assert {name: m["unit"] for name, m in printed.items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {name: m["value"] for name, m in printed.items()}
    if trace:
        assert values["failed_ratio"] == 0
        assert values["ring.mul_wide_wide.calls"] == 0
        if workload == "bitleak-sweep":
            assert values["attacks.oracle.calls_per_key"] == BITLEAK_D
    else:
        assert values["ok_ratio"] == 1
        assert all(v > 0 for v in values.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    run = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert run.returncode != 0
    assert run.stdout == ""
