"""perfbench/workloads.py drives bfvlab through its public API.  Each
workload's op and check run here on two ops, so a signature change in
src/ that the benchmark still calls shows up as a failing test, not as a
lower ok_ratio in a benchmark run.

The workloads are read, never written: they are compiled from their
source, so no bytecode cache lands next to them.
"""

import types
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PATH)
    exec(compile(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH), "exec"), module.__dict__)
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_ops_pass_their_checks(name, tmp_path):
    workload = WORKLOADS[name](0, tmp_path)
    for k in (0, 1):
        assert workload.check(k, workload.op(k)), (name, k)
