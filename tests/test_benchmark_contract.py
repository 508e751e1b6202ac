"""The benchmark's workloads run correctly on the current program.

``perfbench/workloads.py`` defines what the benchmark runs and the checks
that mark a pass's runs failed.  This runs one small pass of each
workload through the benchmark's own ``run_pass`` and checks, so a
change to ``src/`` that breaks a workload, or makes its output fail the
benchmark's checks, fails the test suite too.  The workload module is
loaded from its file and not modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from recordstart import bench

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)  # dataclasses look it up
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize(
    "make",
    [
        lambda: workloads.Canonical(bench, runs=2),
        lambda: workloads.Deep(bench, runs=2),
        lambda: workloads.Theory(bench),
    ],
    ids=["canonical", "deep", "theory"],
)
def test_a_workload_pass_has_no_problem_and_no_failed_operation(make, tmp_path):
    workload = make()
    result = workloads.run_pass(workload, workload.configs, str(tmp_path))
    assert result.problems == []
    assert result.failed == 0
    assert result.attempted > 0
