"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's own test run: the golden
digest test runs the full canonical table and the command-line tests run
whole workloads.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from recordstart import bench  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import LAB_TRAJECTORIES, Canonical, Deep, Theory, run_pass  # noqa: E402


def _small(cls):
    return cls(bench, trajectories=1000) if cls is Theory else cls(bench, runs=2)


# spans each workload must reach; counts are asserted exactly only where
# the workload fixes them
EXERCISED = {
    Canonical: ("objectives.hvp", "newton_cg.step", "special.threshold", "special.slope", "multistart", "bench.emit_history"),
    Deep: ("objectives.f", "newton_cg.init", "special.zeta", "special.pfail", "multistart", "bench"),
    Theory: ("hasplid", "hasplid.trajectory"),
}


@pytest.mark.parametrize("cls", [Canonical, Deep, Theory])
def test_traced_counts_repeat_and_tracing_changes_no_decision(cls, tmp_path):
    workload = _small(cls)
    plain = run_pass(workload, workload.configs, str(tmp_path))
    tracers = [Tracer(), Tracer(), Tracer(hot=True)]
    traced = [run_pass(workload, workload.configs, str(tmp_path), t) for t in tracers]

    assert tracers[0].counts() == tracers[1].counts()
    assert all(t.outcome() == plain.outcome() for t in traced)
    assert all(not t.missing for t in tracers)
    for name in EXERCISED[cls]:
        assert tracers[0].calls[name] > 0, name
    # spans nest inside the timed calls, so self times cannot exceed them
    assert sum(tracers[0].self_s.values()) <= traced[0].wall_s
    if cls is Theory:
        # three simulation passes per lab configuration
        assert tracers[0].calls["hasplid.trajectory"] == 3 * 1000 * len(workload.configs)
    else:
        assert not plain.problems and plain.failed == 0
        assert tracers[2].calls["special.digamma"] > 0


def test_canonical_artifacts_match_golden_digests(tmp_path):
    workload = Canonical(bench)
    result = run_pass(workload, workload.configs, str(tmp_path))
    assert not result.problems and result.failed == 0
    assert run.digest_mismatches("canonical", result.digests) == []
    assert (result.successes, result.runs) == (642, 900)
    assert round(result.evals_per_run(), 3) == 60.007
    assert round(result.evals_to_target(), 2) == 17.83


def test_lab_outcomes_match_documentation():
    workload = Theory(bench)
    assert workload.configs[0].trajectories == LAB_TRAJECTORIES
    result = run_pass(workload, workload.configs, "unused")
    assert not result.problems and result.failed == 0
    assert (result.checks_passed, result.attempted) == (12, 14)


def test_metric_names_and_units_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"canonical", "deep", "theory"}


def _run_cli(cwd, *extra):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep", "--seed", "7", "--seconds", "0.1", *extra],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_cli_prints_the_result_line_last():
    proc = _run_cli(ROOT, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 20
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    with open(HERE / "results" / "BENCH_deep.json") as fh:
        record = json.load(fh)
    assert record["seed"] == 7
    assert {"nproc", "python", "numpy", "git_commit"} <= set(record["environment"])


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    proc = _run_cli(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
