"""Smoke tests of ``scripts/``: each script runs as its own process, at the
smallest size it accepts, and leaves the artifacts it documents."""

import json
import os
import subprocess
import sys
from pathlib import Path

from recordstart.objectives import OBJECTIVE_IDS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_dimension_scaling_writes_every_sorted_history(tmp_path):
    done = run_script("dimension_scaling.py", "--runs", "1", "--workers", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    written = sorted(p.name for p in (tmp_path / "scaling").iterdir())
    assert written == sorted(
        f"{objective}_d{dim}_sorted.csv"
        for objective in ("zakharov", "rhe", "styblinski_tang")
        for dim in (5, 15, 25, 50)
    )


def test_reproduce_benchmarks_writes_every_configuration(tmp_path):
    done = run_script("reproduce_benchmarks.py", "--runs", "1", "--workers", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for objective in OBJECTIVE_IDS:
        for algo in ("dmss", "rdmss", "ncg"):
            out = tmp_path / "results" / f"{objective}_{algo}"
            assert (out / "history.csv").stat().st_size > 0
            assert json.loads((out / "summary.json").read_text())


def test_validate_theory_writes_both_range_models(tmp_path):
    out = tmp_path / "theory.json"
    done = run_script("validate_theory.py", "--trajectories", "2000", "--out", str(out), cwd=tmp_path)
    # exit status 1: the stated slope law fails its lab check at any count
    # (criterion 5, README "Known deviations"), and at 2000 trajectories
    # some other checks miss their tolerances by sampling noise
    assert done.returncode == 1, done.stderr
    report = json.loads(out.read_text())
    assert {"power_law", "classical"} <= set(report)
