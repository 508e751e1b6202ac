"""Smoke tests of ``scripts/``: each script runs as its own process, at the
smallest size it accepts, and leaves the artifacts it documents."""

import hashlib
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


# sha256 of every sorted history the dimension sweep writes at one run and
# master seed 52: the only digests of ``emit_history(sort_values=True)``
SORTED_HISTORY_DIGESTS = {
    "zakharov_d5_sorted.csv": "c9dad80a1fb8b638e462e4f806c73c9bb583835f0ff7d30f2122e60f084f5a7a",
    "zakharov_d15_sorted.csv": "9111fd05e263353c953cbeda072db1c69a424c09f887f9433a6c9ec33f13d268",
    "zakharov_d25_sorted.csv": "b55e975978887ab11d985e885a8ad8e55c27b7f6555ba15d427765af0ae0615a",
    "zakharov_d50_sorted.csv": "e0c0a5ffbd08700b3b8113755176008983e3a1f931de45cd616e4cf313c75116",
    "rhe_d5_sorted.csv": "5e9877933ed7ac48e37a87a705762d3c7de58b2e828b2ebc03fcb4c95f3d6ef7",
    "rhe_d15_sorted.csv": "44c516fae5d8f8e61e3c4d59e2b23bdabb0c8dc3368d2c3a96e8bea1bc02f217",
    "rhe_d25_sorted.csv": "ef8c4ada3d8be0c0caddcd1e58b89bdc51bc3a2b857b80459b722ae1a6e92066",
    "rhe_d50_sorted.csv": "1f7a933e3c9ca6057d9f44396aca2acd6f7349ee06db7a51d600a4dbb98dbc03",
    "styblinski_tang_d5_sorted.csv": "600bca7bffb16e22a7109dff39fe1828a5dbaf4f6dddbed6c6c27a0e96a220e9",
    "styblinski_tang_d15_sorted.csv": "05f1c70cdfe76546cd0d501bdacfc447c944019901a33daeb765cfc62c4f918f",
    "styblinski_tang_d25_sorted.csv": "de0cad83f401b91936cc31e4850e35b9628cc129e030e11d52f3ec0b111f87e2",
    "styblinski_tang_d50_sorted.csv": "334652e8b2c2a5b3a83969f9efb2cf6424680804e02998e424c5f6c4f8437295",
}


def test_dimension_scaling_writes_every_sorted_history(tmp_path):
    done = run_script("dimension_scaling.py", "--runs", "1", "--workers", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "scaling").iterdir()}
    assert sorted(written) == sorted(
        f"{objective}_d{dim}_sorted.csv"
        for objective in ("zakharov", "rhe", "styblinski_tang")
        for dim in (5, 15, 25, 50)
    )
    assert written == SORTED_HISTORY_DIGESTS
    # Styblinski-Tang's target 0.01**d falls below the float spacing at f* from d = 15 on
    flagged = [line.split(":")[0] for line in done.stdout.splitlines() if "only an exact hit counts" in line]
    assert flagged == [f"styblinski_tang d={dim}" for dim in (15, 25, 50)]


def test_reproduce_benchmarks_writes_every_configuration(tmp_path):
    done = run_script("reproduce_benchmarks.py", "--runs", "1", "--workers", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for objective in OBJECTIVE_IDS:
        for algo in ("dmss", "rdmss", "ncg"):
            out = tmp_path / "results" / f"{objective}_{algo}"
            assert (out / "history.csv").stat().st_size > 0
            assert json.loads((out / "summary.json").read_text())
