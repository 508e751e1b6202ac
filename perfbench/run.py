#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (the package is imported from
``src/``, nothing needs installing).  With ``--trace 0`` it measures the
end-to-end metrics with tracing off: passes over the workload repeat until
``--seconds`` have elapsed and timings are medians over passes; set-up is
timed in several fresh interpreters.  With ``--trace 1`` untraced and traced
passes alternate, the per-layer metrics come from the traced pass of
median wall time, and one last pass counts the digamma calls.  Either way
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the full record goes to
``perfbench/results/BENCH_<workload>[_trace].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "objectives.f_calls": "count",
    "objectives.grad_calls": "count",
    "objectives.hvp_calls": "count",
    "objectives.f_s": "s",
    "objectives.grad_s": "s",
    "objectives.hvp_s": "s",
    "newton_cg.steps": "count",
    "newton_cg.cg_iters_per_step": "count",
    "newton_cg.ls_probes_rejected": "count",
    "newton_cg.ls_accept_ratio": "ratio",
    "newton_cg.self_s": "s",
    "special.threshold_calls": "count",
    "special.zeta_calls": "count",
    "special.pfail_calls": "count",
    "special.slope_calls": "count",
    "special.threshold_s": "s",
    "special.zeta_s": "s",
    "special.pfail_s": "s",
    "special.slope_s": "s",
    "special.digamma_calls": "count",
    "multistart.restarts": "count",
    "multistart.iterates": "count",
    "multistart.self_s": "s",
    "multistart.evals_per_run": "count",
    "multistart.evals_to_target": "count",
    "hasplid.trajectories": "count",
    "hasplid.checks_passed": "count",
    "hasplid.self_s": "s",
    "bench.self_s": "s",
    "bench.emit_history_s": "s",
    "bench.artifact_bytes": "B",
    "bench.digest_mismatch": "count",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}


def _git_commit():
    """HEAD of the checkout, read from .git without running git (a
    checkout without .git gives None)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
    }


def setup_times(n: int) -> list:
    """Seconds each of ``n`` fresh interpreters took to import the package
    and build its objectives."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def layer_metrics(tracer, traced, untraced_wall: float, digamma_calls: int, mismatches: int) -> dict:
    s, c = tracer.self_s, tracer.calls
    steps = c["newton_cg.step"]
    accepted = steps - c["newton_cg.step:none"]
    probes = c[("newton_cg.step", "objectives.f")]
    return {
        "objectives.f_calls": c["objectives.f"],
        "objectives.grad_calls": c["objectives.grad"],
        "objectives.hvp_calls": c["objectives.hvp"],
        "objectives.f_s": s["objectives.f"],
        "objectives.grad_s": s["objectives.grad"],
        "objectives.hvp_s": s["objectives.hvp"],
        "newton_cg.steps": steps,
        "newton_cg.cg_iters_per_step": c[("newton_cg.step", "objectives.hvp")] / steps if steps else 0.0,
        "newton_cg.ls_probes_rejected": probes - accepted,
        "newton_cg.ls_accept_ratio": accepted / probes if probes else 0.0,
        "newton_cg.self_s": s["newton_cg.step"] + s["newton_cg.init"],
        "special.threshold_calls": c["special.threshold"],
        "special.zeta_calls": c["special.zeta"],
        "special.pfail_calls": c["special.pfail"],
        "special.slope_calls": c["special.slope"],
        "special.threshold_s": s["special.threshold"],
        "special.zeta_s": s["special.zeta"],
        "special.pfail_s": s["special.pfail"],
        "special.slope_s": s["special.slope"],
        "special.digamma_calls": digamma_calls,
        # every restart starts one engine; every accepted step is an iterate
        "multistart.restarts": c["newton_cg.init"],
        "multistart.iterates": c["newton_cg.init"] + accepted,
        "multistart.self_s": s["multistart"],
        "multistart.evals_per_run": traced.evals_per_run(),
        "multistart.evals_to_target": traced.evals_to_target(),
        "hasplid.trajectories": c["hasplid.trajectory"],
        "hasplid.checks_passed": traced.checks_passed,
        "hasplid.self_s": s["hasplid"],
        "bench.self_s": s["bench"],
        "bench.emit_history_s": s["bench.emit_history"],
        "bench.artifact_bytes": traced.artifact_bytes,
        "bench.digest_mismatch": mismatches,
        "trace.wall_s": traced.wall_s,
        # timed time outside every span: the loop and the wrappers' own cost
        "trace.remainder_s": traced.wall_s - sum(s.values()),
        "trace.overhead_s": traced.wall_s - untraced_wall,
    }


def digest_mismatches(workload_name: str, digests: dict) -> list:
    with open(HERE / "golden.json") as fh:
        golden = json.load(fh).get(workload_name, {})
    return sorted(name for name, digest in golden.items() if digests.get(name) != digest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="sets the order of the closed loop")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "recordstart" / "__init__.py").is_file():
        print(f"no recordstart sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import recordstart
    from recordstart import bench

    if Path(recordstart.__file__).resolve().parent != SRC / "recordstart":
        print(f"imported recordstart from {recordstart.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](bench)
    configs = random.Random(args.seed).sample(workload.configs, len(workload.configs))
    out_dir = HERE / "out" / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setup = [] if args.trace else setup_times(SETUP_PROBES)
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(workload, configs, str(out_dir)))
        if args.trace:
            tracers.append(Tracer())
            traced.append(run_pass(workload, configs, str(out_dir), tracers[-1]))
    passes = [("untraced", p) for p in untraced] + [("traced", p) for p in traced]
    if args.trace:
        hot = Tracer(hot=True)
        passes.append(("digamma_count", run_pass(workload, configs, str(out_dir), hot)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [p for _, result in passes for p in result.problems]
    reference = untraced[0].outcome()
    for i, (kind, result) in enumerate(passes[1:], start=2):
        if result.outcome() != reference:
            problems.append(f"pass {i} ({kind}) differs from pass 1")
    if any(t.counts() != tracers[0].counts() for t in tracers[1:]):
        problems.append("per-layer counts differ between traced passes")
    mismatches = digest_mismatches(workload.name, untraced[0].digests)

    if args.trace:
        by_wall = sorted(range(len(traced)), key=lambda i: traced[i].wall_s)
        median = by_wall[(len(by_wall) - 1) // 2]
        chosen, tracer = traced[median], tracers[median]
        untraced_wall = statistics.median(p.wall_s for p in untraced)
        metrics = layer_metrics(tracer, chosen, untraced_wall, hot.calls["special.digamma"], len(mismatches))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "cpu_s": statistics.median(p.cpu_s for p in untraced),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": untraced[0].success_rate(),
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for _, p in passes),
        "failed": sum(p.failed for _, p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "order": [workload.label(cfg) for cfg in configs],
        "setup_s_samples": setup,
        "passes": [
            {"kind": kind, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "config_wall_s": p.config_wall_s}
            for kind, p in passes
        ],
        "peak_rss_mb": peak_rss_mb,
        "outcome": reference,
        "digest_mismatch": mismatches,
        "problems": problems,
        **result,
    }
    if args.trace:
        record["trace"] = {
            "self_s": dict(sorted(tracer.self_s.items())),
            "counts": {**tracer.counts(), **hot.counts()},
            "missing_patch_points": sorted(tracer.missing | hot.missing),
        }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    with open(results_dir / f"BENCH_{workload.name}{suffix}.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
