#!/usr/bin/env python3
"""Run the canonical multi-start comparison on all six objectives and
print the aggregate table (plus the bare Newton-CG baseline).

Artifacts (history.csv, summary.json) land under --out per configuration.

    python scripts/reproduce_benchmarks.py --runs 50 --out results/
"""

import argparse
import os

from recordstart import bench
from recordstart.multistart import ALGORITHMS
from recordstart.objectives import OBJECTIVE_IDS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--dim", type=int, default=5)
    parser.add_argument("--workers", type=int, default=bench.ExperimentConfig.workers)
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    header = (
        f"{'objective':22s} {'algo':6s} {'restarts':>8s} {'evals@hit':>9s} "
        f"{'iters/loop':>10s} {'evals':>8s} {'succ':>5s}"
    )
    print(header)
    print("-" * len(header))
    for objective in OBJECTIVE_IDS:
        for algo in ALGORITHMS:
            cfg = bench.ExperimentConfig(
                objective=objective,
                dim=args.dim,
                algorithm=algo,
                runs=args.runs,
                seed=args.seed,
                workers=args.workers,
            )
            out_dir = os.path.join(args.out, f"{objective}_{algo}")
            agg, _ = bench.run_experiment(cfg, out_dir=out_dir)
            hit = f"{agg.avg_evals_to_target:9.2f}" if agg.avg_evals_to_target else "      N/A"
            print(
                f"{objective:22s} {algo:6s} {agg.avg_restarts:8.2f} {hit} "
                f"{agg.avg_inner_iterations:10.2f} {agg.avg_total_evals:8.2f} "
                f"{agg.success_count:3d}/{agg.runs}"
            )


if __name__ == "__main__":
    main()
