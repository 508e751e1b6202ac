#!/usr/bin/env python3
"""Dimension-scaling experiment: the revised driver across d in
{5, 15, 25, 50} with the target size 0.01**d, writing sorted function
histories (one CSV per objective and dimension) for external plotting.
A line whose target size is below the float spacing at the objective's
minimum says so: there only an exact hit of ``f*`` counts as a success.

    python scripts/dimension_scaling.py --runs 50 --out scaling/
"""

import argparse
import math
import os

from recordstart import bench, objectives


OBJECTIVES = ("zakharov", "rhe", "styblinski_tang")
DIMS = (5, 15, 25, 50)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--workers", type=int, default=bench.ExperimentConfig.workers)
    parser.add_argument("--out", default="scaling")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for objective in OBJECTIVES:
        for dim in DIMS:
            cfg = bench.ExperimentConfig(
                objective=objective,
                dim=dim,
                algorithm="rdmss",
                runs=args.runs,
                seed=args.seed,
                workers=args.workers,
            )
            agg, reports = bench.run_experiment(cfg)
            path = os.path.join(args.out, f"{objective}_d{dim}_sorted.csv")
            bench.emit_history(reports, path, sort_values=True)
            hit = f"{agg.avg_evals_to_target:.1f}" if agg.avg_evals_to_target else "N/A"
            ulp = math.ulp(objectives.make(objective, dim).f_star)
            note = f" (eps {cfg.epsilon:.1e} < ulp(f*) {ulp:.1e}: only an exact hit counts)" if cfg.epsilon < ulp else ""
            print(
                f"{objective} d={dim}: success {agg.success_count}/{agg.runs}, "
                f"avg evals {agg.avg_total_evals:.1f}, evals to target {hit} -> {path}{note}"
            )


if __name__ == "__main__":
    main()
