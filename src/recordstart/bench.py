"""Benchmark harness: seeded experiment fan-out, aggregation, artifacts.

``run_experiment`` executes N independent global runs of one algorithm on
one objective, writes ``history.csv`` (one row per counted oracle call)
and ``summary.json``, and returns the aggregate.  Each worker takes a
contiguous share of the runs and descends their restarts together, in
blocks of Newton-CG engine rows (``multistart.run_block``).  Run ``i``
is seeded by a stable hash of ``(master_seed, i)``, and a run's rows on
the engine do not depend on the block, so results are byte-identical
across invocations and worker counts, and adding runs never perturbs
earlier ones.

CLI::

    bench run --objective zakharov --dim 5 --algo rdmss --runs 50 --seed 17 --out out/
    bench validate-theory --trajectories 100000 --seed 0
    bench compare out_a/summary.json out_b/summary.json
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import numbers
import os
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from multiprocessing import Pool

import numpy as np

from .hasplid import LabConfig, validate_statistics
from .multistart import ALGORITHMS, AlgoParams, RunReport, run_block
from .objectives import OBJECTIVE_IDS, make

__all__ = [
    "ExperimentConfig",
    "AggregateReport",
    "derive_seed",
    "run_experiment",
    "emit_history",
    "aggregate_from_history",
    "compare",
    "main",
]

HISTORY_HEADER = ["run_id", "eval_index", "f_value", "is_record", "restart_index", "algorithm"]
DEFAULT_SEED = 52
# a history row's is_record field, with its leading comma, by flag
_FLAG_FIELDS = (",0", ",1")


@dataclass(frozen=True)
class ExperimentConfig:
    objective: str
    dim: int
    algorithm: str
    alpha: float = AlgoParams.alpha
    delta: float = AlgoParams.delta
    eps_base: float = 0.01
    ptilde_scale: float = AlgoParams.ptilde_scale
    runs: int = 50
    seed: int = DEFAULT_SEED
    workers: int = 1
    max_total_evals: int = AlgoParams.max_total_evals

    def __post_init__(self):
        make(self.objective, self.dim)  # rejects an unknown objective or a dim that is no integer >= 2
        # True is an Integral: runs=True would run 1 run and write "runs": true
        for name in ("runs", "workers"):
            count = getattr(self, name)
            if not (isinstance(count, numbers.Integral) and not isinstance(count, bool) and count >= 1):
                raise ValueError(f"{name} must be an integer >= 1")
        # derive_seed hashes the seed's text: 52.0 or True would seed other runs than 52 or 1
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if isinstance(self.eps_base, bool) or not 0.0 < self.eps_base < 1.0:
            raise ValueError("eps_base must be in (0, 1)")
        self.algo_params()  # rejects what AlgoParams rejects: the algorithm, epsilon underflow included

    @property
    def epsilon(self) -> float:
        return self.eps_base**self.dim

    def algo_params(self) -> AlgoParams:
        return AlgoParams(
            algorithm=self.algorithm,
            alpha=self.alpha,
            delta=self.delta,
            epsilon=self.epsilon,
            ptilde_scale=self.ptilde_scale,
            max_total_evals=self.max_total_evals,
        )


@dataclass(frozen=True)
class AggregateReport:
    avg_restarts: float
    avg_evals_to_target: float | None
    avg_inner_iterations: float
    avg_total_evals: float
    success_count: int
    runs: int

    def to_dict(self) -> dict:
        return asdict(self)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-run seed: 64-bit blake2b digest of "master:index"."""
    digest = hashlib.blake2b(f"{master_seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _run_share(job) -> list[RunReport]:
    """Runs ``start .. stop - 1`` of an experiment, as one block."""
    config, start, stop = job
    seeds = [derive_seed(config.seed, i) for i in range(start, stop)]
    return run_block(make(config.objective, config.dim), config.algo_params(), seeds)


def run_experiment(config: ExperimentConfig, out_dir: str | None = None):
    """Execute all runs, write artifacts when ``out_dir`` is given, and
    return ``(AggregateReport, list[RunReport])``.  Each worker steps a
    contiguous share of the runs as one block."""
    workers = min(config.workers, config.runs)
    cuts = [config.runs * k // workers for k in range(workers + 1)]
    jobs = [(config, start, stop) for start, stop in zip(cuts, cuts[1:])]
    if workers == 1:
        reports = _run_share(jobs[0])
    else:
        with Pool(workers) as pool:
            reports = [report for share in pool.map(_run_share, jobs) for report in share]
    aggregate = _aggregate(reports)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        emit_history(reports, os.path.join(out_dir, "history.csv"))
        # the worker count must not leak into artifacts: identical configs
        # produce byte-identical files at any parallelism
        summary_cfg = asdict(config)
        del summary_cfg["workers"]
        _json({"config": summary_cfg, "aggregate": aggregate.to_dict()}, os.path.join(out_dir, "summary.json"))
    return aggregate, reports


def _json(obj, path: str | None = None) -> str:
    """``obj`` as the indented, key-sorted JSON of every artifact and CLI
    print, also written to ``path``, newline-terminated, when given."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _aggregate(reports) -> AggregateReport:
    hits = [r.evals_to_target for r in reports if r.evals_to_target is not None]
    return AggregateReport(
        avg_restarts=float(np.mean([r.restarts for r in reports])),
        avg_evals_to_target=float(np.mean(hits)) if hits else None,
        avg_inner_iterations=float(np.mean([r.avg_inner_iters for r in reports])),
        avg_total_evals=float(np.mean([r.total_evals for r in reports])),
        success_count=sum(1 for r in reports if r.success),
        runs=len(reports),
    )


def emit_history(reports, path: str, sort_values: bool = False) -> None:
    """One CSV row per counted oracle call, chronological within runs;
    ``eval_index`` is the row's 1-based rank within its run, its position
    in ``values``, and ``restart_index`` is read off ``run_stats``.

    With ``sort_values`` the rows of each run are reordered by
    non-increasing objective value before they are ranked, ties in
    chronological order, the layout the dimension-scaling plots consume.
    """
    with open(path, "w", newline="") as fh:
        # the bytes csv.writer writes (no field needs quoting), one write
        # per run; a row is joined from four strings: "run_id,rank,", the
        # value's repr, ",is_record" and ",restart_index,algorithm\r\n"
        fh.write(",".join(HISTORY_HEADER) + "\r\n")
        for run_id, report in enumerate(reports):
            tails = chain.from_iterable(
                repeat(f",{r},{report.algorithm}\r\n", stats.iterates)
                for r, stats in enumerate(report.run_stats, start=1)
            )
            values, flags = report.values, report.records
            if sort_values:
                values, flags, tails = zip(*sorted(zip(values, flags, tails), key=lambda row: -row[0]))
            heads = map(f"{run_id},{{}},".format, range(1, len(values) + 1))
            fh.write("".join(map("".join, zip(heads, map(repr, values), map(_FLAG_FIELDS.__getitem__, flags), tails))))


def aggregate_from_history(history_path: str, objective: str, dim: int, eps_base: float) -> AggregateReport:
    """Recompute the aggregate purely from history.csv (consistency
    oracle for summary.json).  One pass over the rows keeps, per run, its
    row count per restart index and the ``eval_index`` of its first row
    within ``eps_base**dim`` of ``f*``, so memory grows with runs and
    restarts, not rows."""
    f_star = make(objective, dim).f_star
    epsilon = eps_base**dim
    loops: dict[int, dict[int, int]] = {}
    hits: dict[int, int] = {}
    with open(history_path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)  # HISTORY_HEADER
        for run_id, eval_index, f_value, _, restart_index, _ in rows:
            run_id, restart_index = int(run_id), int(restart_index)
            counts = loops.setdefault(run_id, {})
            counts[restart_index] = counts.get(restart_index, 0) + 1
            if run_id not in hits and abs(float(f_value) - f_star) <= epsilon:
                hits[run_id] = int(eval_index)
    per_run = [loops[run_id] for run_id in sorted(loops)]
    restarts = [max(counts) for counts in per_run]
    inner = [np.mean([counts.get(r, 0) for r in range(1, n + 1)]) for counts, n in zip(per_run, restarts)]
    return AggregateReport(
        avg_restarts=float(np.mean(restarts)),
        avg_evals_to_target=float(np.mean([hits[run_id] for run_id in sorted(hits)])) if hits else None,
        avg_inner_iterations=float(np.mean(inner)),
        avg_total_evals=float(np.mean([sum(counts.values()) for counts in per_run])),
        success_count=len(hits),
        runs=len(per_run),
    )


def compare(summary_a_path: str, summary_b_path: str) -> dict:
    """Paired metric deltas (B minus A) with a directional verdict."""
    with open(summary_a_path) as fh:
        a = json.load(fh)
    with open(summary_b_path) as fh:
        b = json.load(fh)
    for key in ("objective", "dim"):
        if a["config"][key] != b["config"][key]:
            raise ValueError(f"summaries disagree on {key}: {a['config'][key]} vs {b['config'][key]}")
    deltas = {}
    for metric, agg_a in a["aggregate"].items():
        agg_b = b["aggregate"][metric]
        if agg_a is None or agg_b is None:
            deltas[metric] = {"a": agg_a, "b": agg_b, "delta": None, "verdict": "incomparable"}
            continue
        delta = agg_b - agg_a
        verdict = "equal" if delta == 0 else ("b_higher" if delta > 0 else "b_lower")
        deltas[metric] = {"a": agg_a, "b": agg_b, "delta": delta, "verdict": verdict}
    return {
        "objective": a["config"]["objective"],
        "dim": a["config"]["dim"],
        "algorithm_a": a["config"]["algorithm"],
        "algorithm_b": b["config"]["algorithm"],
        "metrics": deltas,
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    fields = {k: v for k, v in vars(args).items() if k in ExperimentConfig.__dataclass_fields__}
    aggregate, _ = run_experiment(ExperimentConfig(**fields), out_dir=args.out)
    print(_json(aggregate.to_dict()))
    return 0


def _cmd_validate_theory(args) -> int:
    fields = {k: v for k, v in vars(args).items() if k in LabConfig.__dataclass_fields__}
    power_law = validate_statistics(LabConfig(alpha=0.5, lam=1.0, **fields))
    classical = validate_statistics(LabConfig(alpha=1.0, lam=1.0, **fields))
    print(_json({"power_law": power_law.to_dict(), "classical": classical.to_dict()}, args.out))
    return 0 if power_law.all_passed() and classical.all_passed() else 1


def _cmd_compare(args) -> int:
    print(_json(compare(args.summary_a, args.summary_b), args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # unset flags stay out of the namespace, so ExperimentConfig's defaults
    # apply
    run_p = sub.add_parser(
        "run", help="run one seeded experiment and write artifacts", argument_default=argparse.SUPPRESS
    )
    run_p.add_argument("--objective", required=True, choices=OBJECTIVE_IDS)
    run_p.add_argument("--dim", type=int, default=5)
    run_p.add_argument("--algo", dest="algorithm", required=True, choices=ALGORITHMS)
    run_p.add_argument("--alpha", type=float)
    run_p.add_argument("--delta", type=float)
    run_p.add_argument("--eps-base", type=float)
    run_p.add_argument("--ptilde-scale", type=float)
    run_p.add_argument("--runs", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--workers", type=int)
    run_p.add_argument("--out", default=None)
    run_p.set_defaults(func=_cmd_run)

    # unset flags take LabConfig's defaults
    th_p = sub.add_parser(
        "validate-theory",
        help="Monte-Carlo checks of the record-value closed forms",
        argument_default=argparse.SUPPRESS,
    )
    th_p.add_argument("--trajectories", type=int)
    th_p.add_argument("--seed", type=int)
    th_p.add_argument("--out", default=None)
    th_p.set_defaults(func=_cmd_validate_theory)

    cmp_p = sub.add_parser("compare", help="paired deltas between two summary.json files")
    cmp_p.add_argument("summary_a")
    cmp_p.add_argument("summary_b")
    cmp_p.add_argument("--out", default=None)
    cmp_p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
