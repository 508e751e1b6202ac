"""Decision digests: one sha256 over every decision a set of experiments
makes, including those no artifact holds.

Per config the digest takes the ``repr`` of its ``AggregateReport`` and of
each ``RunReport``: every evaluation's value and record flag, each
``Restart`` with its costs, the final ``zeta_w`` and ``p_fail``, and
``budget_exhausted`` and ``evals_to_target``.  Floats go through ``repr``,
so the digest holds their bits.  A change that claims to move no decision
leaves every digest as it is.

``tests/test_golden.py`` pins the two quick sets, ``table`` and ``deep``.
The two slow ones are pinned here and checked outside the test suite::

    python tests/decisions.py          # table and deep
    python tests/decisions.py --all    # also master seeds 40-69 and the sweep

Each line reads the set's name, its digest and whether it matches its pin;
the exit status is 1 if any set moved.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

if __name__ == "__main__":  # a plain checkout, as pytest's pythonpath gives it
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from recordstart import bench
from recordstart.objectives import OBJECTIVE_IDS


def table(seed: int, runs: int, **overrides) -> list[bench.ExperimentConfig]:
    """The paper's table: every objective and algorithm at d = 5."""
    return [
        bench.ExperimentConfig(objective=o, dim=5, algorithm=a, runs=runs, seed=seed, **overrides)
        for o in OBJECTIVE_IDS
        for a in bench.ALGORITHMS
    ]


def sweep(runs: int) -> list[bench.ExperimentConfig]:
    """``scripts/dimension_scaling.py``'s configs."""
    return [
        bench.ExperimentConfig(objective=o, dim=d, algorithm="rdmss", runs=runs)
        for o in ("zakharov", "rhe", "styblinski_tang")
        for d in (5, 15, 25, 50)
    ]


# each set of configs by name; the first two run in the test suite
SETS = {
    "table": lambda: table(bench.DEFAULT_SEED, runs=50),
    "deep": lambda: table(bench.DEFAULT_SEED, runs=10, delta=1e-30),
    "seeds": lambda: [c for seed in range(40, 70) for c in table(seed, runs=50)],
    "sweep": lambda: sweep(runs=5),
}

# the slow sets' digests; test_golden.DECISIONS pins the quick ones
PINNED = {
    "seeds": "e16cdf048feba830089384592f9baaff12d87a204497978deb59d509e5e1d30a",
    "sweep": "25bc80831be6f4e231cc468caed36fcfd75a4507e016114f8ea541fce6354ee1",
}


def digest(configs) -> str:
    h = hashlib.sha256()
    for config in configs:
        aggregate, reports = bench.run_experiment(config)
        h.update(repr(config).encode())
        h.update(repr(aggregate).encode())
        for report in reports:
            h.update(repr(report).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--all", action="store_true", help="also check master seeds 40-69 and the sweep")
    args = parser.parse_args(argv)

    from test_golden import DECISIONS

    pins = {**DECISIONS, **PINNED} if args.all else DECISIONS
    moved = 0
    for name, pin in pins.items():
        got = digest(SETS[name]())
        moved += got != pin
        print(f"{name} {got} {'ok' if got == pin else 'MOVED'}", flush=True)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
