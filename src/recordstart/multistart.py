"""DMSS/RDMSS drivers and the bare Newton-CG baseline, one loop.

All three algorithms share one loop.  A global run repeats: draw a
uniform restart point, descend with the Newton-CG engine while the run's
record bookkeeping says a new record is not yet overdue, then refresh the
record-rate ratio ``zeta`` (maximum likelihood over all completed runs)
and the failure probability ``p_fail``; the outer loop ends once
``p_fail`` drops below ``delta`` or the run holds ``max_total_evals``
evaluations.  The revised driver (``rdmss``) additionally breaks a run at
a record whose realized improvement slope falls below the model
expectation ``ptilde(prev_record)**alpha / zeta``.  The baseline (``ncg``)
descends from one start point to native termination: no overdue rule, no
restart, no ``zeta``/``p_fail`` update.

A global run is written down once, in its ``RunReport``: the driver
creates it at the start and appends every evaluation to ``history`` and
every restart's ``RunStats`` to ``run_stats``.  The restart count, the
evaluation count, the mean inner-loop length and the success flag are
read off those two lists.  ``inner_loop`` gets the evaluations left in
the budget and returns the ones it made, so the evaluation count cannot
overshoot ``max_total_evals``.

Two guards keep the conceptual-model statistics usable with a
deterministic gradient-based inner search (which produces a record on
essentially every iterate, a regime where the raw estimators degenerate):

* the working ``zeta_w`` consumed by the inner thresholds is the MLE
  clamped to ``ZETA_GUARD`` (the MLE diverges to the bracket edge on
  record-saturated histories, which would disable both inner criteria and
  freeze ``p_fail`` at 1); the score falls as ``zeta`` grows, so one
  evaluation at the guard tells whether the clamp applies before any
  bisection runs,
* the tail depth fed to ``p_fail`` is capped at the mean observed record
  count (the model's own moment identity: a run that explored to depth x
  accrues Poisson(x) records), keeping the failure probability responsive
  at target sizes many orders below the per-run record counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import newton_cg
from .objectives import ObjectiveSpec, Oracle, sample_uniform
from .special import RunStats, RunTally, expected_slope, p_fail_histogram, solve_zeta_tally, zeta_score

__all__ = [
    "ZETA_GUARD",
    "RECORD_TOL",
    "AlgoParams",
    "HistoryRow",
    "RunReport",
    "inner_loop",
    "run_dmss",
    "run_rdmss",
    "run_ncg",
    "check_success",
]

ZETA_GUARD = 25.0
RECORD_TOL = 1e-14


@dataclass(frozen=True)
class AlgoParams:
    """Full parameterization of one global run (epsilon is the target
    size already raised to the d-th power by the caller)."""

    alpha: float = 0.5
    delta: float = 1e-3
    epsilon: float = 1e-10
    ptilde_scale: float = 1.0
    max_total_evals: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if self.ptilde_scale <= 0:
            raise ValueError("ptilde_scale must be positive")
        if self.max_total_evals < 1:
            raise ValueError("max_total_evals must be >= 1")


@dataclass(frozen=True)
class HistoryRow:
    """One counted oracle evaluation; its 1-based position in
    ``RunReport.history`` is its evaluation index."""

    f_value: float
    is_record: bool
    restart_index: int


@dataclass
class RunReport:
    """The one record of a global run, filled in as the run goes: every
    evaluation in order, the completed restarts, and the working zeta and
    failure probability after the last restart.  The counts and the
    success flag are derived from these."""

    algorithm: str
    history: list = field(default_factory=list)
    run_stats: list = field(default_factory=list)
    zeta_w: float = 1.0
    p_fail: float = 1.0
    budget_exhausted: bool = False
    evals_to_target: int | None = None

    @property
    def restarts(self) -> int:
        return len(self.run_stats)

    @property
    def total_evals(self) -> int:
        return len(self.history)

    @property
    def success(self) -> bool:
        return self.evals_to_target is not None

    @property
    def avg_inner_iters(self) -> float:
        return float(np.mean([s.iterates for s in self.run_stats]))


def inner_loop(
    engine, params: AlgoParams, zeta: float, algorithm: str = "dmss", budget: float = math.inf
) -> tuple[RunStats, list]:
    """Drive an initialized engine until it terminates natively, a record
    is overdue (``dmss``, ``rdmss``), the slope criterion fires
    (``rdmss``) or ``budget`` evaluations are held.

    The engine's current point counts as iterate 1 and record 1.  The next
    record is overdue once the expected record count of the iterates so
    far, ``zeta*(psi(j+zeta) - psi(zeta))``, reaches one more than the
    records held; the check is skipped until two iterates exist.  The slope
    check needs at least two records and is evaluated at the previous
    record's value.  Returns the run's ``RunStats`` and its evaluations
    ``[(f, is_record), ...]``, the start point first.
    """
    overdue = algorithm != "ncg"
    use_slope = algorithm == "rdmss"
    j, k = 1, 1
    # expected records among the first j iterates, one term per iterate:
    # zeta*(psi(j+zeta) - psi(zeta)) = 1 + sum_{i<j} zeta/(i+zeta)
    expected = 1.0
    best = engine.fx
    best_t = 1
    evals = [(best, True)]
    while True:
        if engine.converged or j >= budget:
            break
        if overdue and j >= 2 and expected >= k:
            break
        fn = newton_cg.step(engine)
        if fn is None:
            break
        expected += zeta / (j + zeta)
        j += 1
        is_record = fn < best - RECORD_TOL
        evals.append((fn, is_record))
        if is_record:
            k += 1
            slope = (best - fn) / (j - best_t)
            prev_value = best
            best, best_t = fn, j
            if (
                use_slope
                and k >= 2
                and slope < expected_slope(prev_value, params.alpha, zeta, params.ptilde_scale)
            ):
                break
    return RunStats(records=k, iterates=j), evals


def _working_zeta(tally: RunTally) -> float:
    """``min(solve_zeta_tally(tally), ZETA_GUARD)``: the score falls as
    zeta grows, so a positive score at the guard puts the root above it
    and the bisection is skipped."""
    return ZETA_GUARD if zeta_score(ZETA_GUARD, tally) > 0 else solve_zeta_tally(tally)


def _effective_lambda(alpha: float, zeta_w: float, epsilon: float, mean_records: float) -> float:
    """Tail-rate parameter used in the failure probability: ``alpha *
    zeta_w`` capped so the tail depth ``-lam*log(eps)`` does not exceed
    the mean observed record count."""
    depth_cap = mean_records / (-math.log(epsilon))
    return min(alpha * zeta_w, depth_cap)


def _drive(spec: ObjectiveSpec, params: AlgoParams, seed, algorithm: str) -> RunReport:
    rng = np.random.default_rng(seed)
    report = RunReport(algorithm)
    # sufficient statistics of report.run_stats: a restart adds O(j) work
    tally = RunTally()

    while report.p_fail >= params.delta and not report.budget_exhausted:
        x0 = sample_uniform(spec, rng)
        engine = newton_cg.init(spec, x0, Oracle(spec))
        budget = params.max_total_evals - report.total_evals
        stats, evals = inner_loop(engine, params, report.zeta_w, algorithm, budget)
        restart_index = report.restarts + 1
        report.history.extend(HistoryRow(f, is_record, restart_index) for f, is_record in evals)
        report.run_stats.append(stats)
        report.budget_exhausted = report.total_evals >= params.max_total_evals
        if algorithm == "ncg":
            break
        tally.add(stats)
        report.zeta_w = _working_zeta(tally)
        lam = _effective_lambda(params.alpha, report.zeta_w, params.epsilon, tally.record_sum / tally.runs)
        report.p_fail = p_fail_histogram(tally.record_hist, lam, params.epsilon)

    _, report.evals_to_target = check_success(report.history, spec, params.epsilon)
    return report


def run_dmss(spec: ObjectiveSpec, params: AlgoParams, seed) -> RunReport:
    """Record-overdue inner termination only."""
    return _drive(spec, params, seed, "dmss")


def run_rdmss(spec: ObjectiveSpec, params: AlgoParams, seed) -> RunReport:
    """Record-overdue plus slope-criterion inner termination."""
    return _drive(spec, params, seed, "rdmss")


def run_ncg(spec: ObjectiveSpec, params: AlgoParams, seed) -> RunReport:
    """Baseline: one descent to native termination, no restarts."""
    return _drive(spec, params, seed, "ncg")


def check_success(history, spec: ObjectiveSpec, epsilon: float):
    """First oracle evaluation whose value is within epsilon of the known
    minimum; returns (success, 1-based eval index or None)."""
    for index, row in enumerate(history, start=1):
        if abs(row.f_value - spec.f_star) <= epsilon:
            return True, index
    return False, None
