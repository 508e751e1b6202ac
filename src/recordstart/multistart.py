"""Multi-start drivers with record-value stopping rules.

Both drivers share one loop.  A global run repeats: draw a uniform
restart point, descend with the Newton-CG engine while the run's record
bookkeeping says a new record is not yet overdue, then refresh the
record-rate ratio ``zeta`` (maximum likelihood over all completed runs)
and the failure probability ``p_fail``; the outer loop ends once
``p_fail`` drops below ``delta``.  The revised driver additionally breaks
a run at a record whose realized improvement slope falls below the model
expectation ``ptilde(prev_record)**alpha / zeta``.

Two guards keep the conceptual-model statistics usable with a
deterministic gradient-based inner search (which produces a record on
essentially every iterate, a regime where the raw estimators degenerate):

* the working ``zeta`` consumed by the inner thresholds is clamped to
  ``ZETA_GUARD`` (the MLE diverges to the bracket edge on record-saturated
  histories, which would disable both inner criteria and freeze ``p_fail``
  at 1),
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
from .special import PtildeModel, RunStats, RunTally, expected_slope, p_fail_histogram, solve_zeta_tally

__all__ = [
    "ZETA_GUARD",
    "RECORD_TOL",
    "AlgoParams",
    "RecordLog",
    "GlobalState",
    "HistoryRow",
    "RunReport",
    "inner_loop",
    "run_dmss",
    "run_rdmss",
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


@dataclass
class RecordLog:
    """Run-local record bookkeeping: record count and raw iterate count."""

    records: int = 1
    iterates: int = 1

    def stats(self) -> RunStats:
        return RunStats(records=self.records, iterates=self.iterates)


@dataclass
class GlobalState:
    """Cross-run state of one global run."""

    incumbent_y: float = math.inf
    run_stats: list = field(default_factory=list)
    zeta: float = 1.0
    lam_effective: float = 0.5
    p_fail: float = 1.0
    restarts: int = 0


@dataclass(frozen=True)
class HistoryRow:
    eval_index: int
    f_value: float
    is_record: bool
    restart_index: int


@dataclass
class RunReport:
    algorithm: str
    restarts: int
    evals_to_target: int | None
    avg_inner_iters: float
    total_evals: int
    line_search_evals: int
    success: bool
    budget_exhausted: bool
    history: list
    state: GlobalState


def inner_loop(engine, params: AlgoParams, zeta: float, use_slope: bool = False, on_eval=None) -> RecordLog:
    """Drive an initialized engine until a record is overdue, the engine
    terminates natively, or (optionally) the slope criterion fires.

    The engine's current point counts as iterate 1 and record 1.  The next
    record is overdue once the expected record count of the iterates so
    far, ``zeta*(psi(j+zeta) - psi(zeta))``, reaches one more than the
    records held; the check is skipped until two iterates exist.  The slope
    check needs at least two records and is evaluated at the previous
    record's value.  ``on_eval(f, is_record)`` is called for every fresh
    oracle evaluation and may return False to abort (budget).
    """
    model = PtildeModel(scale=params.ptilde_scale)
    j, k = 1, 1
    # expected records among the first j iterates, one term per iterate:
    # zeta*(psi(j+zeta) - psi(zeta)) = 1 + sum_{i<j} zeta/(i+zeta)
    expected = 1.0
    best = engine.fx
    best_t = 1
    while True:
        if engine.converged:
            break
        if j >= 2 and expected >= k:
            break
        fn = newton_cg.step(engine)
        if fn is None:
            break
        expected += zeta / (j + zeta)
        j += 1
        is_record = fn < best - RECORD_TOL
        keep_going = True if on_eval is None else on_eval(fn, is_record)
        if is_record:
            k += 1
            slope = (best - fn) / (j - best_t)
            prev_value = best
            best, best_t = fn, j
            if (
                use_slope
                and k >= 2
                and slope < expected_slope(prev_value, params.alpha, zeta, model)
            ):
                break
        if not keep_going:
            break
    return RecordLog(records=k, iterates=j)


def _effective_lambda(alpha: float, zeta: float, epsilon: float, mean_records: float) -> float:
    """Tail-rate parameter used in the failure probability: ``alpha *
    min(zeta, ZETA_GUARD)`` capped so the tail depth ``-lam*log(eps)``
    does not exceed the mean observed record count."""
    lam = alpha * min(zeta, ZETA_GUARD)
    depth_cap = mean_records / (-math.log(epsilon))
    return min(lam, depth_cap)


def _drive(spec: ObjectiveSpec, params: AlgoParams, seed, use_slope: bool, algorithm: str) -> RunReport:
    rng = np.random.default_rng(seed)
    state = GlobalState(zeta=1.0, lam_effective=params.alpha, p_fail=1.0)
    # sufficient statistics of state.run_stats: a restart adds O(j) work
    tally = RunTally()
    history: list[HistoryRow] = []
    evals = 0
    ls_evals = 0
    budget_exhausted = False

    while state.p_fail >= params.delta and not budget_exhausted:
        zeta_w = min(state.zeta, ZETA_GUARD)
        x0 = sample_uniform(spec, rng)
        oracle = Oracle(spec)
        engine = newton_cg.init(spec, x0, oracle)
        restart_index = state.restarts + 1
        evals += 1
        history.append(HistoryRow(evals, engine.fx, True, restart_index))
        start_y = engine.fx

        def on_eval(f_value, is_record, _ri=restart_index):
            nonlocal evals, budget_exhausted
            evals += 1
            history.append(HistoryRow(evals, f_value, is_record, _ri))
            if evals >= params.max_total_evals:
                budget_exhausted = True
                return False
            return True

        if evals >= params.max_total_evals:
            budget_exhausted = True
            log = RecordLog()
        else:
            log = inner_loop(engine, params, zeta_w, use_slope=use_slope, on_eval=on_eval)
        ls_evals += engine.line_search_evals

        stats = log.stats()
        state.run_stats.append(stats)
        tally.add(stats)
        state.restarts += 1
        state.incumbent_y = min(state.incumbent_y, start_y, engine.fx)
        state.zeta = solve_zeta_tally(tally)
        mean_records = tally.record_sum / tally.runs
        state.lam_effective = _effective_lambda(params.alpha, state.zeta, params.epsilon, mean_records)
        state.p_fail = p_fail_histogram(tally.record_hist, state.lam_effective, params.epsilon)

    success, first_hit = check_success(history, spec, params.epsilon)
    return RunReport(
        algorithm=algorithm,
        restarts=state.restarts,
        evals_to_target=first_hit,
        avg_inner_iters=float(np.mean([s.iterates for s in state.run_stats])) if state.run_stats else 0.0,
        total_evals=evals,
        line_search_evals=ls_evals,
        success=success,
        budget_exhausted=budget_exhausted,
        history=history,
        state=state,
    )


def run_dmss(spec: ObjectiveSpec, params: AlgoParams, seed) -> RunReport:
    """Record-overdue inner termination only."""
    return _drive(spec, params, seed, use_slope=False, algorithm="dmss")


def run_rdmss(spec: ObjectiveSpec, params: AlgoParams, seed) -> RunReport:
    """Record-overdue plus slope-criterion inner termination."""
    return _drive(spec, params, seed, use_slope=True, algorithm="rdmss")


def check_success(history, spec: ObjectiveSpec, epsilon: float):
    """First oracle evaluation whose value is within epsilon of the known
    minimum; returns (success, 1-based eval index or None)."""
    for row in history:
        if abs(row.f_value - spec.f_star) <= epsilon:
            return True, row.eval_index
    return False, None
