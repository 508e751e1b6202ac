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

A global run is a generator (``_drive``, with ``inner_loop`` for each
restart): it yields the index of a restart when it begins one and
``None`` when it wants an engine step, and is sent the engine's answer.
So the runs of an experiment can share one engine: ``run_block`` steps
the rows of every run as one block, round by round.  The record
statistics decide only when a restart stops and whether another follows,
not where it starts (the run's own uniform draws, in restart order) or
how it descends (deterministic Newton-CG).  So each DMSS/RDMSS run holds
``LOOKAHEAD`` more rows that descend its next restarts ahead of its
driver, and the driver replays their logged steps once it gets there;
the steps it never reads are dropped.  The engine's rows do not mix, so
a run's report does not depend on the block it ran in or on how far
ahead its restarts ran; ``run_dmss``, ``run_rdmss`` and ``run_ncg`` are
blocks of one run.

A global run is written down once, in its ``RunReport``: the driver
appends every evaluation to ``history`` and every restart's ``RunStats``
to ``run_stats``, and the block puts each restart's oracle counts and
engine steps (``RestartCost``, as its engine row logged them at the last
step the driver read) in ``costs`` as the restart ends.  The restart
count, the evaluation count, the mean inner-loop length and the success
flag are read off these lists.  ``inner_loop`` gets the evaluations left
in the budget and returns the ones it made, so the evaluation count
cannot overshoot ``max_total_evals``.

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
from .objectives import ObjectiveSpec, sample_uniform
from .special import RunStats, RunTally, expected_slope, p_fail_histogram, solve_zeta_tally, zeta_score

__all__ = [
    "ZETA_GUARD",
    "RECORD_TOL",
    "LOOKAHEAD",
    "AlgoParams",
    "HistoryRow",
    "RestartCost",
    "RunReport",
    "inner_loop",
    "run_block",
    "run_dmss",
    "run_rdmss",
    "run_ncg",
    "check_success",
]

ZETA_GUARD = 25.0
RECORD_TOL = 1e-14
# restarts each DMSS/RDMSS run descends ahead of its driver (run_block)
LOOKAHEAD = 2


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


@dataclass(frozen=True)
class RestartCost:
    """What one restart cost: its f, gradient and Hessian-vector
    evaluations and its engine steps, accepted or not."""

    f_evals: int
    grad_evals: int
    hvp_evals: int
    steps: int

    @property
    def rejected_probes(self) -> int:
        """Line-search probes not accepted: every f evaluation but the
        start point's and the accepted steps' (one gradient each)."""
        return self.f_evals - self.grad_evals


@dataclass
class RunReport:
    """The one record of a global run, filled in as the run goes: every
    evaluation in order, the completed restarts and what each cost, and
    the working zeta and failure probability after the last restart.  The
    counts and the success flag are derived from these."""

    algorithm: str
    history: list = field(default_factory=list)
    run_stats: list = field(default_factory=list)
    costs: list = field(default_factory=list)
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
    fx: float, converged: bool, params: AlgoParams, zeta: float, algorithm: str = "dmss", budget: float = math.inf
):
    """Generator that drives a started engine row, from its value ``fx``
    and ``converged`` flag, until it terminates natively, a record is
    overdue (``dmss``, ``rdmss``), the slope criterion fires (``rdmss``) or
    ``budget`` evaluations are held.

    It yields ``None`` for every engine step it wants and is sent back
    ``(fn, converged)``: the new value, or ``None`` on a native stop, and
    the row's flag after the step.

    The start point counts as iterate 1 and record 1.  The next record is
    overdue once the expected record count of the iterates so far,
    ``zeta*(psi(j+zeta) - psi(zeta))``, reaches one more than the records
    held; the check is skipped until two iterates exist.  The slope check
    needs at least two records and is evaluated at the previous record's
    value.  Returns the run's ``RunStats`` and its evaluations ``[(f,
    is_record), ...]``, the start point first.
    """
    overdue = algorithm != "ncg"
    use_slope = algorithm == "rdmss"
    j, k = 1, 1
    # expected records among the first j iterates, one term per iterate:
    # zeta*(psi(j+zeta) - psi(zeta)) = 1 + sum_{i<j} zeta/(i+zeta)
    expected = 1.0
    best = fx
    best_t = 1
    evals = [(best, True)]
    while True:
        if converged or j >= budget:
            break
        if overdue and j >= 2 and expected >= k:
            break
        fn, converged = yield
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


def _drive(spec: ObjectiveSpec, params: AlgoParams, report: RunReport):
    """One global run as a generator: it yields the 0-based index of every
    restart it begins and is sent ``(fx, converged)`` at that restart's
    start point, then yields ``None`` for every engine step of the restart
    (see :func:`inner_loop`).  Where a restart starts is up to the caller."""
    algorithm = report.algorithm
    # sufficient statistics of report.run_stats: a restart adds O(j) work
    tally = RunTally()

    while report.p_fail >= params.delta and not report.budget_exhausted:
        fx, converged = yield report.restarts
        budget = params.max_total_evals - report.total_evals
        stats, evals = yield from inner_loop(fx, converged, params, report.zeta_w, algorithm, budget)
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

    report.evals_to_target = check_success(report.history, spec, params.epsilon)


def run_block(spec: ObjectiveSpec, params: AlgoParams, seeds, algorithm: str) -> list[RunReport]:
    """One global run per seed, all on one engine, each run on ``lanes =
    LOOKAHEAD + 1`` rows (one for ncg, which has one restart: lookahead 0).

    Restart r of run i lives on row ``i * lanes + r % lanes`` and starts at
    the r-th draw of ``default_rng(seed)``.  The row of the restart the
    driver is on is its lane; the others descend the next restarts ahead.
    Every start and step appends the row's reply and a snapshot of its
    counts to the restart's log.  Each round feeds every driver what its
    restarts have logged, starts the next restart on each row a driver has
    left, and steps every row of a running run that has not converged as
    one block.  A round steps a run's lane unless the driver waits on a
    start, so the rows ahead take at most ``LOOKAHEAD`` steps per step or
    start the driver needs.  A driver reads only its own restarts' logs, in
    order, so it decides as it would alone: a restart's ``RestartCost`` is
    the snapshot at the last entry its driver read, and the steps past it
    and the restarts never reached are dropped.  A row's bits do not depend
    on the block, so each report equals its run alone."""
    lanes = 1 if algorithm == "ncg" else LOOKAHEAD + 1
    reports = [RunReport(algorithm) for _ in seeds]
    runs = [_drive(spec, params, report) for report in reports]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    engine = newton_cg.init(spec, [sample_uniform(spec, rng) for rng in rngs for _ in range(lanes)])
    oracle = engine.oracle
    logs = [[] for _ in range(len(engine.fx))]  # row -> [(reply, counts), ...]

    def log(rows, replies):
        counts = np.stack([c[rows] for c in (oracle.f_evals, oracle.grad_evals, oracle.hvp_evals, engine.steps)], 1)
        for row, reply, flag, row_counts in zip(rows, replies, engine.converged[rows].tolist(), counts.tolist()):
            logs[row].append(((reply, flag), row_counts))

    for run in runs:
        next(run)  # each run asks for its restart 0, on its first row
    lane = [i * lanes for i in range(len(runs))]  # the row each driver is on
    read = [0] * len(runs)  # and the entries it has read there
    freed = []

    def feed(i) -> bool:
        """Send run ``i`` what its restarts have logged; False once it ends."""
        while read[i] < len(logs[lane[i]]):
            reply, counts = logs[lane[i]][read[i]]
            read[i] += 1
            try:
                request = runs[i].send(reply)
            except StopIteration:
                reports[i].costs.append(RestartCost(*counts))
                return False
            if request is not None:  # restart `request` begins, the last one ends
                reports[i].costs.append(RestartCost(*counts))
                logs[lane[i]] = []
                freed.append(lane[i])
                lane[i], read[i] = i * lanes + request % lanes, 0
        return True

    log(range(len(logs)), engine.fx.tolist())
    active = range(len(runs))
    while active := [i for i in active if feed(i)]:
        starting = [row for row in freed if row // lanes in active]  # rows of ended runs stay idle
        freed.clear()
        if starting:
            newton_cg.start(engine, starting, [sample_uniform(spec, rngs[row // lanes]) for row in starting])
            log(starting, engine.fx[starting].tolist())
        converged = engine.converged.tolist()
        stepping = [row for i in active for row in range(i * lanes, i * lanes + lanes) if not converged[row]]
        if stepping:
            accepted = newton_cg.step(engine, stepping).tolist()
            log(stepping, [fn if ok else None for ok, fn in zip(accepted, engine.fx[stepping].tolist())])
    return reports


def run_dmss(spec: ObjectiveSpec, params: AlgoParams, seed) -> RunReport:
    """Record-overdue inner termination only."""
    return run_block(spec, params, [seed], "dmss")[0]


def run_rdmss(spec: ObjectiveSpec, params: AlgoParams, seed) -> RunReport:
    """Record-overdue plus slope-criterion inner termination."""
    return run_block(spec, params, [seed], "rdmss")[0]


def run_ncg(spec: ObjectiveSpec, params: AlgoParams, seed) -> RunReport:
    """Baseline: one descent to native termination, no restarts."""
    return run_block(spec, params, [seed], "ncg")[0]


def check_success(history, spec: ObjectiveSpec, epsilon: float) -> int | None:
    """1-based index of the first oracle evaluation whose value is within
    epsilon of the known minimum, or None if no evaluation is."""
    for index, row in enumerate(history, start=1):
        if abs(row.f_value - spec.f_star) <= epsilon:
            return index
    return None
