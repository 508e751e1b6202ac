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

A restart starts at its run's next uniform draw and descends by
deterministic Newton-CG, so its descent is fixed before the record
statistics look at it: they only choose where it stops and whether
another restart follows.  So a run descends first and decides after, and
its driver, a generator (``_drive``), owns its whole schedule: each wave
it sizes its next restarts from its own ``p_fail`` trend, or before it
has one from the record model's prior (the rule is ``_wave_size``'s),
draws them from its own generator in one call, caps their steps and
yields them, is sent their descents once, and reads them in restart
order, ``inner_loop`` finding where each stops.  It reads a prefix of
each descent, so it decides as it would with waves of one; the steps
past its stops and the restarts it never reaches are dropped.
``run_block`` only batches: it descends the waves of every running
driver as one engine block (``newton_cg.descend``) and sends each
driver its own columns.  The engine's rows do not mix, so a report
depends neither on the block nor on the wave size: a block of one seed
is that run alone.

A global run is written down once, in its ``RunReport``: per restart,
the driver extends two columns, the values it read (``values``) and
their record flags (``records``), and appends its ``RunStats`` to
``run_stats`` and its oracle counts and engine steps (``RestartCost``,
the descent's counts at the last step the driver read, and that step) to
``costs``.
Restart ``r`` (1-based) holds the next ``run_stats[r - 1].iterates``
evaluations, so no evaluation stores its restart index.  The restart
count, the evaluation count, the mean inner-loop length and the success
flag are read off these lists.  ``inner_loop`` gets the evaluations left
in the budget and stops there, so the evaluation count cannot overshoot
``max_total_evals``.

Two guards keep the conceptual-model statistics usable with a
deterministic gradient-based inner search (which produces a record on
essentially every iterate, a regime where the raw estimators degenerate):

* the working ``zeta_w`` consumed by the inner thresholds is the MLE
  clamped to ``ZETA_GUARD`` (the MLE diverges to the bracket edge on
  record-saturated histories, which would disable both inner criteria and
  freeze ``p_fail`` at 1); the score falls as ``zeta`` grows, so one
  evaluation at the guard tells whether the clamp applies before any
  bisection runs,
* the tail depth ``x = alpha * zeta_w * -log(epsilon)`` fed to
  ``p_fail`` is capped at the mean observed record count (the model's own
  moment identity: a run that explored to depth x accrues Poisson(x)
  records), keeping the failure probability responsive at target sizes
  many orders below the per-run record counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import newton_cg
from .objectives import ObjectiveSpec
from .special import RunStats, RunTally, p_fail_histogram, ptilde, solve_zeta_tally, zeta_score

__all__ = [
    "ALGORITHMS",
    "ZETA_GUARD",
    "RECORD_TOL",
    "AlgoParams",
    "RestartCost",
    "RunReport",
    "inner_loop",
    "run_block",
    "check_algorithm",
    "check_success",
]

# the names inner_loop, _wave_size and _drive branch on
ALGORITHMS = ("dmss", "rdmss", "ncg")
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
    evaluation's value and record flag in order, the completed restarts
    and what each cost, and the working zeta and failure probability
    after the last restart.  An evaluation's 1-based position in
    ``values`` is its index; restart ``r`` holds the next
    ``run_stats[r - 1].iterates`` of them.  The counts and the success
    flag are derived from these."""

    algorithm: str
    values: list = field(default_factory=list)
    records: list = field(default_factory=list)
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
        return len(self.values)

    @property
    def success(self) -> bool:
        return self.evals_to_target is not None

    @property
    def avg_inner_iters(self) -> float:
        return float(np.mean([s.iterates for s in self.run_stats]))


def check_algorithm(algorithm: str) -> None:
    """Reject a name outside ``ALGORITHMS``, which would run another one silently."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, not {algorithm!r}")


def inner_loop(
    values, rejected: bool, params: AlgoParams, zeta: float, algorithm: str = "dmss", budget: float = math.inf
):
    """Where a restart stops on its known descent: at a native stop, once
    a record is overdue (``dmss``, ``rdmss``), once the slope criterion
    fires (``rdmss``) or once ``budget`` evaluations are held.

    ``values`` are the descent's start value and those of its accepted
    steps, up to a native stop or to at least ``budget`` of them; the
    descent stops natively after its last value, at a rejected step if
    ``rejected``.

    The start point counts as iterate 1 and record 1.  The next record is
    overdue once the expected record count of the iterates so far,
    ``zeta*(psi(j+zeta) - psi(zeta))``, reaches one more than the records
    held; the check is skipped until two iterates exist.  The slope check
    needs at least two records and is evaluated at the previous record's
    value.  Returns the restart's ``RunStats``, the record flags of the
    ``j`` iterates it read, ``values[:j]``, and the engine steps read to
    decide them: ``j - 1``, or ``j`` when the loop asked for the step
    after the last value and it was rejected.
    """
    check_algorithm(algorithm)
    overdue = algorithm != "ncg"
    use_slope = algorithm == "rdmss"
    j, k = 1, 1
    # expected records among the first j iterates, one term per iterate:
    # zeta*(psi(j+zeta) - psi(zeta)) = 1 + sum_{i<j} zeta/(i+zeta)
    expected = 1.0
    best = values[0]
    best_t = 1
    flags = [True]
    while j < budget and not (overdue and j >= 2 and expected >= k):
        if j == len(values):  # converged, or the next step is rejected
            return RunStats(records=k, iterates=j), flags, j - 1 + rejected
        fn = values[j]
        expected += zeta / (j + zeta)
        j += 1
        is_record = fn < best - RECORD_TOL
        flags.append(is_record)
        if is_record:
            k += 1
            slope = (best - fn) / (j - best_t)
            prev_value = best
            best, best_t = fn, j
            # the model's expected slope at the previous record,
            # special.expected_slope without its argument checks
            if use_slope and slope < ptilde(prev_value, params.ptilde_scale) ** params.alpha / zeta:
                break
    return RunStats(records=k, iterates=j), flags, j - 1


def _working_zeta(tally: RunTally) -> float:
    """``min(solve_zeta_tally(tally), ZETA_GUARD)``: the score falls as
    zeta grows, so a positive score at the guard puts the root above it
    and the bisection is skipped."""
    return ZETA_GUARD if zeta_score(ZETA_GUARD, tally) > 0 else solve_zeta_tally(tally)


def _wave_size(params: AlgoParams, report: RunReport, left: int) -> int:
    """How many restarts a run draws next, with ``left`` evaluations left.

    ncg draws one.  A DMSS/RDMSS run at failure probability ``p < 1``
    after ``r`` restarts draws ``ceil(r * (log(delta) / log(p) - 1)) +
    1``, the restarts still needed at its mean ``p_fail`` factor per
    restart plus one.  While ``p`` is still 1, its first wave included, it
    draws ``ceil(log(delta) / log(1/2)) + 1`` (11 at ``delta = 1e-3``, 101
    at ``1e-30``): the record model's prior factor of 1/2, as the tail
    depth is capped at the mean record count and a Poisson count reaches
    its mean about half the time.  The first wave holds at most ``left``
    restarts, and a later one at most ``ceil(left * r / total_evals)``,
    the restarts the evaluations left hold at the run's mean restart
    length, so a flat trend cannot draw the whole budget as one block."""
    if report.algorithm == "ncg":
        return 1
    r, p = report.restarts, report.p_fail
    if p < 1:
        n = math.ceil(r * (math.log(params.delta) / math.log(p) - 1)) + 1
    else:
        n = math.ceil(math.log(params.delta) / math.log(0.5)) + 1
    return min(n, math.ceil(left * r / report.total_evals) if r else left)


def _drive(spec: ObjectiveSpec, params: AlgoParams, report: RunReport, rng):
    """One global run as a generator that owns its restart schedule.

    Each wave it draws its next restarts from ``rng``, in restart order,
    as many as :func:`_wave_size` asks for with the ``left`` evaluations
    it has left.  It yields their start points and step caps, ``left -
    1, left - 2, ...``: the restart at position q may take ``left - q -
    1`` steps, as the q restarts before it hold an evaluation each, so no
    cap changes a decision.  It is sent the wave's
    :func:`newton_cg.descend` columns and reads the restarts in order,
    each up to where :func:`inner_loop` stops it; a restart is charged
    the descent's counts at the last step it read.  It returns once ncg
    has read its restart, ``p_fail`` drops below ``delta`` or the budget
    is spent; the steps past its stops and the restarts it never read
    are dropped."""
    algorithm = report.algorithm
    # sufficient statistics of report.run_stats: a restart adds O(j) work
    tally = RunTally()
    while True:
        left = params.max_total_evals - report.total_evals
        n = _wave_size(params, report, left)
        # one draw for the wave: the bits of n objectives.sample_uniform calls
        x0 = spec.lower + (spec.upper - spec.lower) * rng.random((n, spec.dim))
        fx, counts, accepted, rejected = yield x0, range(left - 1, left - 1 - n, -1)
        for r, (a, stopped) in enumerate(zip(accepted.tolist(), rejected.tolist())):
            values = fx[: a + 1, r].tolist()
            budget = params.max_total_evals - report.total_evals
            stats, flags, steps = inner_loop(values, stopped, params, report.zeta_w, algorithm, budget)
            report.values += values[: stats.iterates]
            report.records += flags
            report.run_stats.append(stats)
            report.costs.append(RestartCost(*counts[steps, r].tolist(), steps))
            report.budget_exhausted = report.total_evals >= params.max_total_evals
            if algorithm != "ncg":
                tally.add(stats)
                report.zeta_w = _working_zeta(tally)
                x = min(params.alpha * report.zeta_w * -math.log(params.epsilon), tally.record_sum / tally.runs)
                report.p_fail = p_fail_histogram(tally.record_hist, x)
            if algorithm == "ncg" or report.p_fail < params.delta or report.budget_exhausted:
                report.evals_to_target = check_success(report.values, spec, params.epsilon)
                return


def run_block(spec: ObjectiveSpec, params: AlgoParams, seeds, algorithm: str) -> list[RunReport]:
    """One global run per seed, each driven by :func:`_drive` from
    ``default_rng(seed)``, their waves batched.

    Each round concatenates the waves the running drivers ask for,
    descends them as one engine block (:func:`newton_cg.descend`) and
    sends each driver its own columns; the drivers that return are done.
    A row's bits do not depend on the block, so each report equals its
    run alone."""
    check_algorithm(algorithm)
    reports = [RunReport(algorithm) for _ in seeds]
    runs = [_drive(spec, params, report, np.random.default_rng(seed)) for report, seed in zip(reports, seeds)]
    waves = [next(run) for run in runs]
    while runs:
        x0 = np.concatenate([starts for starts, _ in waves])
        caps = [cap for _, wave_caps in waves for cap in wave_caps]
        fx, counts, accepted, rejected = newton_cg.descend(spec, x0, caps)
        going, asked, row = [], [], 0
        for run, (starts, _) in zip(runs, waves):
            cols = slice(row, row + len(starts))
            row = cols.stop
            try:
                asked.append(run.send((fx[:, cols], counts[:, cols], accepted[cols], rejected[cols])))
                going.append(run)
            except StopIteration:
                pass
        runs, waves = going, asked
    return reports


def check_success(values, spec: ObjectiveSpec, epsilon: float) -> int | None:
    """1-based index of the first oracle evaluation whose value is within
    epsilon of the known minimum, or None if no evaluation is."""
    for index, f in enumerate(values, start=1):
        if abs(f - spec.f_star) <= epsilon:
            return index
    return None
