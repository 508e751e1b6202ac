"""DMSS/RDMSS drivers and the bare Newton-CG baseline, one loop.

All three algorithms share one loop; a run's ``AlgoParams`` names its
algorithm and its rules' parameters.  A global run repeats: draw a
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
their record flags (``records``), and appends one ``Restart`` to
``run_stats``: the flags' record and iterate counts, the descent's f and
Hessian-vector counts at the last step the driver read, and that step.
Restart ``r`` (1-based) holds the next ``run_stats[r - 1].iterates``
evaluations, so no evaluation stores its restart index.  The restart
count, the evaluation count, the mean inner-loop length and the success
flag are read off these lists.  ``inner_loop`` gets the evaluations left
in the budget and stops there, so the evaluation count cannot overshoot
``max_total_evals``.

Three guards (README "Stabilization guards") keep the model's statistics
usable with a deterministic gradient-based inner search, which makes a
record of almost every iterate, where the raw estimators degenerate:
``zeta_w`` is :func:`special.solve_zeta_tally`'s MLE, clamped to
``special.ZETA_GUARD`` as it diverges on record-saturated histories; the
tail depth ``x = alpha * zeta_w * -log(epsilon)`` fed to ``p_fail`` is
capped at the mean record count (a run that explored to depth x accrues
Poisson(x) records), so ``p_fail`` does not freeze at 1; and ``zeta_w``
and ``p_fail`` keep their prior 1.0 until some restart holds a record
past its start point, before which the likelihood has no finite root.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import newton_cg
from .objectives import ObjectiveSpec, sample_uniform
from .special import RunTally, expected_slope, p_fail_histogram, solve_zeta_tally

__all__ = [
    "ALGORITHMS",
    "RECORD_TOL",
    "AlgoParams",
    "Restart",
    "RunReport",
    "inner_loop",
    "run_block",
    "check_success",
]

# the names inner_loop, _wave_size and _drive branch on
ALGORITHMS = ("dmss", "rdmss", "ncg")
RECORD_TOL = 1e-14


@dataclass(frozen=True)
class AlgoParams:
    """Full parameterization of one global run, checked when it is built:
    its algorithm, one of ``ALGORITHMS``, and its rules' parameters
    (epsilon is the target size already raised to the d-th power)."""

    algorithm: str
    alpha: float = 0.5
    delta: float = 1e-3
    epsilon: float = 1e-10
    ptilde_scale: float = 1.0
    max_total_evals: int = 100_000

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, not {self.algorithm!r}")
        # True passes these ranges as 1, and a config would write it as true
        if isinstance(self.alpha, bool) or not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if isinstance(self.delta, bool) or not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if isinstance(self.epsilon, bool) or not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if isinstance(self.ptilde_scale, bool) or not 0.0 < self.ptilde_scale < math.inf:
            raise ValueError("ptilde_scale must be positive and finite")
        budget = self.max_total_evals
        if not (isinstance(budget, numbers.Integral) and not isinstance(budget, bool) and budget >= 1):
            raise ValueError("max_total_evals must be an integer >= 1")


@dataclass(frozen=True)
class Restart:
    """A completed restart: its record and raw iterate counts, its f and
    Hessian-vector evaluations and its engine steps, accepted or not.  Its
    gradients are one per iterate, its start point's and accepted steps'."""

    records: int
    iterates: int
    f_evals: int
    hvp_evals: int
    steps: int

    @property
    def rejected_probes(self) -> int:
        """Line-search probes not accepted: every f evaluation but the
        start point's and the accepted steps'."""
        return self.f_evals - self.iterates


@dataclass
class RunReport:
    """The one record of a global run, filled in as the run goes: every
    evaluation's value and record flag in order, each completed
    ``Restart`` with what it cost, and the working zeta and failure
    probability after the last restart.  An evaluation's 1-based position in
    ``values`` is its index; restart ``r`` holds the next
    ``run_stats[r - 1].iterates`` of them.  The counts and the success
    flag are derived from these."""

    algorithm: str
    values: list = field(default_factory=list)
    records: list = field(default_factory=list)
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
        return len(self.values)

    @property
    def success(self) -> bool:
        return self.evals_to_target is not None

    @property
    def avg_inner_iters(self) -> float:
        return self.total_evals / self.restarts


def inner_loop(values, rejected: bool, params: AlgoParams, zeta: float, budget: float):
    """Where a restart of a ``params.algorithm`` run stops on its known
    descent: at a native stop, once a record is overdue (``dmss``,
    ``rdmss``), once the slope criterion fires (``rdmss``) or once
    ``budget`` evaluations are held.

    ``values`` are the descent's start value and those of its accepted
    steps, up to a native stop or to at least ``budget`` of them; the
    descent stops natively after its last value, at a rejected step if
    ``rejected``.

    The start point counts as iterate 1 and record 1.  The next record is
    overdue once the expected record count of the iterates so far
    (:func:`recordstart.special.expected_records`) reaches the records
    held.  An iterate adds less than one to that count, so a record never
    makes the next one overdue: the check waits for a non-record, which
    brings the running sum up to date in order, with the bits of
    ``expected_records``.  The slope check (``rdmss``) needs two records
    and is evaluated at the previous record's value.  Returns the record
    flags of the ``j`` iterates it read, ``values[:j]``, and the engine
    steps read to decide them: ``j - 1``, or ``j`` when the loop asked for
    the step after the last value and it was rejected.
    """
    overdue = params.algorithm != "ncg"
    use_slope = params.algorithm == "rdmss"
    j, k = 1, 1
    expected, done = 1.0, 1  # special.expected_records(done, zeta)
    best, best_t = values[0], 1
    flags = [True]
    while j < budget:
        if j == len(values):  # converged, or the next step is rejected
            return flags, j - 1 + rejected
        fn = values[j]
        j += 1
        is_record = fn < best - RECORD_TOL
        flags.append(is_record)
        if is_record:
            k += 1
            # the realized slope against the model's at the previous record
            if use_slope and (best - fn) / (j - best_t) < expected_slope(best, params.alpha, zeta, params.ptilde_scale):
                break
            best, best_t = fn, j
        elif overdue:
            for i in range(done, j):
                expected += zeta / (i + zeta)
            done = j
            if expected >= k:
                break
    return flags, j - 1


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
    if params.algorithm == "ncg":
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
    the descent's counts at the last step it read, and a DMSS/RDMSS
    restart refreshes ``zeta_w`` and ``p_fail`` once some restart holds
    a record past its start point (until then both stay 1.0, so the prior
    wave rule applies).  It returns once ncg has read its restart,
    ``p_fail`` drops below ``delta`` or the budget is spent; the steps
    past its stops and the restarts it never read are dropped."""
    algorithm = params.algorithm
    # sufficient statistics of report.run_stats: a restart adds O(1) work
    tally = RunTally()
    neg_log_eps = -math.log(params.epsilon)
    while True:
        left = params.max_total_evals - report.total_evals
        n = _wave_size(params, report, left)
        x0 = sample_uniform(spec, rng, n)
        fx, counts, accepted, rejected = yield x0, range(left - 1, left - 1 - n, -1)
        for r, (a, stopped) in enumerate(zip(accepted.tolist(), rejected.tolist())):
            values = fx[: a + 1, r].tolist()
            budget = params.max_total_evals - report.total_evals
            flags, steps = inner_loop(values, stopped, params, report.zeta_w, budget)
            restart = Restart(flags.count(True), len(flags), *counts[steps, r].tolist(), steps)
            report.values += values[: restart.iterates]
            report.records += flags
            report.run_stats.append(restart)
            report.budget_exhausted = report.total_evals >= params.max_total_evals
            if algorithm != "ncg":
                tally.add(restart.records, restart.iterates)
                if tally.record_sum > tally.runs:
                    report.zeta_w = solve_zeta_tally(tally)
                    x = min(params.alpha * report.zeta_w * neg_log_eps, tally.record_sum / tally.runs)
                    report.p_fail = p_fail_histogram(tally.record_hist, x)
            if algorithm == "ncg" or report.p_fail < params.delta or report.budget_exhausted:
                report.evals_to_target = check_success(report.values, spec, params.epsilon)
                return


def run_block(spec: ObjectiveSpec, params: AlgoParams, seeds) -> list[RunReport]:
    """One global ``params.algorithm`` run per seed, each driven by
    :func:`_drive` from ``default_rng(seed)``, their waves batched.

    Each round concatenates the waves the running drivers ask for,
    descends them as one engine block (:func:`newton_cg.descend`) and
    sends each driver its own columns; the drivers that return are done.
    A row's bits do not depend on the block, so each report equals its
    run alone."""
    reports = [RunReport(params.algorithm) for _ in seeds]
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
