"""Driver tests: inner-loop termination semantics against worked
examples, cross-run bookkeeping invariants, determinism, the DMSS/RDMSS
relationship, and the bare Newton-CG baseline on the same loop."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from recordstart import bench, newton_cg, objectives, special
from recordstart import multistart as ms
from reference import history_rows, n_record_threshold, tally_of


def run_inner(f0, script, converged=False, algorithm="dmss", zeta=1.0, budget=math.inf):
    """:func:`ms.inner_loop` of an ``algorithm`` run on the descent
    ``f0``, then ``script``: a step past its end is a native stop, by a
    rejected step unless the start point is ``converged``.  Returns the
    restart's record and iterate counts, the evaluations it read ``[(f,
    is_record), ...]`` and its steps."""
    values = [f0] if converged else [f0, *script]
    flags, steps = ms.inner_loop(values, not converged, params(algorithm=algorithm), zeta, budget)
    return (flags.count(True), len(flags)), list(zip(values, flags)), steps


def params(**kw):
    defaults = dict(algorithm="dmss", alpha=0.5, delta=1e-3, epsilon=0.01**5)
    defaults.update(kw)
    return ms.AlgoParams(**defaults)


# ---------------------------------------------------------------------------
# inner loop
# ---------------------------------------------------------------------------


def test_inner_loop_converged_at_init():
    (k, j), evals, steps = run_inner(4.0, [5.0], converged=True)
    assert k == 1 and j == 1
    assert evals == [(4.0, True)] and steps == 0


def test_inner_loop_stuck_after_second_record_stops_at_four():
    # one improvement then a plateau; at unit zeta the second record is
    # overdue once the iterate count passes ~3.64, so the run ends at 4
    (k, j), evals, _ = run_inner(10.0, [9.0, 9.0, 9.0, 9.0, 9.0, 9.0])
    assert k == 2
    assert j == 4
    assert evals == [(10.0, True), (9.0, True), (9.0, False), (9.0, False)]


def test_inner_loop_descending_run_records_every_iterate():
    (k, j), _, _ = run_inner(10.0, [8.0, 6.0, 4.0, 2.0])
    assert k == j == 5


def test_inner_loop_slope_criterion_breaks_after_the_record():
    # second record improves by 1e-9 in one step: slope far below the
    # expectation at the previous record's level, so the loop breaks
    # right after evaluating it
    (_, j_plain), _, _ = run_inner(10.0, [5.0, 5.0 - 1e-9, 0.0, 0.0])
    (k_slope, j_slope), _, _ = run_inner(10.0, [5.0, 5.0 - 1e-9, 0.0, 0.0], algorithm="rdmss")
    assert k_slope == 3
    assert j_slope == 3
    assert j_plain > j_slope


def test_inner_loop_slope_needs_two_records():
    # a tiny first improvement alone must not trigger the slope break
    (k, _), _, _ = run_inner(10.0, [10.0 - 1e-9], algorithm="rdmss")
    assert k == 2


def test_inner_loop_ncg_ignores_overdue_records():
    # the plateau that ends a dmss restart at iterate 4 runs on to native
    # termination under the baseline
    counts, _, _ = run_inner(10.0, [9.0] * 6, algorithm="ncg")
    assert counts == (2, 7)


def test_inner_loop_stops_at_its_budget():
    (_, j), evals, _ = run_inner(10.0, [9.0, 8.0, 7.0, 6.0], budget=3)
    assert evals == [(10.0, True), (9.0, True), (8.0, True)]
    assert j == 3  # init + the two evaluated steps


def test_inner_loop_overdue_stop_before_a_rejected_step_reads_j_minus_one_steps():
    # the plateau restart is overdue at its last accepted value, iterate 4,
    # so it never asks for the rejected step after it
    (_, j), _, steps = run_inner(10.0, [9.0, 9.0, 9.0])
    assert (j, steps) == (4, 3)
    # a budget stop there reads j - 1 steps too, as does a descent that
    # converges there
    (_, j), _, steps = run_inner(10.0, [9.0, 8.0], budget=3)
    assert (j, steps) == (3, 2)
    flags, steps = ms.inner_loop([10.0, 9.0, 8.0], False, params(), 1.0, math.inf)
    assert (len(flags), steps) == (3, 2)


def test_inner_loop_native_stop_reads_the_rejected_step():
    # one iterate earlier nothing is overdue yet: the loop asks for the
    # step after the last value, which is rejected, and is charged j
    (_, j), evals, steps = run_inner(10.0, [9.0, 9.0])
    assert (j, steps) == (3, 3)
    assert evals == [(10.0, True), (9.0, True), (9.0, False)]


@given(
    st.floats(min_value=math.log(1e-3), max_value=math.log(special.ZETA_GUARD)),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=200, deadline=None)
def test_overdue_rule_matches_threshold_bisection(log_zeta, k):
    # k records, then a plateau up to iterate 200: the loop stops at the
    # first j >= 2 whose expected record count reaches the records held,
    # which is j >= n_record_threshold(records - 1, zeta), the rule the
    # running expected-records sum replaces
    zeta = math.exp(log_zeta)
    horizon = 200
    script = [10.0 - i for i in range(1, k)] + [11.0 - k] * (horizon - k)
    overdue = [j for j in range(2, horizon + 1) if special.expected_records(j, zeta) >= min(j, k)]
    stop = overdue[0] if overdue else horizon
    (records, iterates), _, _ = run_inner(10.0, script, zeta=zeta)
    assert (iterates, records) == (stop, min(stop, k))
    # the stop and the iterate before it against the bisection; a tie at an
    # integer j is decided by rounding, not by the rule
    for j in range(max(2, stop - 1), stop + 1):
        held = min(j, k)
        assume(abs(special.expected_records(j, zeta) - held) >= 1e-9)
        assert (j >= n_record_threshold(held - 1, zeta)) == (j in overdue[:1])


# a descent: a start value, then accepted steps that each drop the value by
# a share of its size, by an absolute amount (which may take it below 0,
# where ptilde takes its floor) or by less than RECORD_TOL, the last alone or
# adding up to a record over a plateau
descents = st.tuples(
    st.floats(min_value=0.0, max_value=10.0),
    st.lists(
        st.one_of(
            st.tuples(st.just("share"), st.floats(min_value=1e-9, max_value=1.0)),
            st.tuples(st.just("drop"), st.floats(min_value=1e-9, max_value=5.0)),
            st.tuples(st.just("drop"), st.floats(min_value=0.0, max_value=ms.RECORD_TOL)),
        ),
        max_size=60,
    ),
)
# the guarded range's ends, the prior, and any value between the ends
zetas = st.one_of(
    st.sampled_from([special.ZETA_MIN, 1.0, special.ZETA_GUARD]),
    st.floats(min_value=special.ZETA_MIN, max_value=special.ZETA_GUARD),
)


@given(
    descents,
    st.booleans(),
    st.sampled_from(ms.ALGORITHMS),
    zetas,
    st.one_of(st.just(math.inf), st.integers(min_value=1, max_value=70)),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=500, deadline=None)
def test_inner_loop_matches_the_per_iterate_reference(descent, rejected, algorithm, zeta, budget, alpha, scale):
    f0, steps = descent
    values = [f0]
    for kind, size in steps:
        values.append(values[-1] - (size * abs(values[-1]) if kind == "share" else size))
    p = params(algorithm=algorithm, alpha=alpha, ptilde_scale=scale)
    got = ms.inner_loop(values, rejected, p, zeta, budget)
    assert got == reference.inner_loop(values, rejected, p, zeta, budget)


@given(zetas)
@settings(max_examples=30, deadline=None)
def test_a_record_never_makes_the_next_one_overdue(zeta):
    # expected_records(j) < k implies expected_records(j + 1) < k + 1 for
    # every k, which inner_loop relies on to check only after a non-record;
    # the tightest k is the least integer above expected_records(j)
    expected = 1.0  # expected_records(j, zeta), term by term
    for j in range(1, 10_001):
        after = expected + zeta / (j + zeta)
        assert after < math.floor(expected) + 2
        expected = after
    assert expected == special.expected_records(10_001, zeta)


# ---------------------------------------------------------------------------
# global drivers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def zakharov_reports():
    spec = objectives.make("zakharov", 5)
    return ms.run_block(spec, params(), [424242])[0], ms.run_block(spec, params(algorithm="rdmss"), [424242])[0]


def test_reports_are_deterministic(zakharov_reports):
    spec = objectives.make("zakharov", 5)
    (again,) = ms.run_block(spec, params(), [424242])
    assert history_rows(again) == history_rows(zakharov_reports[0])
    assert again.total_evals == zakharov_reports[0].total_evals


def test_every_run_satisfies_record_bounds(zakharov_reports):
    for report in zakharov_reports:
        for st in report.run_stats:
            assert st.iterates >= st.records >= 1


def test_p_fail_matches_declared_relation(zakharov_reports):
    for report in zakharov_reports:
        tally = tally_of([(s.records, s.iterates) for s in report.run_stats])
        assert report.zeta_w == special.solve_zeta_tally(tally)
        counts = [s.records for s in report.run_stats]
        x = min(0.5 * report.zeta_w * -math.log(0.01**5), float(np.mean(counts)))
        assert report.p_fail == special.p_fail_histogram(tally.record_hist, x)
        assert report.p_fail < 1e-3  # loop exit condition


def test_history_rows_are_chronological_and_flagged(zakharov_reports):
    for report in zakharov_reports:
        rows = history_rows(report)
        # restart indices form a non-decreasing sequence starting at 1
        seq = [restart for _, _, restart in rows]
        assert seq[0] == 1 and all(b - a in (0, 1) for a, b in zip(seq, seq[1:]))
        # the first row of every restart is that run's first record
        firsts = {}
        for _, is_record, restart in rows:
            firsts.setdefault(restart, is_record)
        assert all(firsts.values())


def test_total_evals_counts_history_rows(zakharov_reports):
    for report in zakharov_reports:
        rows = history_rows(report)
        assert report.total_evals == len(report.values) == len(report.records) == len(rows)
        assert report.restarts == len(report.run_stats) == rows[-1][2]
        assert report.avg_inner_iters == pytest.approx(np.mean([s.iterates for s in report.run_stats]))
        # each restart's stats count its own history rows
        for i, s in enumerate(report.run_stats, start=1):
            own = [is_record for _, is_record, restart in rows if restart == i]
            assert (s.iterates, s.records) == (len(own), sum(own))


def test_rdmss_equals_dmss_until_first_slope_cut(zakharov_reports):
    d_hist, r_hist = history_rows(zakharov_reports[0]), history_rows(zakharov_reports[1])
    shared = 0
    for a, b in zip(d_hist, r_hist):
        if a != b:
            break
        shared += 1
    assert shared >= 2  # identical through at least the first run's start


def test_rdmss_with_slope_disabled_is_dmss(monkeypatch):
    spec = objectives.make("rosenbrock", 5)
    (base,) = ms.run_block(spec, params(), [777])
    # no record's slope is below an expected slope of 0
    monkeypatch.setattr(ms, "expected_slope", lambda *a, **k: 0.0)
    (disabled,) = ms.run_block(spec, params(algorithm="rdmss"), [777])
    assert history_rows(disabled) == history_rows(base)
    assert disabled.restarts == base.restarts


@pytest.mark.parametrize("algorithm", ["dmss", "rdmss", "ncg"])
def test_budget_exhaustion_is_flagged_not_raised(algorithm):
    spec = objectives.make("zakharov", 5)
    p = params(algorithm=algorithm, max_total_evals=7)
    (report,) = ms.run_block(spec, p, [3])
    assert report.budget_exhausted
    assert report.total_evals <= p.max_total_evals


@pytest.mark.parametrize("algorithm", ["dmss", "rdmss", "ncg"])
def test_budgeted_run_is_a_prefix_of_the_unbudgeted_run(algorithm):
    # every decision reads only the evaluations so far, so a budget of m
    # cuts the run after its m-th evaluation and changes nothing before it
    spec = objectives.make("zakharov", 5)
    (full,) = ms.run_block(spec, params(algorithm=algorithm), [3])
    length = full.total_evals
    assert not full.budget_exhausted
    for m in range(1, length + 2):
        (cut,) = ms.run_block(spec, params(algorithm=algorithm, max_total_evals=m), [3])
        assert history_rows(cut) == history_rows(full)[: min(length, m)]
        assert cut.budget_exhausted == (length >= m)


@pytest.mark.parametrize("algorithm", ["dmss", "rdmss"])
@pytest.mark.parametrize("name, budget", [("styblinski_tang", 7), ("rosenbrock", 12)])
def test_a_block_runs_out_of_budget_row_by_row(name, budget, algorithm):
    # the rows of one block spend a small budget at different restarts;
    # each still stops at it and equals its run alone
    spec = objectives.make(name, 5)
    p = params(algorithm=algorithm, max_total_evals=budget)
    seeds = [bench.derive_seed(bench.DEFAULT_SEED, i) for i in range(8)]
    block = ms.run_block(spec, p, seeds)
    assert len({report.restarts for report in block}) > 1
    for seed, report in zip(seeds, block):
        assert report.total_evals <= budget and report.budget_exhausted
        assert report == ms.run_block(spec, p, [seed])[0]


# ---------------------------------------------------------------------------
# restarts descended in waves
# ---------------------------------------------------------------------------

# the first five runs of the canonical table (master seed 52)
CANONICAL_SEEDS = [bench.derive_seed(bench.DEFAULT_SEED, i) for i in range(5)]
# the block of test_a_block_runs_out_of_budget_row_by_row
BUDGET_SEEDS = [bench.derive_seed(bench.DEFAULT_SEED, i) for i in range(8)]

AHEAD_BLOCKS = (
    # the golden 5-run prefix of every canonical DMSS/RDMSS configuration
    [
        (name, params(algorithm=algorithm), CANONICAL_SEEDS)
        for name in objectives.OBJECTIVE_IDS
        for algorithm in ("dmss", "rdmss")
    ]
    # budgets spent at different restarts
    + [
        (name, params(algorithm=algorithm, max_total_evals=budget), BUDGET_SEEDS)
        for name, budget in (("styblinski_tang", 7), ("rosenbrock", 12))
        for algorithm in ("dmss", "rdmss")
    ]
    # ~100 restarts per run
    + [
        (name, params(algorithm=algorithm, delta=1e-30), CANONICAL_SEEDS[:3])
        for name, algorithm in (("zakharov", "dmss"), ("styblinski_tang", "rdmss"))
    ]
)


@pytest.mark.parametrize(
    "name, p, seeds",
    AHEAD_BLOCKS,
    ids=[f"{name}-{p.algorithm}-{p.max_total_evals}-{p.delta}" for name, p, _ in AHEAD_BLOCKS],
)
def test_restarts_run_ahead_change_no_report(monkeypatch, name, p, seeds):
    # a driver reads a prefix of each descent, in order, and is charged up
    # to the last step it read, however many restarts a wave descends,
    # and each run draws from its own generator, so it equals its run alone
    spec = objectives.make(name, 5)
    assert ms._wave_size(p, ms.RunReport(p.algorithm), p.max_total_evals) > 1
    ahead = ms.run_block(spec, p, seeds)
    for seed, report in zip(seeds, ahead):
        assert report == ms.run_block(spec, p, [seed])[0]
    monkeypatch.setattr(ms, "_wave_size", lambda params, report, left: 1)
    assert ahead == ms.run_block(spec, p, seeds)


def report_after(restarts, iterates=10, p_fail=1.0):
    """A DMSS run's report after ``restarts`` restarts of ``iterates`` each."""
    stats = [ms.Restart(records=1, iterates=iterates, f_evals=iterates, hvp_evals=0, steps=iterates - 1)] * restarts
    return ms.RunReport("dmss", values=[0.0] * (restarts * iterates), run_stats=stats, p_fail=p_fail)


# ceil(log(delta) / log(1/2)) + 1: the restarts a run needs at the record
# model's prior p_fail factor of 1/2 per restart, plus one
PRIOR_WAVE = {1e-3: 11, 1e-30: 101}


def test_first_wave_is_the_record_prior_and_ncg_draws_one():
    for delta, prior in PRIOR_WAVE.items():
        p = params(delta=delta)
        assert ms._wave_size(p, report_after(0), 100_000) == prior
        assert ms._wave_size(p, report_after(0), prior) == prior
        assert ms._wave_size(p, report_after(0), 5) == 5  # capped at the evaluations left
        assert ms._wave_size(params(algorithm="ncg", delta=delta), report_after(0), 100_000) == 1


@pytest.mark.parametrize("restarts", [1, 8, 20, 150])
def test_wave_without_a_p_fail_trend_draws_the_prior(restarts):
    for delta, prior in PRIOR_WAVE.items():
        p = params(delta=delta)
        assert ms._wave_size(p, report_after(restarts), 100_000) == prior
        # the 25 evaluations left hold 3 restarts of the run's mean length, 10
        assert ms._wave_size(p, report_after(restarts), 25) == 3


def test_wave_draws_the_restarts_its_p_fail_trend_still_needs():
    # 8 restarts brought p_fail to 1e-6, a factor 10**-0.75 each; reaching
    # 1e-30 takes 32 more, plus one
    p = params(delta=1e-30)
    assert ms._wave_size(p, report_after(8, p_fail=1e-6), 100_000) == 33


def test_flat_p_fail_waves_hold_what_the_budget_left_can(monkeypatch):
    # p_fail barely below 1 asks for about the whole budget as one wave;
    # the guard holds each wave to the restarts the evaluations left hold
    # at the run's mean restart length, and no wave size changes the report
    spec = objectives.make("zakharov", 5)
    p = params(max_total_evals=5_000)
    monkeypatch.setattr(ms, "p_fail_histogram", lambda hist, x: 1 - 1e-12)
    waves = []
    descend = newton_cg.descend

    def wave(spec, x0, max_steps):
        waves.append(len(x0))
        return descend(spec, x0, max_steps)

    monkeypatch.setattr(newton_cg, "descend", wave)
    (report,) = ms.run_block(spec, p, [7])
    assert report.budget_exhausted and waves[0] == PRIOR_WAVE[p.delta] and len(waves) > 1
    r = 0
    for n in waves:
        if r:
            total = sum(stats.iterates for stats in report.run_stats[:r])
            assert n <= math.ceil((p.max_total_evals - total) * r / total)
        r += n
    monkeypatch.setattr(ms, "_wave_size", lambda params, report, left: 1)
    assert report == ms.run_block(spec, p, [7])[0]


def fake_wave(n, descent):
    """The columns :func:`newton_cg.descend` sends for ``n`` restarts that
    each take the values ``descent`` and then converge, at no cost."""
    fx = np.tile(np.array(descent)[:, None], (1, n))
    return fx, np.zeros((len(descent), n, 2), dtype=int), np.full(n, len(descent) - 1), np.zeros(n, dtype=bool)


@pytest.mark.parametrize("descent", [[1.0, 1.0], [1.0]], ids=["hesitation", "unmoved-start"])
def test_no_record_past_a_start_point_keeps_the_prior(descent):
    # restarts without a record past their start point put the zeta MLE
    # at its boundary; zeta_w and p_fail keep their prior 1.0, so the run
    # reads each wave whole, draws the next at the prior's size and ends
    # only on its budget
    spec = objectives.make("zakharov", 5)
    p = params(max_total_evals=60)
    report = ms.RunReport("dmss")
    run = ms._drive(spec, p, report, np.random.default_rng(0))
    waves = []
    x0, _ = next(run)
    with pytest.raises(StopIteration):
        while True:
            waves.append(len(x0))
            x0, _ = run.send(fake_wave(len(x0), descent))
    assert waves[:2] == [PRIOR_WAVE[p.delta]] * 2
    assert report.budget_exhausted and report.total_evals == p.max_total_evals
    assert (report.zeta_w, report.p_fail) == (1.0, 1.0)


def restart_draws(spec, seeds, n) -> dict:
    """Start point -> ``(run, restart)`` for the first ``n`` restarts of
    each run: run i's restart r starts at the r-th uniform draw of
    ``default_rng(seeds[i])``."""
    draws = {}
    for i, seed in enumerate(seeds):
        for r, x in enumerate(objectives.sample_uniform(spec, np.random.default_rng(seed), n)):
            draws[tuple(x)] = (i, r)
    return draws


@pytest.mark.parametrize("algorithm", ["dmss", "rdmss"])
@pytest.mark.parametrize("name, budget", [("styblinski_tang", 7), ("rosenbrock", 12)])
def test_no_row_steps_past_what_its_budget_can_read(monkeypatch, name, budget, algorithm):
    # restart r of a run whose wave began at its restart r0, with `left`
    # evaluations in the budget, holds at most left - (r - r0) evaluations:
    # each restart before it in the wave holds one.  A restart reads at
    # most one step fewer than it holds evaluations, so its row may take
    # left - (r - r0) - 1 steps
    spec = objectives.make(name, 5)
    p = params(algorithm=algorithm, max_total_evals=budget)
    draws = restart_draws(spec, BUDGET_SEEDS, budget)
    waves, row_steps = [], [0]
    descend, step = newton_cg.descend, newton_cg.step

    def wave(spec, x0, max_steps):
        waves.append(([draws[tuple(x)] for x in x0], list(max_steps)))
        return descend(spec, x0, max_steps)

    def counted_step(state, rows):
        accepted = step(state, rows)
        row_steps[0] += len(rows)
        assert (state.steps <= waves[-1][1]).all()
        return accepted

    monkeypatch.setattr(newton_cg, "descend", wave)
    monkeypatch.setattr(newton_cg, "step", counted_step)
    reports = ms.run_block(spec, p, BUDGET_SEEDS)
    for restarts, caps in waves:
        drawn = {}  # run -> [(restart, cap), ...] in wave order
        for (i, r), cap in zip(restarts, caps):
            drawn.setdefault(i, []).append((r, cap))
        for i, rows in drawn.items():
            r0 = rows[0][0]
            left = budget - sum(stats.iterates for stats in reports[i].run_stats[:r0])
            assert rows == [(r0 + q, left - q - 1) for q in range(len(rows))] and rows[-1][1] >= 0
    charged = sum(restart.steps for report in reports for restart in report.run_stats)
    assert charged <= row_steps[0]


@pytest.mark.parametrize(
    "name, algorithm", [("zakharov", "dmss"), ("styblinski_tang", "rdmss"), ("centered_sinusoidal", "rdmss")]
)
def test_restart_i_starts_at_the_runs_ith_draw(monkeypatch, name, algorithm):
    # restarts descended in waves still take the run's own draws in
    # restart order.  The first wave holds each of these runs whole, so
    # they are run again in waves of three, which every run spans
    spec = objectives.make(name, 5)
    seeds = CANONICAL_SEEDS[:3]
    whole = ms.run_block(spec, params(algorithm=algorithm), seeds)
    assert all(report.restarts > 1 for report in whole)  # each run draws several restarts in a wave
    monkeypatch.setattr(ms, "_wave_size", lambda params, report, left: min(3, left))
    reports = ms.run_block(spec, params(algorithm=algorithm), seeds)
    assert all(report.restarts > 3 for report in reports)  # every run's restarts span two waves
    assert reports == whole
    for seed, report in zip(seeds, reports):
        firsts = {}
        for f, _, restart in history_rows(report):
            firsts.setdefault(restart, f)
        assert list(firsts) == list(range(1, report.restarts + 1))
        rng = np.random.default_rng(seed)
        draws = objectives.sample_uniform(spec, rng, len(firsts))
        values = objectives.Oracle(spec, len(draws)).f(draws, np.arange(len(draws)))
        assert list(firsts.values()) == values.tolist()


def test_every_restart_records_its_costs(zakharov_reports):
    for report in zakharov_reports:
        for restart in report.run_stats:
            assert isinstance(restart, ms.Restart)
            # a step either moves (one iterate) or stops the restart natively
            assert restart.iterates - 1 <= restart.steps <= restart.iterates
            assert restart.rejected_probes == restart.f_evals - 1 - (restart.iterates - 1) >= 0
            # at most one HVP per coordinate and step
            assert restart.hvp_evals <= 5 * restart.steps


@pytest.mark.parametrize(
    "name, algorithm, budget",
    [
        ("styblinski_tang", "rdmss", 100_000),
        ("shifted_sinusoidal", "dmss", 100_000),
        ("styblinski_tang", "dmss", 7),
        ("rosenbrock", "rdmss", 12),
    ],
)
def test_each_restart_is_charged_one_gradient_per_iterate(monkeypatch, name, algorithm, budget):
    # a restart evaluates a gradient at its start point and at each
    # accepted step (test_newton_cg counts them), so it holds one per
    # iterate it read; it is charged the engine's f and HVP counts at the
    # last step it read, budget cuts included
    spec = objectives.make(name, 5)
    draws = restart_draws(spec, BUDGET_SEEDS, 1000)
    rows = {}  # (run, restart) -> the descent's (f, hvp) counts per step
    descend = newton_cg.descend

    def wave(spec, x0, max_steps):
        out = descend(spec, x0, max_steps)
        for c, x in enumerate(x0):
            rows[draws[tuple(x)]] = out[1][:, c]
        return out

    monkeypatch.setattr(newton_cg, "descend", wave)
    reports = ms.run_block(spec, params(algorithm=algorithm, max_total_evals=budget), BUDGET_SEEDS)
    for i, report in enumerate(reports):
        for r, restart in enumerate(report.run_stats):
            assert rows[i, r][restart.steps].tolist() == [restart.f_evals, restart.hvp_evals]


# ---------------------------------------------------------------------------
# bare Newton-CG baseline
# ---------------------------------------------------------------------------

# the rosenbrock, shifted_sinusoidal and zakharov descents of the first
# five canonical runs hold improvements smaller than RECORD_TOL


@pytest.fixture(scope="module")
def ncg_reports():
    p = params(algorithm="ncg")
    return [
        (name, seed, ms.run_block(objectives.make(name, 5), p, [seed])[0])
        for name in objectives.OBJECTIVE_IDS
        for seed in CANONICAL_SEEDS
    ]


def test_ncg_is_one_plain_descent(ncg_reports):
    for name, seed, report in ncg_reports:
        spec = objectives.make(name, 5)
        engine = reference.init(spec, objectives.sample_uniform(spec, np.random.default_rng(seed), 1)[0])
        values = [engine.fx]
        while not engine.converged:
            fn = reference.step(engine)
            if fn is None:
                break
            values.append(fn)
        assert report.values == values
        oracle = engine.oracle
        (restart,) = report.run_stats
        assert (restart.f_evals, restart.iterates, restart.hvp_evals, restart.steps) == (
            oracle.f_evals[0], engine.grad_evals, oracle.hvp_evals[0], engine.steps
        )
        assert all(b < a for a, b in zip(values, values[1:]))
        assert [restart for _, _, restart in history_rows(report)] == [1] * len(values)
        assert report.restarts == 1 and not report.budget_exhausted


def test_ncg_flags_records_with_the_driver_tolerance(ncg_reports):
    below_tolerance = 0
    for _, _, report in ncg_reports:
        best = math.inf
        assert len(report.records) == len(report.values)
        for f, is_record in zip(report.values, report.records):
            assert is_record == (f < best - ms.RECORD_TOL)
            if is_record:
                best = f
            else:
                below_tolerance += 1
    assert below_tolerance > 0


def test_ncg_leaves_the_record_statistics_alone(ncg_reports):
    default = ms.RunReport("ncg")
    for _, _, report in ncg_reports:
        assert (report.zeta_w, report.p_fail) == (default.zeta_w, default.p_fail)
        assert len(report.records) == len(report.values)
        (restart,) = report.run_stats
        assert (restart.records, restart.iterates) == (sum(report.records), len(report.values))


def test_check_success_exact_hit_and_miss():
    spec = objectives.make("zakharov", 5)
    values = [4.2, 0.0, 1.0]
    assert ms.check_success(values, spec, 1e-10) == 2
    assert ms.check_success(values[:1], spec, 1e-10) is None


def test_params_validation():
    with pytest.raises(ValueError):
        ms.AlgoParams("dmss", alpha=0.0)
    with pytest.raises(ValueError):
        ms.AlgoParams("dmss", epsilon=1.0)
    with pytest.raises(ValueError):
        ms.AlgoParams("dmss", delta=0.0)
    # True passes the range checks as 1 and would be recorded as true
    with pytest.raises(ValueError, match="alpha"):
        ms.AlgoParams("dmss", alpha=True)
    # a NaN scale makes ptilde NaN, so the slope cut never fires and RDMSS
    # runs as DMSS; a budget that is not an integer fails only in a run,
    # and True would be a budget of 1
    for scale in (-1.0, 0.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="ptilde_scale"):
            ms.AlgoParams("dmss", ptilde_scale=scale)
    for budget in (0, -5, 2.5, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="max_total_evals"):
            ms.AlgoParams("dmss", max_total_evals=budget)
    assert ms.AlgoParams("dmss", max_total_evals=np.int64(7)).max_total_evals == 7


@pytest.mark.parametrize("name", ["dmsss", "RDMSS"])
def test_unknown_algorithm_names_are_rejected_with_one_message(name):
    # the loop branches on exact names: "dmsss" would run DMSS and
    # "RDMSS" would run without the slope rule
    # the name is checked once, when a run's parameters are built
    message = f"algorithm must be one of {ms.ALGORITHMS}, not '{name}'"
    for call in (
        lambda: ms.AlgoParams(name),
        lambda: bench.ExperimentConfig("zakharov", 5, name),
    ):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message
