"""Driver tests: inner-loop termination semantics against worked
examples, cross-run bookkeeping invariants, determinism, and the
DMSS/RDMSS relationship."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recordstart import multistart as ms
from recordstart import newton_cg, objectives, special


class ScriptedEngine:
    """Stand-in engine: replays a fixed value sequence through a patched
    step function."""

    def __init__(self, f0, script):
        self.fx = f0
        self.script = list(script)
        self.converged = False
        self.x = np.zeros(2)
        self.line_search_evals = 0

    def advance(self):
        if not self.script:
            self.converged = True
            return None
        self.fx = self.script.pop(0)
        return self.fx


@pytest.fixture
def scripted(monkeypatch):
    def patch(engine):
        monkeypatch.setattr(newton_cg, "step", lambda state: state.advance())
        return engine

    return patch


def params(**kw):
    defaults = dict(alpha=0.5, delta=1e-3, epsilon=0.01**5)
    defaults.update(kw)
    return ms.AlgoParams(**defaults)


# ---------------------------------------------------------------------------
# inner loop
# ---------------------------------------------------------------------------


def test_inner_loop_converged_at_init(scripted):
    engine = scripted(ScriptedEngine(4.0, []))
    engine.converged = True
    log = ms.inner_loop(engine, params(), zeta=1.0)
    assert log.records == 1 and log.iterates == 1


def test_inner_loop_stuck_after_second_record_stops_at_four(scripted):
    # one improvement then a plateau; at unit zeta the second record is
    # overdue once the iterate count passes ~3.64, so the run ends at 4
    engine = scripted(ScriptedEngine(10.0, [9.0, 9.0, 9.0, 9.0, 9.0, 9.0]))
    log = ms.inner_loop(engine, params(), zeta=1.0)
    assert log.records == 2
    assert log.iterates == 4


def test_inner_loop_descending_run_records_every_iterate(scripted):
    engine = scripted(ScriptedEngine(10.0, [8.0, 6.0, 4.0, 2.0]))
    log = ms.inner_loop(engine, params(), zeta=1.0)
    assert log.records == log.iterates == 5


def test_inner_loop_slope_criterion_breaks_after_the_record(scripted):
    # second record improves by 1e-9 in one step: slope far below the
    # expectation at the previous record's level, so the loop breaks
    # right after evaluating it
    engine = scripted(ScriptedEngine(10.0, [5.0, 5.0 - 1e-9, 0.0, 0.0]))
    log_plain = ms.inner_loop(scripted(ScriptedEngine(10.0, [5.0, 5.0 - 1e-9, 0.0, 0.0])), params(), zeta=1.0)
    log_slope = ms.inner_loop(engine, params(), zeta=1.0, use_slope=True)
    assert log_slope.records == 3
    assert log_slope.iterates == 3
    assert log_plain.iterates > log_slope.iterates


def test_inner_loop_slope_needs_two_records(scripted):
    # a tiny first improvement alone must not trigger the slope break
    engine = scripted(ScriptedEngine(10.0, [10.0 - 1e-9]))
    log = ms.inner_loop(engine, params(), zeta=1.0, use_slope=True)
    assert log.records == 2


def test_inner_loop_on_eval_abort(scripted):
    engine = scripted(ScriptedEngine(10.0, [9.0, 8.0, 7.0, 6.0]))
    calls = []

    def on_eval(f, is_record):
        calls.append(f)
        return len(calls) < 2

    log = ms.inner_loop(engine, params(), zeta=1.0, on_eval=on_eval)
    assert len(calls) == 2
    assert log.iterates == 3  # init + the two evaluated steps


@given(
    st.floats(min_value=math.log(1e-3), max_value=math.log(ms.ZETA_GUARD)),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=200, deadline=None)
def test_overdue_rule_matches_threshold_bisection(log_zeta, k):
    # k records, then a plateau up to iterate 200: the loop must stop at the
    # first j >= 2 with j >= n_record_threshold(records - 1, zeta), the rule
    # the running expected-records sum replaces
    zeta = math.exp(log_zeta)
    horizon = 200
    script = [10.0 - i for i in range(1, k)] + [11.0 - k] * (horizon - k)
    thresholds = [special.n_record_threshold(r - 1, zeta) for r in range(1, k + 1)]
    stop = horizon
    for j in range(2, horizon + 1):
        held = min(j, k)
        # a tie at an integer j is decided by rounding, not by the rule
        assume(abs(special.expected_records(j, zeta) - held) >= 1e-9)
        if j >= thresholds[held - 1]:
            stop = j
            break
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton_cg, "step", lambda state: state.advance())
        log = ms.inner_loop(ScriptedEngine(10.0, script), params(), zeta=zeta)
    assert (log.iterates, log.records) == (stop, min(stop, k))


# ---------------------------------------------------------------------------
# global drivers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def zakharov_reports():
    spec = objectives.make("zakharov", 5)
    p = ms.AlgoParams(alpha=0.5, delta=1e-3, epsilon=0.01**5)
    return ms.run_dmss(spec, p, 424242), ms.run_rdmss(spec, p, 424242)


def test_reports_are_deterministic(zakharov_reports):
    spec = objectives.make("zakharov", 5)
    p = ms.AlgoParams(alpha=0.5, delta=1e-3, epsilon=0.01**5)
    again = ms.run_dmss(spec, p, 424242)
    assert again.history == zakharov_reports[0].history
    assert again.total_evals == zakharov_reports[0].total_evals


def test_every_run_satisfies_record_bounds(zakharov_reports):
    for report in zakharov_reports:
        for st in report.state.run_stats:
            assert st.iterates >= st.records >= 1


def test_incumbent_is_running_minimum(zakharov_reports):
    for report in zakharov_reports:
        assert report.state.incumbent_y == min(r.f_value for r in report.history)


def test_p_fail_matches_declared_relation(zakharov_reports):
    for report in zakharov_reports:
        state = report.state
        counts = [s.records for s in state.run_stats]
        assert state.zeta == special.solve_zeta(state.run_stats)
        lam = ms._effective_lambda(0.5, state.zeta, 0.01**5, float(np.mean(counts)))
        assert state.lam_effective == lam
        assert state.p_fail == special.p_fail(counts, lam, 0.01**5)
        assert state.p_fail < 1e-3  # loop exit condition


def test_history_rows_are_chronological_and_flagged(zakharov_reports):
    for report in zakharov_reports:
        idx = [r.eval_index for r in report.history]
        assert idx == list(range(1, len(idx) + 1))
        restart_rows = [r for r in report.history if r.restart_index != 0]
        # restart indices form a non-decreasing sequence starting at 1
        seq = [r.restart_index for r in report.history]
        assert seq[0] == 1 and all(b - a in (0, 1) for a, b in zip(seq, seq[1:]))
        # the first row of every restart is that run's first record
        firsts = {}
        for r in report.history:
            firsts.setdefault(r.restart_index, r)
        assert all(r.is_record for r in firsts.values())


def test_total_evals_counts_history_rows(zakharov_reports):
    for report in zakharov_reports:
        assert report.total_evals == len(report.history)
        assert report.restarts == len(report.state.run_stats)
        assert report.avg_inner_iters == pytest.approx(
            np.mean([s.iterates for s in report.state.run_stats])
        )


def test_rdmss_equals_dmss_until_first_slope_cut(zakharov_reports):
    d_hist, r_hist = zakharov_reports[0].history, zakharov_reports[1].history
    shared = 0
    for a, b in zip(d_hist, r_hist):
        if a != b:
            break
        shared += 1
    assert shared >= 2  # identical through at least the first run's start


def test_rdmss_with_slope_disabled_is_dmss(monkeypatch):
    spec = objectives.make("rosenbrock", 5)
    p = ms.AlgoParams(alpha=0.5, delta=1e-3, epsilon=0.01**5)
    base = ms.run_dmss(spec, p, 777)
    monkeypatch.setattr(ms, "expected_slope", lambda *a, **k: 0.0)
    disabled = ms.run_rdmss(spec, p, 777)
    assert disabled.history == base.history
    assert disabled.restarts == base.restarts


def test_budget_exhaustion_is_flagged_not_raised():
    spec = objectives.make("zakharov", 5)
    p = ms.AlgoParams(alpha=0.5, delta=1e-3, epsilon=0.01**5, max_total_evals=7)
    report = ms.run_dmss(spec, p, 3)
    assert report.budget_exhausted
    assert report.total_evals <= 8


def test_check_success_exact_hit_and_miss():
    spec = objectives.make("zakharov", 5)
    rows = [
        ms.HistoryRow(1, 4.2, True, 1),
        ms.HistoryRow(2, 0.0, True, 1),
        ms.HistoryRow(3, 1.0, False, 1),
    ]
    ok, idx = ms.check_success(rows, spec, 1e-10)
    assert ok and idx == 2
    ok, idx = ms.check_success(rows[:1], spec, 1e-10)
    assert not ok and idx is None


def test_params_validation():
    with pytest.raises(ValueError):
        ms.AlgoParams(alpha=0.0)
    with pytest.raises(ValueError):
        ms.AlgoParams(epsilon=1.0)
    with pytest.raises(ValueError):
        ms.AlgoParams(delta=0.0)
    with pytest.raises(ValueError):
        ms.AlgoParams(ptilde_scale=-1.0)
