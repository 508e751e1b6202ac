"""Simulator tests: construction invariants, the initial sampling law,
the event-driven record chain against an independent per-iterate sampler,
with and without dropped trajectories, its send protocol, a recount of
the validation report from every trajectory's records, and determinism of
the report.  Distributional validation at full trajectory counts lives in
the acceptance suite."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recordstart import hasplid as hl
from reference import extract_records, lab_statistics, per_iterate_values


def _chain_records(alpha, lam, n, count, seed):
    """The first ``count`` records of ``record_chain`` as (levels, times)
    arrays of shape (count, n)."""
    chain = hl.record_chain(alpha, lam, n, np.random.default_rng(seed))
    levels, times = zip(*(next(chain) for _ in range(count)))
    return np.array(levels), np.array(times)


def test_zero_alpha_every_iterate_is_a_record():
    levels, times = _chain_records(0.0, 1.0, 4, 200, 5)
    assert np.all(times == np.arange(200)[:, None])
    assert np.all(np.diff(levels, axis=0) < 0)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.25, max_value=4.0),
    st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=40, deadline=None)
def test_trajectories_never_increase(alpha, lam, seed):
    values = per_iterate_values(alpha, lam, 4, 60, np.random.default_rng(seed))
    assert np.all(np.diff(values, axis=0) <= 0)


def test_initial_sample_law_matches_power_cdf():
    # inverse-CDF sampling: the first level has CDF y**lam
    rng = np.random.default_rng(0)
    for lam in (0.5, 1.0, 2.0):
        u = rng.random(100_000)
        y = np.sort(u ** (1.0 / lam))
        ecdf = np.arange(1, y.size + 1) / y.size
        ks = np.max(np.abs(ecdf - y**lam))
        assert ks <= 0.01


def test_initial_sample_consistent_with_simulator():
    # the chain's first level is exactly u0**(1/lam)
    for seed in (0, 1, 99):
        for lam in (0.5, 2.0):
            u0 = np.random.default_rng(seed).random()
            levels, _ = _chain_records(0.7, lam, 1, 1, seed)
            assert levels[0, 0] == u0 ** (1.0 / lam)


def test_extract_records_worked_example():
    values = np.array([9, 7, 7, 5, 5, 5, 3, 2, 1, 1])
    flags = extract_records(values)
    assert np.flatnonzero(flags).tolist() == [0, 1, 3, 6, 7, 8]
    assert values[flags].tolist() == [9, 7, 5, 3, 2, 1]


def test_extract_records_strictly_decreasing_trajectory():
    assert extract_records([5.0, 4.0, 2.5, 1.0]).all()


def test_extract_records_constant_trajectory():
    assert extract_records([2.0, 2.0, 2.0]).tolist() == [True, False, False]


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=30, deadline=None)
def test_record_invariants_on_simulated_trajectories(seed):
    # the per-iterate sampler moves only to a strictly lower level, so
    # every change of value is a record
    values = per_iterate_values(0.5, 1.0, 8, 80, np.random.default_rng(seed))
    flags = extract_records(values)
    assert flags[0].all()
    assert np.array_equal(flags[1:], values[1:] != values[:-1])


def test_simulator_deterministic_given_seed():
    a = _chain_records(0.5, 1.0, 16, 50, 42)
    b = _chain_records(0.5, 1.0, 16, 50, 42)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# trajectories and horizon of the comparison with the per-iterate sampler;
# the tolerances below are two-sample bounds at this size
TRAJECTORIES = 20_000
HORIZON = 100
# a difference of means or frequencies may reach Z_BOUND standard errors
Z_BOUND = 4.0


def _ks_bound(n_a, n_b):
    """Kolmogorov-Smirnov distance at significance 1e-3 for two samples of
    ``n_a`` and ``n_b``: 1.95 * sqrt(1/n_a + 1/n_b) (conservative for the
    discrete record times)."""
    return 1.95 * math.sqrt(1.0 / n_a + 1.0 / n_b)


def _chain_summary(alpha, lam, seed, drop_half=False):
    """Record counts among the first 3 and the first ``HORIZON`` iterates,
    and time and level of the second record, of ``record_chain``'s
    trajectories; a second record at or past the horizon reads as time
    ``HORIZON`` and level inf.  With ``drop_half`` the chain keeps only
    the even-numbered trajectories after their third record."""
    chain = hl.record_chain(alpha, lam, TRAJECTORIES, np.random.default_rng(seed))
    first3 = first_horizon = 0
    keep = None
    for rec in itertools.count(1):
        level, time = chain.send(keep)
        keep = None
        first3 = first3 + (time < 3)
        first_horizon = first_horizon + (time < HORIZON)
        if rec == 2:
            t2 = np.where(time < HORIZON, time, HORIZON)
            y2 = np.where(time < HORIZON, level, np.inf)
        if rec == 3 and drop_half:
            keep = np.arange(0, TRAJECTORIES, 2)
            first3, first_horizon, t2, y2 = (a.take(keep) for a in (first3, first_horizon, t2, y2))
        if rec >= 2 and np.all(time >= HORIZON):
            return first3, first_horizon, t2, y2


def _sampler_summary(alpha, lam, seed):
    """:func:`_chain_summary` of the per-iterate reference sampler."""
    values = per_iterate_values(alpha, lam, TRAJECTORIES, HORIZON, np.random.default_rng(seed))
    seen = np.cumsum(extract_records(values), axis=0)
    second = seen >= 2
    reached = second.any(axis=0)
    at = second.argmax(axis=0)
    t2 = np.where(reached, at, HORIZON)
    y2 = np.where(reached, values[at, np.arange(TRAJECTORIES)], np.inf)
    return seen[2], seen[-1], t2, y2


def _ks_distance(a, b):
    """Largest gap between the empirical CDFs of two samples."""
    grid = np.union1d(a, b)
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _assert_same_law(chain, naive):
    """Two summaries agree within the two-sample bounds at their sizes."""
    n_chain, n_naive = chain[0].size, naive[0].size
    # record-count pmf among the first 3 iterates
    for k in (1, 2, 3):
        f_chain, f_naive = np.mean(chain[0] == k), np.mean(naive[0] == k)
        pooled = (f_chain * n_chain + f_naive * n_naive) / (n_chain + n_naive)
        error = math.sqrt(pooled * (1 - pooled) * (1 / n_chain + 1 / n_naive))
        assert abs(f_chain - f_naive) <= Z_BOUND * error, k
    # mean record count among the first HORIZON iterates
    error = math.sqrt(np.var(chain[1]) / n_chain + np.var(naive[1]) / n_naive)
    assert abs(np.mean(chain[1]) - np.mean(naive[1])) <= Z_BOUND * error
    # time and level of the second record
    assert _ks_distance(chain[2], naive[2]) <= _ks_bound(n_chain, n_naive)
    assert _ks_distance(chain[3], naive[3]) <= _ks_bound(n_chain, n_naive)


# (alpha, lam) of the comparison; each id also names the range model
CHAIN_CASES = [(0.5, 1.0), (1.0, 0.5), (0.2, 3.0), (0.8, 2.0), (0.0, 1.0)]
CHAIN_IDS = [f"{a}-{l}-uniform" for a, l in CHAIN_CASES]


@pytest.mark.parametrize("alpha, lam", CHAIN_CASES, ids=CHAIN_IDS)
def test_record_chain_matches_per_iterate_sampler(alpha, lam):
    # record_chain draws only the records (a Geometric(p**alpha) wait and
    # a U**(1/lam) shrink of p per record); the reference draws every
    # iterate, improving with probability y**alpha.  Independent seeds.
    _assert_same_law(_chain_summary(alpha, lam, seed=1), _sampler_summary(alpha, lam, seed=2))


@pytest.mark.parametrize("alpha, lam", CHAIN_CASES, ids=CHAIN_IDS)
def test_record_chain_that_drops_half_matches_per_iterate_sampler(alpha, lam):
    # after a send the chain draws only for the kept trajectories; those
    # still follow the law, on every later record (the counts to HORIZON)
    _assert_same_law(_chain_summary(alpha, lam, seed=1, drop_half=True), _sampler_summary(alpha, lam, seed=2))


def test_record_chain_sending_none_or_every_index_draws_as_next():
    plain = _chain_records(0.5, 1.0, 64, 12, 7)
    for keep in (None, np.arange(64)):
        chain = hl.record_chain(0.5, 1.0, 64, np.random.default_rng(7))
        sent = [next(chain)] + [chain.send(keep) for _ in range(11)]
        assert np.array_equal(plain[0], [y for y, _ in sent])
        assert np.array_equal(plain[1], [t for _, t in sent])


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_record_chain_keeps_only_the_sent_trajectories(seed):
    rng = np.random.default_rng(seed)
    chain = hl.record_chain(0.6, 1.5, 40, np.random.default_rng(seed))
    y, t = next(chain)
    for _ in range(15):
        keep = np.flatnonzero(rng.random(y.size) < 0.8)
        next_y, next_t = chain.send(keep)
        # the kept trajectories, in order: levels fall and times rise
        assert next_y.size == next_t.size == keep.size
        assert np.all(next_y < y[keep]) and np.all(next_t >= t[keep] + 1)
        y, t = next_y, next_t


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.25, max_value=4.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_record_chain_levels_fall_and_times_rise(alpha, lam, seed):
    levels, times = _chain_records(alpha, lam, 8, 25, seed)
    assert np.all(times[0] == 0)
    assert np.all(np.diff(levels, axis=0) < 0)
    assert np.all(np.diff(times, axis=0) >= 1)
    if alpha == 0.0:
        assert np.all(times == np.arange(25)[:, None])


def test_record_chain_draws_waits_past_underflow():
    # at lam = 0.01 the product of four U**100 underflows to 0 in about 6%
    # of the trajectories; numpy rejects a geometric success probability of
    # 0, so the kernel draws that wait at the smallest normal one
    levels, times = _chain_records(1.0, 0.01, 2000, 5, 0)
    assert np.any(levels[3] == 0.0)
    assert np.all(np.diff(times, axis=0) >= 1)


def test_validation_drops_no_trajectory_that_still_counts(monkeypatch):
    # the wrapped chain draws every trajectory to the end of the pass and
    # hands the lab only the ones it keeps, so the recount sees each dropped
    # trajectory's later records too: one that could still count shows
    drawn, handed = [], []

    def every_trajectory(alpha, lam, n, rng):
        ids = np.arange(n)
        for y, t in record_chain(alpha, lam, n, rng):
            drawn.append((y, t))
            handed.append(ids.size)
            keep = yield y.take(ids), t.take(ids)
            if keep is not None:
                ids = ids.take(keep)

    record_chain = hl.record_chain
    monkeypatch.setattr(hl, "record_chain", every_trajectory)
    config = hl.LabConfig(alpha=0.7, lam=1.5, trajectories=3000, seed=11)
    report = hl.validate_statistics(config)
    levels, times = (np.array([d[i] for d in drawn]).T for i in (0, 1))
    assert handed[0] == 3000 > handed[-1]
    recount = lab_statistics(levels, times, config.lam / config.alpha)
    assert {c.name: c.statistic for c in report.checks} == recount


def test_validation_report_is_deterministic():
    config = hl.LabConfig(alpha=0.7, lam=1.5, trajectories=3000, seed=11)
    assert hl.validate_statistics(config).to_json() == hl.validate_statistics(config).to_json()


# a LabConfig checks its fields when it is built, before any pass


def test_validation_requires_enough_samples():
    with pytest.raises(ValueError, match="insufficient"):
        hl.LabConfig(trajectories=999)


def test_validation_rejects_a_trajectory_count_that_is_not_an_integer():
    # numpy would fail on it with a TypeError deep inside the pass
    for trajectories in (1000.5, True):
        with pytest.raises(ValueError, match="trajectories"):
            hl.LabConfig(trajectories=trajectories)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf, True])
def test_validation_rejects_a_bad_lam(lam):
    with pytest.raises(ValueError, match="lam"):
        hl.LabConfig(lam=lam, trajectories=1000)


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.nan, True])
def test_lab_config_rejects_a_bad_alpha(alpha):
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
        hl.LabConfig(alpha=alpha)


@pytest.mark.parametrize("seed", [True, False, 52.0, -1, "0"])
def test_lab_config_rejects_a_seed_that_is_no_non_negative_integer(seed):
    # seed=True would reproduce seed 1's statistics and record "seed": true;
    # 52.0 would fail with numpy's TypeError inside the pass
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        hl.LabConfig(trajectories=1000, seed=seed)
    assert hl.LabConfig(trajectories=np.int64(1000), seed=np.int64(52)).seed == 52


def test_validation_rejects_an_empty_slope_window():
    # at lam = 1e-3 the first record sits at p = U**1000, in [0.48, 0.52]
    # with probability 0.52**0.001 - 0.48**0.001 = 8.0e-5, and a later one
    # only if p stayed above 0.48 (probability 7.3e-4) and the next
    # U**1000 lands in that window too; none of the 1000 at seed 0 does
    config = hl.LabConfig(lam=1e-3, trajectories=1000, seed=0)
    with pytest.raises(ValueError, match=r"slope window \[0\.48, 0\.52\]"):
        hl.validate_statistics(config)


def test_validation_report_roundtrip_small():
    report = hl.validate_statistics(hl.LabConfig(trajectories=2000, seed=3))
    data = report.to_dict()
    assert {c["name"] for c in data["checks"]} == {
        "poisson_mean_records",
        "poisson_variance_records",
        "third_record_survival",
        "inter_record_time_mean",
        "record_count_pmf_short_horizon",
        "expected_records_long_horizon",
        "conditional_slope_mean",
        "conditional_slope_mean_exact",
    }
    for c in data["checks"]:
        assert set(c) == {"name", "statistic", "theoretical", "tolerance", "relative", "pass"}
    assert isinstance(report.to_json(), str)
