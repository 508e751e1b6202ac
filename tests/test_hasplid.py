"""Simulator tests: construction invariants, the worked record-extraction
example, inverse-CDF sampling law, the per-iterate simulator against the
record chain it views, and determinism of the validation report.
Distributional validation at full trajectory counts lives in the
acceptance suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recordstart import hasplid as hl


def test_range_models_invert_their_cdf():
    for model in (hl.uniform_model(), hl.exponential_model()):
        for u in np.linspace(0.001, 0.999, 57):
            assert model.cdf(model.inverse_cdf(u)) == pytest.approx(u, abs=1e-10)


def test_zero_alpha_every_iterate_is_a_record():
    traj = hl.run_hasplid(0.0, 1.0, hl.uniform_model(), 200, seed=5)
    recs = hl.extract_records(traj)
    assert len(recs.values) == len(traj.values)
    assert all(b < a for a, b in zip(traj.values, traj.values[1:]))


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.25, max_value=4.0),
    st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=40, deadline=None)
def test_trajectories_never_increase(alpha, lam, seed):
    traj = hl.run_hasplid(alpha, lam, hl.uniform_model(), 60, seed=seed)
    assert all(b <= a for a, b in zip(traj.values, traj.values[1:]))


def test_initial_sample_law_matches_power_cdf():
    # inverse-CDF sampling: the first value has CDF p(y)**lam
    rng = np.random.default_rng(0)
    for lam in (0.5, 1.0, 2.0):
        u = rng.random(100_000)
        y = np.sort(u ** (1.0 / lam))
        ecdf = np.arange(1, y.size + 1) / y.size
        ks = np.max(np.abs(ecdf - y**lam))
        assert ks <= 0.01


def test_initial_sample_consistent_with_simulator():
    # the simulator's first value is exactly inverse_cdf(u0**(1/lam))
    for seed in (0, 1, 99):
        for lam in (0.5, 2.0):
            u0 = np.random.default_rng(seed).random()
            traj = hl.run_hasplid(0.7, lam, hl.uniform_model(), 1, seed=seed)
            assert traj.values[0] == pytest.approx(u0 ** (1.0 / lam), rel=1e-15)


def test_extract_records_worked_example():
    traj = hl.HasplidTrajectory(values=[9, 7, 7, 5, 5, 5, 3, 2, 1, 1], seed=None)
    recs = hl.extract_records(traj)
    assert recs.times == [0, 1, 3, 6, 7, 8]
    assert recs.values == [9, 7, 5, 3, 2, 1]


def test_extract_records_strictly_decreasing_trajectory():
    traj = hl.HasplidTrajectory(values=[5.0, 4.0, 2.5, 1.0], seed=None)
    recs = hl.extract_records(traj)
    assert recs.times == [0, 1, 2, 3]


def test_extract_records_constant_trajectory():
    recs = hl.extract_records(hl.HasplidTrajectory(values=[2.0, 2.0, 2.0], seed=None))
    assert recs.times == [0]
    assert recs.values == [2.0]


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=30, deadline=None)
def test_record_invariants_on_simulated_trajectories(seed):
    traj = hl.run_hasplid(0.5, 1.0, hl.uniform_model(), 80, seed=seed)
    recs = hl.extract_records(traj)
    assert recs.times[0] == 0
    assert all(b > a for a, b in zip(recs.times, recs.times[1:]))
    assert all(b < a for a, b in zip(recs.values, recs.values[1:]))
    for s in hl.slope_samples(recs):
        assert s > 0


def test_slope_samples_worked_example():
    recs = hl.RecordSequence(times=[2, 4], values=[5.0, 3.0])
    assert hl.slope_samples(recs) == [1.0]


def test_slope_samples_single_record_empty():
    assert hl.slope_samples(hl.RecordSequence(times=[0], values=[4.0])) == []


def test_simulator_deterministic_given_seed():
    a = hl.run_hasplid(0.5, 1.0, hl.uniform_model(), 50, seed=42)
    b = hl.run_hasplid(0.5, 1.0, hl.uniform_model(), 50, seed=42)
    assert a.values == b.values


def _chain_records(model, alpha, lam, n, count, seed):
    """The first ``count`` records of ``record_chain`` as (levels, times)
    arrays of shape (count, n)."""
    chain = hl.record_chain(alpha, lam, model, n, np.random.default_rng(seed))
    levels, times = zip(*(next(chain) for _ in range(count)))
    return np.array(levels), np.array(times)


@pytest.mark.parametrize("model", [hl.uniform_model(), hl.exponential_model()], ids=lambda m: m.name)
@pytest.mark.parametrize("alpha, lam", [(0.5, 1.0), (1.0, 0.5), (0.2, 3.0), (0.0, 1.0)])
def test_run_hasplid_is_the_record_chain_per_iterate(model, alpha, lam):
    for seed in (0, 7, 123):
        recs = hl.extract_records(hl.run_hasplid(alpha, lam, model, 300, seed=seed))
        levels, times = _chain_records(model, alpha, lam, 1, len(recs.values) + 1, seed)
        levels, times = levels[:, 0], times[:, 0]
        # the record after the last one extracted falls past the horizon
        assert times[-1] > 300
        assert recs.times == times[:-1].tolist()
        assert recs.values == levels[:-1].tolist()


@given(
    st.sampled_from(["uniform", "exponential"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.25, max_value=4.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_record_chain_levels_fall_and_times_rise(model_name, alpha, lam, seed):
    model = hl._MODELS[model_name]()
    levels, times = _chain_records(model, alpha, lam, 8, 25, seed)
    assert np.all(times[0] == 0)
    assert np.all(np.diff(levels, axis=0) < 0)
    assert np.all(np.diff(times, axis=0) >= 1)
    if alpha == 0.0:
        assert np.all(times == np.arange(25)[:, None])


def test_record_chain_draws_waits_past_underflow():
    # at lam = 0.01 the product of four U**100 underflows to 0 in about 6%
    # of the trajectories; numpy rejects a geometric success probability of
    # 0, so the kernel draws that wait at the smallest normal one
    levels, times = _chain_records(hl.uniform_model(), 1.0, 0.01, 2000, 5, 0)
    assert np.any(levels[3] == 0.0)
    assert np.all(np.diff(times, axis=0) >= 1)


def test_validation_report_is_deterministic():
    config = hl.LabConfig(alpha=0.7, lam=1.5, trajectories=3000, seed=11)
    assert hl.validate_statistics(config).to_json() == hl.validate_statistics(config).to_json()


def test_run_hasplid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hl.run_hasplid(1.5, 1.0, hl.uniform_model(), 10, seed=0)
    with pytest.raises(ValueError):
        hl.run_hasplid(0.5, -1.0, hl.uniform_model(), 10, seed=0)
    with pytest.raises(ValueError):
        hl.run_hasplid(0.5, 1.0, hl.uniform_model(), 0, seed=0)


def test_mean_improvement_edges():
    ex = hl.exponential_model()
    assert hl.mean_improvement(ex, 0.0, 1.0) == 0.0
    assert hl.mean_improvement(hl.uniform_model(), -1.0, 2.0) == 0.0
    # far up the exponential range: integral_0^y (1 - e^-t) dt / (1 - e^-y)
    y = 20.0
    exact = (y - 1.0 + math.exp(-y)) / -math.expm1(-y)
    assert hl.mean_improvement(ex, y, 1.0) == pytest.approx(exact, rel=1e-12)
    with pytest.raises(ValueError):
        hl.mean_improvement(ex, 0.5, 0.0)


def test_validation_requires_enough_samples():
    with pytest.raises(ValueError, match="insufficient"):
        hl.validate_statistics(hl.LabConfig(trajectories=999))


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_validation_rejects_a_bad_lam(lam):
    with pytest.raises(ValueError, match="lam"):
        hl.validate_statistics(hl.LabConfig(lam=lam, trajectories=1000))


@pytest.mark.parametrize("level", [0.0, -0.1, 1.0, 1.5, math.nan])
def test_validation_rejects_a_target_level_outside_the_range(level):
    with pytest.raises(ValueError, match="target_level"):
        hl.validate_statistics(hl.LabConfig(target_level=level, trajectories=1000))


def test_validation_rejects_a_window_at_the_bottom_of_the_range():
    # no record ever falls below the window, so the pass could not end
    config = hl.LabConfig(window_center=0.01, trajectories=1000)
    with pytest.raises(ValueError, match="bottom of the range"):
        hl.validate_statistics(config)


def test_validation_rejects_an_empty_slope_window():
    # a trajectory starts above 9.98 with probability exp(-9.98) = 4.6e-5 on
    # the exponential model; none of the 1000 at seed 0 does, so no record
    # can fall in the window
    config = hl.LabConfig(model_name="exponential", window_center=10.0, trajectories=1000)
    with pytest.raises(ValueError, match=r"slope window \[9\.98, 10\.02\]"):
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
