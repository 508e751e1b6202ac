"""Math-core tests: independent high-precision oracles first, frozen
values second, structural properties via hypothesis."""

import collections
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recordstart import hasplid
from recordstart import special as sp
from reference import (
    check,
    expected_records_curve,
    incomplete_gamma_g,
    n_record_threshold,
    recorded_histories,
    run_histories,
    tally_of,
    zeta_equation,
)

mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def harmonic(n: int) -> float:
    return sum(1.0 / k for k in range(1, n + 1))


def record_pmf_by_enumeration(j: int) -> list:
    """P(k records in j iid draws) by brute-force permutation counting:
    records of an exchangeable sequence are the left-to-right minima."""
    counts = [0] * (j + 1)
    for perm in itertools.permutations(range(j)):
        k, best = 0, None
        for v in perm:
            if best is None or v < best:
                best = v
                k += 1
        counts[k] += 1
    total = math.factorial(j)
    return [c / total for c in counts]


def gamma_tail_by_quadrature(n: int, x: float) -> float:
    """G(n, x) as the normalized integral of t**(n-1) e**-t on [0, x]."""
    t = np.linspace(0.0, x, 200_001)
    integrand = t ** (n - 1) * np.exp(-t)
    return float(np.trapezoid(integrand, t) / math.factorial(n - 1))


def solve_zeta_oracle_k2_j5() -> float:
    """Root of 1 = z*(1/(1+z)+1/(2+z)+1/(3+z)+1/(4+z)) by dense bisection."""

    def f(z):
        return z * sum(1.0 / (z + i) for i in range(1, 5)) - 1.0

    lo, hi = 1e-8, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------


def test_gamma_order_zero_is_one():
    assert incomplete_gamma_g(0, 3.7) == 1.0


def test_gamma_at_zero_argument():
    assert incomplete_gamma_g(2, 0.0) == 0.0


def test_gamma_example_log100():
    assert incomplete_gamma_g(2, math.log(100.0)) == pytest.approx(0.9439483, abs=1e-7)


def test_gamma_against_quadrature_oracle():
    for n, x in [(1, 0.5), (2, math.log(100.0)), (5, 3.0), (12, 20.0)]:
        assert incomplete_gamma_g(n, x) == pytest.approx(
            gamma_tail_by_quadrature(n, x), abs=1e-8
        )


def test_gamma_against_mpmath():
    for n, x in [(3, 2.3026), (30, 12.0), (7, 700.0), (400, 350.0)]:
        expected = float(mpmath.gammainc(n, 0, x, regularized=True))
        assert incomplete_gamma_g(n, x) == pytest.approx(expected, abs=1e-12)


@given(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=80.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_gamma_monotone_in_argument(n, x, dx):
    a = incomplete_gamma_g(n, x)
    b = incomplete_gamma_g(n, x + dx)
    assert 0.0 <= a <= 1.0
    assert b >= a - 1e-12


@given(st.integers(min_value=0, max_value=40), st.floats(min_value=0.0, max_value=80.0))
def test_gamma_antimonotone_in_order(n, x):
    assert incomplete_gamma_g(n + 1, x) <= incomplete_gamma_g(n, x) + 1e-12


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        incomplete_gamma_g(-1, 1.0)
    with pytest.raises(ValueError):
        incomplete_gamma_g(2, -0.5)


# ---------------------------------------------------------------------------
# the record law: expected record count and record-count pmf
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=math.log(sp.ZETA_MIN), max_value=math.log(1e6)),
)
@settings(max_examples=200, deadline=None)
def test_expected_records_is_the_digamma_curve(j, log_zeta):
    zeta = math.exp(log_zeta)
    assert sp.expected_records(j, zeta) == pytest.approx(expected_records_curve(j, zeta), rel=1e-13)


@pytest.mark.parametrize("zeta", [0.3, 1.0, 2.0, 7.5, 25.0])
@pytest.mark.parametrize("j", [1, 2, 3, 10, 20, 40])
def test_pmf_is_the_stirling_form(j, zeta):
    # |s(j, k)| * zeta**(k-1) * Gamma(1+zeta) / Gamma(j+zeta)
    ratio = mpmath.gamma(1 + zeta) / mpmath.gamma(j + zeta)
    for k in range(1, j + 1):
        exact = abs(mpmath.stirling1(j, k)) * mpmath.mpf(zeta) ** (k - 1) * ratio
        assert sp.record_count_pmf(j, k, zeta) == pytest.approx(float(exact), rel=1e-12)


def test_pmf_first_iterate_always_record():
    for zeta in (0.3, 1.0, 7.7):
        assert sp.record_count_pmf(1, 1, zeta) == pytest.approx(1.0, abs=1e-14)


def test_pmf_matches_permutation_oracle_at_unit_zeta():
    for j in range(1, 7):
        freq = record_pmf_by_enumeration(j)
        for k in range(1, j + 1):
            assert sp.record_count_pmf(j, k, 1.0) == pytest.approx(freq[k], abs=1e-12)
    assert sp.record_count_pmf(3, 2, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_stirling_matches_record_enumeration():
    # At zeta = 1, j! * pmf(j, k) is |s(j, k)|: the number of permutations of
    # j values with k records, which mpmath's Stirling numbers must also give.
    for j in range(1, 7):
        freq = record_pmf_by_enumeration(j)
        total = math.factorial(j)
        for k in range(1, j + 1):
            count = round(freq[k] * total)
            assert round(sp.record_count_pmf(j, k, 1.0) * total) == count
            assert abs(int(mpmath.stirling1(j, k))) == count


@pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", range(1, 11))
def test_pmf_rows_sum_to_one(j, zeta):
    assert sum(sp.record_count_pmf(j, k, zeta) for k in range(1, j + 1)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_pmf_out_of_range_is_zero():
    assert sp.record_count_pmf(4, 5, 1.0) == 0.0
    assert sp.record_count_pmf(4, 0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# zeta estimation
# ---------------------------------------------------------------------------


def solve_zeta(history):
    return sp.solve_zeta_tally(tally_of(history))


def test_zeta_matches_independent_bisection():
    oracle = solve_zeta_oracle_k2_j5()
    assert solve_zeta([(2, 5)]) == pytest.approx(oracle, abs=1e-6)


def test_zeta_homogeneous_history_same_root():
    one = solve_zeta([(2, 5)])
    two = solve_zeta([(2, 5), (2, 5)])
    assert two == pytest.approx(one, rel=1e-8)


def test_zeta_residual_small_when_bracketed():
    history = [(3, 9), (2, 7), (4, 6)]
    z = solve_zeta(history)
    residual = zeta_equation(z, history)
    assert abs(residual) <= 1e-8 * (1 + sum(k for k, _ in history))


def test_zeta_record_saturated_history_clamps_high():
    assert solve_zeta([(5, 5)]) == sp.ZETA_GUARD


@pytest.mark.parametrize(
    "history",
    [[], [(1, 1), (1, 1)], [(1, 9)]],
    ids=["empty", "single_point_runs", "single_record_run"],
)
def test_zeta_rejects_history_without_a_record_past_the_start(history):
    # the score is 0 everywhere or negative on (0, inf): no MLE to clamp
    with pytest.raises(ValueError):
        solve_zeta(history)


def digamma_root(history) -> float:
    """Root of :func:`reference.zeta_equation` on ``[ZETA_MIN, ZETA_GUARD]``
    by mpmath's bracketing Anderson solver; the score is positive at
    ``ZETA_MIN`` for a history with a record past some start point."""
    with mpmath.workdps(30):
        bracket = (sp.ZETA_MIN, sp.ZETA_GUARD)
        return float(mpmath.findroot(lambda z: zeta_equation(z, history), bracket, solver="anderson", verify=False))


@given(recorded_histories)
@settings(max_examples=100, deadline=None)
def test_zeta_is_the_guarded_root_of_the_digamma_form(history):
    guarded = sp.ZETA_GUARD if zeta_equation(sp.ZETA_GUARD, history) > 0 else digamma_root(history)
    assert solve_zeta(history) == pytest.approx(guarded, rel=1e-9)


@given(recorded_histories)
@settings(max_examples=200, deadline=None)
def test_zeta_below_the_guard_matches_expected_to_held_records(history):
    # the score is sum_r k_r - sum_r expected_records(j_r, zeta), so at an
    # unclamped root the expected record counts add up to the records held
    # and a later restart's overdue check can tie to the last bits
    z = solve_zeta(history)
    if z < sp.ZETA_GUARD:
        expected = math.fsum(sp.expected_records(j, z) for _, j in history)
        assert expected == pytest.approx(sum(k for k, _ in history), rel=1e-9)


def test_zeta_of_one_restart_puts_its_records_on_the_overdue_tie():
    # a restart with 6 records in 7 iterates: a second one holding 6
    # records at iterate 7 is overdue or not by rounding alone
    z = solve_zeta([(6, 7)])
    assert z == pytest.approx(16.777028167442428, rel=1e-9)
    assert sp.expected_records(7, z) == pytest.approx(6.0, rel=1e-9)


@given(run_histories, st.floats(min_value=math.log(sp.ZETA_MIN), max_value=math.log(100.0)))
@example([(1, 80)] * 40, math.log(sp.ZETA_MIN))
@settings(max_examples=200, deadline=None)
def test_zeta_score_matches_digamma_form(history, log_zeta):
    # relative to the size of the score's two parts past the start points,
    # the records held and expected, which cancel at the root.  At a small
    # zeta both are small: a score summed from E(j, zeta) itself, start
    # points included, would lose them in the rounding of E
    zeta = math.exp(log_zeta)
    tally = tally_of(history)
    expected = math.fsum(sp.expected_records(j, zeta) - 1 for _, j in history)
    scale = tally.record_sum - tally.runs + expected
    assert sp.zeta_score(zeta, tally) == pytest.approx(zeta_equation(zeta, history), abs=1e-12 * scale)


@given(
    run_histories,
    st.floats(min_value=math.log(sp.ZETA_MIN), max_value=math.log(1e6)),
    st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_zeta_score_falls_as_zeta_grows(history, log_zeta, log_step):
    # the drivers read the sign of the score at ZETA_GUARD as the side of
    # the guard the root lies on
    tally = tally_of(history)
    lo, hi = math.exp(log_zeta), math.exp(log_zeta + log_step)
    if tally.iterate_sum > tally.runs:  # some run has a survivor past iterate 1
        assert sp.zeta_score(hi, tally) < sp.zeta_score(lo, tally)
    else:
        assert sp.zeta_score(hi, tally) == sp.zeta_score(lo, tally) == 0


def test_run_tally_sums_and_histograms():
    history = [(2, 4), (1, 1), (3, 3)]
    tally = tally_of(history)
    assert tally.runs == 3
    assert (tally.iterate_sum, tally.iterate_hist) == (8, {4: 1, 1: 1, 3: 1})
    assert (tally.record_sum, tally.record_hist) == (6, {2: 1, 1: 1, 3: 1})


# histories whose runs miss at most 3 records: most sit near the two-sum
# test, which holds while under 1 in 26 of the steps past the start points
# miss a record
saturated_histories = st.lists(
    st.integers(min_value=1, max_value=80).flatmap(
        lambda j: st.tuples(st.integers(min_value=max(1, j - 3), max_value=j), st.just(j))
    ),
    min_size=1,
    max_size=40,
)


@given(st.one_of(run_histories, saturated_histories))
@settings(max_examples=300, deadline=None)
def test_two_sums_above_the_guard_put_the_score_above_it(history):
    # E(j, G) - 1 is at most (j - 1)*G/(1+G), and the j - 1 add up to the
    # steps past the start points, so the score at G is at least
    # (26*past - 25*steps)/26, an integer over 26
    tally = tally_of(history)
    past, steps = tally.record_sum - tally.runs, tally.iterate_sum - tally.runs
    if past * (1 + sp.ZETA_GUARD) > sp.ZETA_GUARD * steps:
        assert sp.zeta_score(sp.ZETA_GUARD, tally) >= 1 / (1 + sp.ZETA_GUARD) - 1e-12
        assert sp.solve_zeta_tally(tally) == sp.ZETA_GUARD


def test_zeta_on_the_two_sum_boundary_takes_the_score_path(monkeypatch):
    scored = []
    score = sp.zeta_score
    monkeypatch.setattr(sp, "zeta_score", lambda zeta, tally: scored.append((zeta, tally)) or score(zeta, tally))
    # 25 records past the start in 26 steps: 26 * 25 == 25 * 26, so the
    # two sums leave it to the score, which is positive at the guard
    boundary = tally_of([(26, 27)])
    assert sp.solve_zeta_tally(boundary) == sp.ZETA_GUARD
    assert scored == [(sp.ZETA_GUARD, boundary)]
    assert score(sp.ZETA_GUARD, boundary) == pytest.approx(25 - sum(25 / (i + 25) for i in range(1, 27)))
    # one more record decides it from the two sums alone
    scored.clear()
    assert sp.solve_zeta_tally(tally_of([(27, 27)])) == sp.ZETA_GUARD
    assert scored == []


@given(recorded_histories, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_zeta_does_not_depend_on_history_order(history, rnd):
    shuffled = list(history)
    rnd.shuffle(shuffled)
    assert solve_zeta(shuffled) == solve_zeta(history)


def test_run_stats_validation():
    # a run's counts are checked where they are tallied
    for records, iterates in ((3, 2), (0, 2)):
        with pytest.raises(ValueError, match="need iterates >= records >= 1"):
            sp.RunTally().add(records, iterates)


# ---------------------------------------------------------------------------
# failure probability
# ---------------------------------------------------------------------------


LOG100 = math.log(100.0)  # the tail depth -lam*log(eps) at lam = 1, eps = 0.01


def p_fail(record_counts, x):
    return sp.p_fail_histogram(collections.Counter(record_counts), x)


def test_p_fail_empty_product():
    assert sp.p_fail_histogram({}, LOG100) == 1.0


def test_p_fail_single_run_equals_gamma_value():
    assert p_fail([2], LOG100) == pytest.approx(0.9439483, abs=1e-7)


def test_p_fail_two_runs_squares():
    one = p_fail([2], LOG100)
    assert p_fail([2, 2], LOG100) == pytest.approx(one * one, rel=1e-12)
    assert p_fail([2, 2], LOG100) == pytest.approx(0.8910384, abs=1e-7)


@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=0, max_size=6),
    st.integers(min_value=1, max_value=30),
)
def test_p_fail_appending_a_run_strictly_decreases(counts, extra):
    base = p_fail(counts, LOG100)
    assert p_fail(counts + [extra], LOG100) < base


def test_p_fail_histogram_equals_p_fail_of_the_counts():
    counts = [3, 1, 3, 7, 3, 1]
    x = -0.4 * math.log(1e-10)
    assert sp.p_fail_histogram({1: 2, 3: 3, 7: 1}, x) == pytest.approx(
        math.prod(incomplete_gamma_g(k, x) for k in counts), rel=1e-14
    )


@pytest.mark.parametrize(
    "hist",
    [
        {1: 3, 4: 2, 9: 1},  # below the Poisson mode 18
        {18: 4},  # at it
        {19: 1, 25: 2, 40: 3},  # above it
        {2: 1, 18: 2, 30: 5, 61: 1},  # across it
    ],
)
def test_p_fail_histogram_is_the_product_of_the_gamma_values_exactly(hist):
    # the running sum reaches each order with the same bits whichever
    # orders come before it
    x = -0.8 * math.log(1e-10)
    assert math.floor(x) == 18
    assert sp.p_fail_histogram(hist, x) == math.prod(
        sp.p_fail_histogram({k: 1}, x) ** c for k, c in sorted(hist.items())
    )


@pytest.mark.parametrize("x", [0.5, 2.3026, 18.42, 60.0, 250.0, 700.0, 750.0, 1000.0, 3000.0])
def test_p_fail_histogram_against_mpmath(x):
    # orders from 1 up to 3x + 5, deep in the lower tail where G -> 0;
    # above x = 708 exp(-x) is no normal float and the terms start in
    # closed form, whose exponent's rounding grows with x (~2e-12 at 3000)
    mode, top = max(2, round(x)), int(3 * x) + 5
    hists = ({1: 2, top: 1}, {mode: 3}, {1: 1, mode: 2, mode + 1: 1, top: 2}, {k: 1 for k in range(1, 2 * mode)})
    for hist in hists:
        factors = {k: mpmath.gammainc(k, 0, x, regularized=True) for k in hist}
        exact = float(mpmath.fprod(factors[k] ** c for k, c in hist.items()))
        err = abs(sp.p_fail_histogram(hist, x) - exact)
        assert err <= 1e-15 * max(1.0, x)
        if min(factors.values()) >= 1e-4:
            assert err <= 1e-10 * exact


def test_p_fail_rejects_a_tail_depth_that_is_not_positive_and_finite():
    for x in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="tail depth"):
            sp.p_fail_histogram({2: 1}, x)


def test_p_fail_domain_errors():
    with pytest.raises(ValueError):
        sp.p_fail_histogram({0: 1}, LOG100)


# ---------------------------------------------------------------------------
# record-overdue threshold
# ---------------------------------------------------------------------------


def test_threshold_first_record_unit_zeta():
    assert n_record_threshold(0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_threshold_second_record_unit_zeta_matches_mpmath_root():
    # j* solving psi(j+1) = 2 - gamma, via mpmath's solver
    oracle = float(mpmath.findroot(lambda j: mpmath.digamma(j + 1) - (2 - mpmath.euler), 3.5))
    assert n_record_threshold(1, 1.0) == pytest.approx(oracle, abs=1e-8)
    assert n_record_threshold(1, 1.0) == pytest.approx(3.64, abs=0.01)


def test_threshold_consistent_with_harmonic_sums():
    # at unit zeta the expected-records curve is the harmonic number
    for j in (10, 100, 10_000):
        assert sp.expected_records(j, 1.0) == pytest.approx(harmonic(j), abs=1e-9)


@pytest.mark.parametrize("zeta", [0.5, 1.0, 3.0, 25.0])
def test_threshold_monotone_in_record_count(zeta):
    values = [n_record_threshold(k, zeta) for k in range(8)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_threshold_inverts_expected_records():
    # the continuous root falls between the two iterates whose record
    # sums bracket k + 1
    for k, zeta in [(2, 0.7), (5, 1.0), (3, 12.0)]:
        j_star = n_record_threshold(k, zeta)
        assert expected_records_curve(j_star, zeta) == pytest.approx(k + 1, abs=1e-8)
        j = math.floor(j_star)
        assert sp.expected_records(j, zeta) < k + 1 <= sp.expected_records(j + 1, zeta)


# ---------------------------------------------------------------------------
# surrogate CDF and expected slope
# ---------------------------------------------------------------------------


def test_ptilde_log_two():
    assert sp.ptilde(math.log(2.0), 1.0) == pytest.approx(0.5, abs=1e-14)


def test_ptilde_scaling_identity():
    assert sp.ptilde(32.0 * math.log(2.0), 32.0) == pytest.approx(0.5, abs=1e-14)


def test_ptilde_clamps_negatives():
    assert sp.ptilde(-5.0, 1.0) == 1e-12
    assert sp.ptilde(-1e9, 1.0) == 1e-12
    # a level that is not positive takes the floor, a NaN level included
    for y in (0.0, -0.0, -1e308, math.nan):
        assert sp.ptilde(y, 1.0) == 1e-12
        assert sp.ptilde(y, 1e-300) == 1e-12


@given(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=True),
    st.floats(min_value=1e-300, max_value=1e300),
)
def test_ptilde_at_positive_levels_is_the_clamped_closed_form(y, scale):
    # the form before the early floor; both are positive floats, so ==
    # compares their bits
    raw = 1.0 - math.exp(-y / scale) if y / scale > -700 else -math.inf
    assert sp.ptilde(y, scale) == min(max(raw, 1e-12), 1.0 - 1e-12)


@given(st.floats(min_value=-100.0, max_value=100.0), st.floats(min_value=0.0, max_value=10.0))
def test_ptilde_monotone(y, dy):
    assert sp.ptilde(y + dy, 1.0) >= sp.ptilde(y, 1.0)
    assert 1e-12 <= sp.ptilde(y, 1.0) <= 1.0 - 1e-12


def test_expected_slope_saturates_at_inverse_zeta():
    assert sp.expected_slope(1e9, 0.5, 2.0, 1.0) == pytest.approx(
        (1.0 - 1e-12) ** 0.5 / 2.0, rel=1e-12
    )


def test_expected_slope_example():
    assert sp.expected_slope(math.log(2.0), 0.5, 2.0, 1.0) == pytest.approx(
        math.sqrt(0.5) / 2.0, abs=1e-12
    )


def test_expected_slope_clamp_propagates():
    assert sp.expected_slope(-5.0, 0.5, 2.0, 1.0) == pytest.approx(5e-7, rel=1e-9)


def test_expected_slope_monotone_in_level():
    values = [sp.expected_slope(y, 0.5, 2.0, 1.0) for y in np.linspace(-2, 10, 50)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# exact conditional slope law: reciprocal wait and mean improvement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 0.7071, 0.9, 0.999])
def test_reciprocal_wait_matches_direct_summation(q):
    # E[1/T] for T ~ Geometric(q) on {1, 2, ...}, summed term by term
    direct = math.fsum(q * (1.0 - q) ** (t - 1) / t for t in range(1, 40_001))
    assert sp.mean_reciprocal_wait(q) == pytest.approx(direct, rel=1e-12)


def test_reciprocal_wait_limit_at_one():
    assert sp.mean_reciprocal_wait(1.0) == 1.0
    for q in (1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9):
        eps = 1.0 - q  # exact in floating point
        # -q*ln(q)/(1-q) = 1 - eps/2 - eps**2/6 - eps**3/12 - ... at q = 1 - eps
        assert sp.mean_reciprocal_wait(q) == pytest.approx(
            1.0 - eps / 2 - eps**2 / 6, abs=eps**3 / 10 + 1e-15
        )


@pytest.mark.parametrize("q", [0.0, -0.5, 1.0 + 1e-12, 2.0, math.nan])
def test_reciprocal_wait_rejects_q_outside_unit_interval(q):
    with pytest.raises(ValueError):
        sp.mean_reciprocal_wait(q)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0])
def test_exact_slope_law_matches_improvement_quadrature(lam, alpha):
    # the lab's exact slope law is the mean improvement from the window
    # center times E[1/wait]; the improved level is y * U**(1/lam)
    report = hasplid.validate_statistics(hasplid.LabConfig(alpha=alpha, lam=lam, trajectories=2000, seed=0))
    y = hasplid.WINDOW_CENTER
    mean_next = mpmath.quad(lambda u: y * u ** (1.0 / lam), [0, 1])
    exact = (y - float(mean_next)) * sp.mean_reciprocal_wait(y**alpha)
    assert check(report, "conditional_slope_mean_exact").theoretical == pytest.approx(exact, rel=1e-9)


def test_exact_slope_law_at_unit_exponents_is_log_two_over_four():
    # 0.5/2 * (-0.5*ln 0.5)/0.5, with no rounding in the mean improvement
    report = hasplid.validate_statistics(hasplid.LabConfig(alpha=1.0, lam=1.0, trajectories=2000, seed=0))
    assert check(report, "conditional_slope_mean_exact").theoretical == math.log(2) / 4
