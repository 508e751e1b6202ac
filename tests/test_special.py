"""Math-core tests: independent high-precision oracles first, frozen
values second, structural properties via hypothesis."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recordstart import special as sp

mpmath.mp.dps = 40

EULER_GAMMA = 0.5772156649015328606


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
# digamma
# ---------------------------------------------------------------------------


def test_digamma_euler_mascheroni():
    assert sp.digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)


def test_digamma_at_ten_matches_harmonic_oracle():
    assert sp.digamma(10.0) == pytest.approx(harmonic(9) - EULER_GAMMA, abs=1e-12)


def test_digamma_against_mpmath():
    for x in (0.003, 0.25, 0.5, 1.5, 3.7, 11.0, 123.456, 9876.5):
        assert sp.digamma(x) == pytest.approx(float(mpmath.digamma(x)), abs=1e-11)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0, 100.0])
def test_digamma_recurrence_pinned_points(x):
    assert sp.digamma(x + 1.0) - sp.digamma(x) == pytest.approx(1.0 / x, abs=1e-12)


@given(st.floats(min_value=0.01, max_value=500.0, allow_nan=False))
def test_digamma_recurrence_property(x):
    assert sp.digamma(x + 1.0) - sp.digamma(x) == pytest.approx(1.0 / x, rel=1e-9)


def test_digamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        sp.digamma(0.0)
    with pytest.raises(ValueError):
        sp.digamma(-1.5)


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------


def test_gamma_order_zero_is_one():
    assert sp.incomplete_gamma_g(0, 3.7) == 1.0


def test_gamma_at_zero_argument():
    assert sp.incomplete_gamma_g(2, 0.0) == 0.0


def test_gamma_example_log100():
    assert sp.incomplete_gamma_g(2, math.log(100.0)) == pytest.approx(0.9439483, abs=1e-7)


def test_gamma_against_quadrature_oracle():
    for n, x in [(1, 0.5), (2, math.log(100.0)), (5, 3.0), (12, 20.0)]:
        assert sp.incomplete_gamma_g(n, x) == pytest.approx(
            gamma_tail_by_quadrature(n, x), abs=1e-8
        )


def test_gamma_against_mpmath():
    for n, x in [(3, 2.3026), (30, 12.0), (7, 700.0), (400, 350.0)]:
        expected = float(mpmath.gammainc(n, 0, x, regularized=True))
        assert sp.incomplete_gamma_g(n, x) == pytest.approx(expected, abs=1e-12)


@given(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=80.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_gamma_monotone_in_argument(n, x, dx):
    a = sp.incomplete_gamma_g(n, x)
    b = sp.incomplete_gamma_g(n, x + dx)
    assert 0.0 <= a <= 1.0
    assert b >= a - 1e-12


@given(st.integers(min_value=0, max_value=40), st.floats(min_value=0.0, max_value=80.0))
def test_gamma_antimonotone_in_order(n, x):
    assert sp.incomplete_gamma_g(n + 1, x) <= sp.incomplete_gamma_g(n, x) + 1e-12


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        sp.incomplete_gamma_g(-1, 1.0)
    with pytest.raises(ValueError):
        sp.incomplete_gamma_g(2, -0.5)


# ---------------------------------------------------------------------------
# Stirling numbers and the record-count pmf
# ---------------------------------------------------------------------------


def test_stirling_matches_record_enumeration():
    for j in range(1, 7):
        freq = record_pmf_by_enumeration(j)
        total = math.factorial(j)
        for k in range(1, j + 1):
            assert sp.stirling1_abs(j, k) == round(freq[k] * total)


def test_stirling_known_values():
    assert sp.stirling1_abs(3, 2) == 3
    assert sp.stirling1_abs(5, 1) == 24
    assert sp.stirling1_abs(20, 20) == 1
    assert sp.stirling1_abs(4, 7) == 0


def test_stirling_size_cap():
    with pytest.raises(ValueError):
        sp.stirling1_abs(21, 3)


def test_pmf_first_iterate_always_record():
    for zeta in (0.3, 1.0, 7.7):
        assert sp.record_count_pmf(1, 1, zeta) == pytest.approx(1.0, abs=1e-14)


def test_pmf_matches_permutation_oracle_at_unit_zeta():
    freq = record_pmf_by_enumeration(3)
    for k in (1, 2, 3):
        assert sp.record_count_pmf(3, k, 1.0) == pytest.approx(freq[k], abs=1e-12)
    assert sp.record_count_pmf(3, 2, 1.0) == pytest.approx(0.5, abs=1e-12)


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


def test_zeta_degenerate_single_point_history():
    assert sp.solve_zeta([sp.RunStats(1, 1), sp.RunStats(1, 1)]) == 1.0


def test_zeta_matches_independent_bisection():
    oracle = solve_zeta_oracle_k2_j5()
    assert sp.solve_zeta([sp.RunStats(2, 5)]) == pytest.approx(oracle, abs=1e-6)


def test_zeta_homogeneous_history_same_root():
    one = sp.solve_zeta([sp.RunStats(2, 5)])
    two = sp.solve_zeta([sp.RunStats(2, 5), sp.RunStats(2, 5)])
    assert two == pytest.approx(one, rel=1e-8)


def test_zeta_residual_small_when_bracketed():
    history = [sp.RunStats(3, 9), sp.RunStats(2, 7), sp.RunStats(4, 6)]
    z = sp.solve_zeta(history)
    residual = sp._zeta_equation(z, history)
    assert abs(residual) <= 1e-8 * (1 + sum(s.records for s in history))


def test_zeta_record_saturated_history_clamps_high():
    assert sp.solve_zeta([sp.RunStats(5, 5)]) == sp.ZETA_MAX


def test_zeta_single_record_history_clamps_low():
    assert sp.solve_zeta([sp.RunStats(1, 9)]) == sp.ZETA_MIN


def test_zeta_empty_history_rejected():
    with pytest.raises(ValueError):
        sp.solve_zeta([])


run_histories = st.lists(
    st.integers(min_value=1, max_value=80).flatmap(
        lambda j: st.builds(sp.RunStats, st.integers(min_value=1, max_value=j), st.just(j))
    ),
    min_size=1,
    max_size=40,
)


@given(run_histories, st.floats(min_value=math.log(sp.ZETA_MIN), max_value=math.log(100.0)))
@settings(max_examples=200, deadline=None)
def test_survival_count_score_matches_digamma_form(history, log_zeta):
    # relative to the size of the score's two parts, which cancel at the
    # root; above zeta ~ 100 the digamma form itself loses more than 1e-12
    # to the cancellation of R*psi(1+zeta) against sum_r psi(j_r+zeta)
    zeta = math.exp(log_zeta)
    tally = sp.RunTally.of(history)
    survivors = sum(n * zeta / (i + zeta) for i, n in enumerate(tally.survivors, start=1))
    scale = tally.excess_records + survivors
    assert sp._zeta_score(zeta, tally) == pytest.approx(sp._zeta_equation(zeta, history), abs=1e-12 * scale)


def test_run_tally_survival_counts():
    tally = sp.RunTally.of([sp.RunStats(2, 4), sp.RunStats(1, 1), sp.RunStats(3, 3)])
    assert tally.runs == 3
    assert tally.excess_records == 3
    assert tally.survivors == [2, 2, 1]  # runs with more than 1, 2, 3 iterates
    assert (tally.record_sum, tally.record_hist) == (6, {2: 1, 1: 1, 3: 1})


@given(run_histories, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_zeta_does_not_depend_on_history_order(history, rnd):
    shuffled = list(history)
    rnd.shuffle(shuffled)
    assert sp.solve_zeta(shuffled) == sp.solve_zeta(history)


def test_run_stats_validation():
    with pytest.raises(ValueError):
        sp.RunStats(records=3, iterates=2)
    with pytest.raises(ValueError):
        sp.RunStats(records=0, iterates=2)


# ---------------------------------------------------------------------------
# failure probability
# ---------------------------------------------------------------------------


def test_p_fail_empty_product():
    assert sp.p_fail([], 1.0, 0.01) == 1.0


def test_p_fail_single_run_equals_gamma_value():
    assert sp.p_fail([2], 1.0, 0.01) == pytest.approx(0.9439483, abs=1e-7)


def test_p_fail_two_runs_squares():
    one = sp.p_fail([2], 1.0, 0.01)
    assert sp.p_fail([2, 2], 1.0, 0.01) == pytest.approx(one * one, rel=1e-12)
    assert sp.p_fail([2, 2], 1.0, 0.01) == pytest.approx(0.8910384, abs=1e-7)


@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=0, max_size=6),
    st.integers(min_value=1, max_value=30),
)
def test_p_fail_appending_a_run_strictly_decreases(counts, extra):
    base = sp.p_fail(counts, 1.0, 0.01)
    assert sp.p_fail(counts + [extra], 1.0, 0.01) < base


def test_p_fail_histogram_equals_p_fail_of_the_counts():
    counts = [3, 1, 3, 7, 3, 1]
    assert sp.p_fail_histogram({1: 2, 3: 3, 7: 1}, 0.4, 1e-10) == sp.p_fail(counts, 0.4, 1e-10)
    assert sp.p_fail(counts, 0.4, 1e-10) == pytest.approx(
        math.prod(sp.incomplete_gamma_g(k, -0.4 * math.log(1e-10)) for k in counts), rel=1e-14
    )


def test_p_fail_domain_errors():
    with pytest.raises(ValueError):
        sp.p_fail([2], 1.0, 1.5)
    with pytest.raises(ValueError):
        sp.p_fail([2], 1.0, 0.0)
    with pytest.raises(ValueError):
        sp.p_fail([0], 1.0, 0.1)


# ---------------------------------------------------------------------------
# record-overdue threshold
# ---------------------------------------------------------------------------


def test_threshold_first_record_unit_zeta():
    assert sp.n_record_threshold(0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_threshold_second_record_unit_zeta_matches_mpmath_root():
    # j* solving psi(j+1) = 2 - gamma, via mpmath's solver
    oracle = float(mpmath.findroot(lambda j: mpmath.digamma(j + 1) - (2 - mpmath.euler), 3.5))
    assert sp.n_record_threshold(1, 1.0) == pytest.approx(oracle, abs=1e-8)
    assert sp.n_record_threshold(1, 1.0) == pytest.approx(3.64, abs=0.01)


def test_threshold_consistent_with_harmonic_sums():
    # at unit zeta the expected-records curve is the harmonic number
    for j in (10, 100, 10_000):
        assert sp.expected_records(j, 1.0) == pytest.approx(harmonic(j), abs=1e-9)


@pytest.mark.parametrize("zeta", [0.5, 1.0, 3.0, 25.0])
def test_threshold_monotone_in_record_count(zeta):
    values = [sp.n_record_threshold(k, zeta) for k in range(8)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_threshold_inverts_expected_records():
    for k, zeta in [(2, 0.7), (5, 1.0), (3, 12.0)]:
        j_star = sp.n_record_threshold(k, zeta)
        assert sp.expected_records(j_star, zeta) == pytest.approx(k + 1, abs=1e-8)


# ---------------------------------------------------------------------------
# surrogate CDF and expected slope
# ---------------------------------------------------------------------------


def test_ptilde_log_two():
    assert sp.ptilde(math.log(2.0), sp.PtildeModel()) == pytest.approx(0.5, abs=1e-14)


def test_ptilde_scaling_identity():
    assert sp.ptilde(32.0 * math.log(2.0), sp.PtildeModel(scale=32.0)) == pytest.approx(
        0.5, abs=1e-14
    )


def test_ptilde_clamps_negatives():
    assert sp.ptilde(-5.0, sp.PtildeModel()) == 1e-12
    assert sp.ptilde(-1e9, sp.PtildeModel()) == 1e-12


@given(st.floats(min_value=-100.0, max_value=100.0), st.floats(min_value=0.0, max_value=10.0))
def test_ptilde_monotone(y, dy):
    m = sp.PtildeModel()
    assert sp.ptilde(y + dy, m) >= sp.ptilde(y, m)
    assert 1e-12 <= sp.ptilde(y, m) <= 1.0 - 1e-12


def test_expected_slope_saturates_at_inverse_zeta():
    m = sp.PtildeModel()
    assert sp.expected_slope(1e9, 0.5, 2.0, m) == pytest.approx(
        (1.0 - 1e-12) ** 0.5 / 2.0, rel=1e-12
    )


def test_expected_slope_example():
    assert sp.expected_slope(math.log(2.0), 0.5, 2.0, sp.PtildeModel()) == pytest.approx(
        math.sqrt(0.5) / 2.0, abs=1e-12
    )


def test_expected_slope_clamp_propagates():
    assert sp.expected_slope(-5.0, 0.5, 2.0, sp.PtildeModel()) == pytest.approx(5e-7, rel=1e-9)


def test_expected_slope_monotone_in_level():
    m = sp.PtildeModel()
    values = [sp.expected_slope(y, 0.5, 2.0, m) for y in np.linspace(-2, 10, 50)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_expected_slope_rejects_zero_alpha():
    with pytest.raises(ValueError):
        sp.expected_slope(1.0, 0.0, 1.0, sp.PtildeModel())


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


@pytest.mark.parametrize("model_name", ["uniform", "exponential"])
@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("y", [0.01, 0.3, 0.5, 0.9])
def test_mean_improvement_matches_inverse_cdf_quadrature(model_name, lam, y):
    from recordstart import hasplid

    model = {"uniform": hasplid.uniform_model, "exponential": hasplid.exponential_model}[model_name]()
    p = model.cdf(y)
    # the improved value is inverse_cdf(p(y) * U**(1/lam)) with U uniform
    mean_next = mpmath.quad(lambda u: model.inverse_cdf(p * float(u) ** (1.0 / lam)), [0, 1])
    assert hasplid.mean_improvement(model, y, lam) == pytest.approx(y - float(mean_next), rel=1e-9)
