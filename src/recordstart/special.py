"""Closed-form record statistics and the special functions behind them.

Everything in this module is pure and stateless, apart from a table of
log factorials that :func:`p_fail_histogram` grows as it needs and
:class:`RunTally`, the running sufficient statistics of completed runs from
which :func:`zeta_score`, :func:`solve_zeta_tally` and
:func:`p_fail_histogram` evaluate the drivers' cross-run statistics without
digamma.  The drivers also use the surrogate slope law (:func:`ptilde`,
:func:`expected_slope`); the closed forms below are what the lab in
:mod:`recordstart.hasplid` checks.  The quantities all live in
the record-value model of hesitant adaptive search with a power-law
improvement distribution: a run of an iterative minimizer produces ``j``
raw iterates of which ``k`` are records (strict improvements of the running
best, the initial point counting as record 1).  Under that model

* the number of records in ``j`` iterates has pmf
  ``|s(j, k)| * zeta**(k-1) * Gamma(1+zeta) / Gamma(j+zeta)``
  where ``s`` are Stirling numbers of the first kind and ``zeta`` is the
  ratio of the improvement-rate parameter to the bettering exponent,
* the expected number of records in ``j`` iterates is
  ``zeta * (psi(j+zeta) - psi(zeta))``,
* the probability that a run with ``k`` records never came within the
  target tail of mass ``eps`` is ``G(k, -lam*log(eps))`` with ``G`` the
  regularized lower incomplete gamma function at integer order, a plain
  sum of Poisson terms (:func:`p_fail_histogram`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "RunStats",
    "RunTally",
    "ZETA_MIN",
    "ZETA_MAX",
    "PTILDE_FLOOR",
    "digamma",
    "stirling1_abs",
    "record_count_pmf",
    "zeta_score",
    "solve_zeta_tally",
    "p_fail_histogram",
    "expected_records",
    "ptilde",
    "expected_slope",
    "mean_reciprocal_wait",
]

ZETA_MIN = 1e-6
ZETA_MAX = 1e6
# ptilde is clamped to [PTILDE_FLOOR, 1 - PTILDE_FLOOR]: its raw form is
# negative below y = 0, where several benchmark objectives take values
PTILDE_FLOOR = 1e-12
_STIRLING_MAX_N = 20
# _LOG_FACTORIAL[s] = lgamma(s + 1), grown by p_fail_histogram as needed;
# it saves an lgamma per term: 8 % of p_fail_histogram's time, and about
# 1 % of a run, at the deep configuration's record counts
_LOG_FACTORIAL: list[float] = []


@dataclass(frozen=True)
class RunStats:
    """Record count ``k`` and raw iterate count ``j`` of one completed run."""

    records: int
    iterates: int

    def __post_init__(self):
        if not (self.iterates >= self.records >= 1):
            raise ValueError(
                f"need iterates >= records >= 1, got k={self.records} j={self.iterates}"
            )


@dataclass
class RunTally:
    """Sufficient statistics of completed runs for :func:`solve_zeta_tally`
    and :func:`p_fail_histogram`.

    ``survivors[i-1]`` counts the runs with more than ``i`` iterates and
    ``record_hist`` maps a record count to the number of runs with it.
    Adding a run with ``j`` iterates costs O(j), however many runs came
    before it.
    """

    runs: int = 0
    record_sum: int = 0
    survivors: list = field(default_factory=list)
    record_hist: dict = field(default_factory=dict)

    def add(self, st: RunStats) -> None:
        self.runs += 1
        self.record_sum += st.records
        self.record_hist[st.records] = self.record_hist.get(st.records, 0) + 1
        survivors = self.survivors
        survivors.extend([0] * (st.iterates - 1 - len(survivors)))
        for i in range(st.iterates - 1):
            survivors[i] += 1


def digamma(x: float) -> float:
    """Digamma function for x > 0, accurate to well below 1e-10.

    Recurrence-shifts the argument above 10 and applies the asymptotic
    expansion ln(x) - 1/(2x) - sum B_{2n}/(2n x^{2n}).
    """
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    value = 0.0
    while x < 10.0:
        value -= 1.0 / x
        x += 1.0
    r = 1.0 / x
    value += math.log(x) - 0.5 * r
    r2 = r * r
    # Bernoulli coefficients B_2/2 .. B_12/12
    value -= r2 * (
        1.0 / 12.0
        - r2 * (1.0 / 120.0 - r2 * (1.0 / 252.0 - r2 * (1.0 / 240.0 - r2 * (1.0 / 132.0 - r2 * 691.0 / 32760.0))))
    )
    return value


def stirling1_abs(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind, exact integer arithmetic.

    Counts permutations of n elements with k cycles; n is capped at 20.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if n > _STIRLING_MAX_N:
        raise ValueError(f"n={n} exceeds supported size {_STIRLING_MAX_N}")
    if k > n:
        return 0
    row = [1]  # row for n=0
    for m in range(n):
        nxt = [0] * (m + 2)
        for i, v in enumerate(row):
            nxt[i] += m * v
            nxt[i + 1] += v
        row = nxt
    return row[k]


def record_count_pmf(j: int, k: int, zeta: float) -> float:
    """Probability of exactly k records in the first j iterates.

    ``|s(j, k)| * zeta**(k-1) * Gamma(1+zeta) / Gamma(j+zeta)``; rows sum
    to one over k = 1..j.  Returns 0 for k > j.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if k > j or k < 1:
        return 0.0
    log_p = (
        math.log(stirling1_abs(j, k))
        + (k - 1) * math.log(zeta)
        + math.lgamma(1.0 + zeta)
        - math.lgamma(j + zeta)
    )
    return math.exp(log_p)


def zeta_score(zeta: float, tally: RunTally) -> float:
    """Likelihood score whose root is the record-rate ratio estimate,
    ``sum_r (k_r - 1) + zeta * (R*psi(1+zeta) - sum_r psi(j_r+zeta))``,
    without digamma: since ``psi(j+zeta) - psi(1+zeta) = sum_{i=1}^{j-1}
    1/(i+zeta)``, it is ``sum_r (k_r - 1) - sum_i N_i * zeta/(i+zeta)`` with
    ``N_i`` the number of runs with more than ``i`` iterates.  It falls as
    ``zeta`` grows, strictly unless every run has a single iterate.
    """
    acc = 0.0
    for i, n in enumerate(tally.survivors, start=1):
        acc += n * zeta / (i + zeta)
    return tally.record_sum - tally.runs - acc


def solve_zeta_tally(tally: RunTally) -> float:
    """Maximum-likelihood estimate of zeta from the runs' sufficient
    statistics.

    Bracketed bisection on ``[ZETA_MIN, ZETA_MAX]`` (geometric midpoints,
    relative tolerance 1e-10).  Degenerate histories:

    * every run has k = j = 1: the score vanishes identically, return 1.0;
    * score positive on the whole bracket (record-saturated runs, k ~ j):
      the root lies beyond ZETA_MAX, return ZETA_MAX;
    * score negative everywhere (all single-record runs): return ZETA_MIN.
    """
    if not tally.runs:
        raise ValueError("history must be non-empty")
    if not tally.survivors:
        return 1.0
    f_lo = zeta_score(ZETA_MIN, tally)
    f_hi = zeta_score(ZETA_MAX, tally)
    if f_lo > 0 and f_hi > 0:
        return ZETA_MAX
    if f_lo < 0 and f_hi < 0:
        return ZETA_MIN
    lo, hi = ZETA_MIN, ZETA_MAX
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        f_mid = zeta_score(mid, tally)
        if f_mid * f_lo <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= 1e-10 * lo:
            break
    return math.sqrt(lo * hi)


def p_fail_histogram(record_hist: dict[int, int], x: float) -> float:
    """Probability that every completed run missed the target tail at
    depth ``x``, ``prod_r G(k_r, x)``, over the record-count histogram
    ``{k: c_k}``: ``prod_k G(k, x)**c_k``.  An empty histogram gives 1.0,
    and ``{k: 1}`` gives ``G(k, x)`` itself.

    ``G(k, x) = 1 - sum_{s<k} exp(-x) * x**s / s!``, the regularized lower
    incomplete gamma at integer order, is one plain left-to-right sum of
    the Poisson terms that runs on from one k to the next.  A term is at
    most 1, so none overflows, and ``1 - acc`` keeps an absolute accuracy
    of about 1e-16 at x = 1, growing with x: 2.4e-15 at the canonical
    table's deepest x = 43.5, 1e-13 at x = 250.  A factor below that is
    rounding; the drivers' smallest factors are 1.04e-4 (canonical table)
    and 0.029 (deep).
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"tail depth x must be positive and finite, got {x}")
    ks = sorted(record_hist)
    if ks and ks[0] < 1:
        raise ValueError("record counts must be >= 1")
    log_x = math.log(x)
    log_fact = _LOG_FACTORIAL
    log_fact += [math.lgamma(s + 1) for s in range(len(log_fact), max(ks, default=0))]
    out, acc, done = 1.0, 0.0, 0
    for k in ks:
        for s in range(done, k):
            acc += math.exp(s * log_x - x - log_fact[s])
        done = k
        out *= max(0.0, 1.0 - acc) ** record_hist[k]
    return out


def expected_records(j: float, zeta: float) -> float:
    """Expected number of records in the first j iterates:
    ``zeta * (psi(j+zeta) - psi(zeta))``.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    return zeta * (digamma(j + zeta) - digamma(zeta))


def ptilde(y: float, scale: float) -> float:
    """Surrogate range CDF ``1 - exp(-y/scale)`` clamped to
    ``[PTILDE_FLOOR, 1 - PTILDE_FLOOR]``."""
    raw = 1.0 - math.exp(-y / scale) if y / scale > -700 else -math.inf
    return min(max(raw, PTILDE_FLOOR), 1.0 - PTILDE_FLOOR)


def expected_slope(y_record: float, alpha: float, zeta: float, scale: float) -> float:
    """Model expectation of the record-improvement slope at level y:
    ``ptilde(y)**alpha / zeta``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    return ptilde(y_record, scale) ** alpha / zeta


def mean_reciprocal_wait(q: float) -> float:
    """``E[1/T]`` for a wait ``T ~ Geometric(q)`` on {1, 2, ...}:
    ``sum_t q*(1-q)**(t-1)/t = (-q*ln q)/(1-q)``, with limit 1 at q = 1.

    A record's improvement slope divides its improvement by such a wait,
    so this factor links the mean improvement to the mean slope.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if q == 1.0:
        return 1.0
    return -q * math.log(q) / (1.0 - q)
