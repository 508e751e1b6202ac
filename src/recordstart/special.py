"""Closed-form record statistics and the special functions behind them.

Everything in this module is pure and stateless, apart from
:class:`RunTally`, the running sufficient statistics of completed runs from
which :func:`solve_zeta_tally` and :func:`p_fail_histogram` evaluate the
cross-run statistics without digamma.  The quantities all live in
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
  regularized lower incomplete gamma function at integer order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "RunStats",
    "RunTally",
    "PtildeModel",
    "ZETA_MIN",
    "ZETA_MAX",
    "digamma",
    "incomplete_gamma_g",
    "stirling1_abs",
    "record_count_pmf",
    "solve_zeta",
    "solve_zeta_tally",
    "p_fail",
    "p_fail_histogram",
    "n_record_threshold",
    "expected_records",
    "ptilde",
    "expected_slope",
    "mean_reciprocal_wait",
]

ZETA_MIN = 1e-6
ZETA_MAX = 1e6
_STIRLING_MAX_N = 20


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
    excess_records: int = 0
    record_sum: int = 0
    survivors: list = field(default_factory=list)
    record_hist: dict = field(default_factory=dict)

    @classmethod
    def of(cls, history: list[RunStats]) -> "RunTally":
        tally = cls()
        for st in history:
            tally.add(st)
        return tally

    def add(self, st: RunStats) -> None:
        self.runs += 1
        self.excess_records += st.records - 1
        self.record_sum += st.records
        self.record_hist[st.records] = self.record_hist.get(st.records, 0) + 1
        survivors = self.survivors
        survivors.extend([0] * (st.iterates - 1 - len(survivors)))
        for i in range(st.iterates - 1):
            survivors[i] += 1


@dataclass(frozen=True)
class PtildeModel:
    """Surrogate range CDF ``1 - exp(-y/scale)`` clamped away from {0, 1}.

    The raw expression is negative for ``y < 0`` (several benchmark
    objectives take negative values), so the output is clamped to
    ``[clamp_floor, 1 - clamp_floor]``.
    """

    scale: float = 1.0
    clamp_floor: float = 1e-12

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if not 0 < self.clamp_floor < 0.5:
            raise ValueError("clamp_floor must be in (0, 0.5)")


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


def incomplete_gamma_g(n: int, x: float) -> float:
    """Regularized lower incomplete gamma at integer order:
    ``G(n, x) = 1 - exp(-x) * sum_{s<n} x**s / s!`` = P(Poisson(x) >= n).

    ``G(0, x) = 1`` for all x and ``G(n, 0) = 0`` for n >= 1.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if x < 0:
        raise ValueError("argument must be nonnegative")
    if n == 0:
        return 1.0
    if x == 0.0:
        return 0.0
    # log-space accumulation keeps the Poisson tail stable for large x
    log_terms = [-x + s * math.log(x) - math.lgamma(s + 1) for s in range(n)]
    m = max(log_terms)
    if m == -math.inf:
        return 1.0
    tail = math.exp(m) * sum(math.exp(t - m) for t in log_terms)
    return min(1.0, max(0.0, 1.0 - tail))


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
    s = stirling1_abs(j, k)
    if s == 0:
        return 0.0
    log_p = (
        math.log(s)
        + (k - 1) * math.log(zeta)
        + math.lgamma(1.0 + zeta)
        - math.lgamma(j + zeta)
    )
    return math.exp(log_p)


def _zeta_equation(zeta: float, history: list[RunStats]) -> float:
    """Likelihood score whose root is the record-rate ratio estimate:
    ``sum_r (k_r - 1) + zeta * (R*psi(1+zeta) - sum_r psi(j_r+zeta))``.

    The digamma form of :func:`_zeta_score`, kept as its reference.
    """
    r = len(history)
    acc = 0.0
    for st in history:
        acc += st.records - 1
    return acc + zeta * (r * digamma(1.0 + zeta) - sum(digamma(st.iterates + zeta) for st in history))


def _zeta_score(zeta: float, tally: RunTally) -> float:
    """:func:`_zeta_equation` without digamma: since
    ``psi(j+zeta) - psi(1+zeta) = sum_{i=1}^{j-1} 1/(i+zeta)``, the score is
    ``sum_r (k_r - 1) - sum_i N_i * zeta/(i+zeta)`` with ``N_i`` the number
    of runs with more than ``i`` iterates.
    """
    acc = 0.0
    for i, n in enumerate(tally.survivors, start=1):
        acc += n * zeta / (i + zeta)
    return tally.excess_records - acc


def solve_zeta(history: list[RunStats]) -> float:
    """Maximum-likelihood estimate of zeta from completed-run statistics;
    see :func:`solve_zeta_tally`."""
    return solve_zeta_tally(RunTally.of(history))


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
    f_lo = _zeta_score(ZETA_MIN, tally)
    f_hi = _zeta_score(ZETA_MAX, tally)
    if f_lo > 0 and f_hi > 0:
        return ZETA_MAX
    if f_lo < 0 and f_hi < 0:
        return ZETA_MIN
    lo, hi = ZETA_MIN, ZETA_MAX
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        f_mid = _zeta_score(mid, tally)
        if f_mid * f_lo <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= 1e-10 * lo:
            break
    return math.sqrt(lo * hi)


def p_fail(record_counts: list[int], lam: float, epsilon: float) -> float:
    """Probability that every completed run missed the eps-target tail:
    ``prod_r G(k_r, -lam * log(epsilon))``; see :func:`p_fail_histogram`.
    Empty input gives 1.0.
    """
    hist: dict[int, int] = {}
    for k in record_counts:
        hist[k] = hist.get(k, 0) + 1
    return p_fail_histogram(hist, lam, epsilon)


def p_fail_histogram(record_hist: dict[int, int], lam: float, epsilon: float) -> float:
    """:func:`p_fail` over the record-count histogram ``{k: c_k}``:
    ``prod_k G(k, -lam * log(epsilon))**c_k``."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = -lam * math.log(epsilon)
    out = 1.0
    for k in sorted(record_hist):
        if k < 1:
            raise ValueError("record counts must be >= 1")
        out *= incomplete_gamma_g(k, x) ** record_hist[k]
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


def n_record_threshold(records_so_far: int, zeta: float) -> float:
    """Iterate count at which the next record is overdue.

    Continuous root ``j*`` of ``zeta*(psi(j+zeta) - psi(zeta)) =
    records_so_far + 1``: the expected-records curve reaches one more
    record than currently held.  Strictly increasing in records_so_far.
    """
    if records_so_far < 0:
        raise ValueError("records_so_far must be nonnegative")
    target = records_so_far + 1.0
    if expected_records(1.0, zeta) >= target:
        return 1.0
    lo, hi = 1.0, 2.0
    while expected_records(hi, zeta) < target:
        lo = hi
        hi *= 2.0
        if hi > 1e18:
            return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected_records(mid, zeta) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def ptilde(y: float, model: PtildeModel) -> float:
    """Clamped surrogate range CDF ``1 - exp(-y/scale)``."""
    raw = 1.0 - math.exp(-y / model.scale) if y / model.scale > -700 else -math.inf
    return min(max(raw, model.clamp_floor), 1.0 - model.clamp_floor)


def expected_slope(y_record: float, alpha: float, zeta: float, model: PtildeModel) -> float:
    """Model expectation of the record-improvement slope at level y:
    ``ptilde(y)**alpha / zeta``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    return ptilde(y_record, model) ** alpha / zeta


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
