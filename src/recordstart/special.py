"""Closed-form record statistics and the special functions behind them.

Everything in this module is pure and stateless.  :class:`RunTally` holds
the running sufficient statistics of completed runs, from which
:func:`zeta_score`, :func:`solve_zeta_tally` and :func:`p_fail_histogram`
evaluate the drivers' cross-run statistics without digamma.  The drivers
also use the surrogate slope law (:func:`ptilde`, :func:`expected_slope`);
the closed forms below are what the lab in :mod:`recordstart.hasplid`
checks.  The quantities all live in the record-value model of hesitant
adaptive search with a power-law improvement distribution: a run of an
iterative minimizer produces ``j`` raw iterates of which ``k`` are records
(strict improvements of the running best).  Its record law: the start
point is record 1, and iterate ``i + 1`` is a record with probability
``zeta/(i+zeta)``, independently, with ``zeta`` the ratio of the
improvement-rate parameter to the bettering exponent.  From that law, one
iterate at a time as the drivers' overdue rule does, this module computes

* the expected number of records in ``j`` iterates,
  ``1 + sum_{i<j} zeta/(i+zeta) = zeta * (psi(j+zeta) - psi(zeta))``
  (:func:`expected_records`),
* their pmf ``|s(j, k)| * zeta**(k-1) * Gamma(1+zeta) / Gamma(j+zeta)``,
  with ``s`` the Stirling numbers of the first kind
  (:func:`record_count_pmf`).

The probability that a run with ``k`` records never came within the target
tail of mass ``eps`` is ``G(k, -lam*log(eps))``, with ``G`` the regularized
lower incomplete gamma function at integer order, a plain sum of Poisson
terms (:func:`p_fail_histogram`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "RunStats",
    "RunTally",
    "ZETA_MIN",
    "ZETA_GUARD",
    "PTILDE_FLOOR",
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
# the MLE's upper clamp: it diverges when almost every iterate is a record
ZETA_GUARD = 25.0
# ptilde is clamped to [PTILDE_FLOOR, 1 - PTILDE_FLOOR]: its raw form is
# negative below y = 0, where several benchmark objectives take values
PTILDE_FLOOR = 1e-12


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


def record_count_pmf(j: int, k: int, zeta: float) -> float:
    """Probability of exactly k records in the first j iterates (0 for
    k > j): the pmf of 1 plus independent Bernoulli(``zeta/(i+zeta)``)
    records for ``i = 1 .. j-1``, convolved one iterate at a time, which
    is ``|s(j, k)| * zeta**(k-1) * Gamma(1+zeta) / Gamma(j+zeta)``.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if k > j or k < 1:
        return 0.0
    pmf = [1.0]  # pmf[m]: probability of m + 1 records so far
    for i in range(1, j):
        hit, miss = zeta / (i + zeta), i / (i + zeta)
        pmf = [a * miss + b * hit for a, b in zip(pmf + [0.0], [0.0] + pmf)]
    return pmf[k - 1]


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
    statistics, clamped to ``[ZETA_MIN, ZETA_GUARD]``.

    The score falls as zeta grows, so a positive score at ``ZETA_GUARD``
    puts the root above it; otherwise bisection on ``[ZETA_MIN,
    ZETA_GUARD]`` (geometric midpoints, relative width 1e-10) steps on the
    score's sign.  Only a history with a record past some run's start
    point has a finite positive root: any other raises ``ValueError``.
    """
    if not tally.record_sum > tally.runs:
        raise ValueError("need a record past some run's start point")
    if zeta_score(ZETA_GUARD, tally) > 0:
        return ZETA_GUARD
    lo, hi = ZETA_MIN, ZETA_GUARD
    while hi - lo > 1e-10 * lo:
        mid = math.sqrt(lo * hi)
        if zeta_score(mid, tally) > 0:
            lo = mid
        else:
            hi = mid
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
    out, acc, done = 1.0, 0.0, 0
    for k in ks:
        for s in range(done, k):
            acc += math.exp(s * log_x - x - math.lgamma(s + 1))
        done = k
        out *= max(0.0, 1.0 - acc) ** record_hist[k]
    return out


def expected_records(j: int, zeta: float) -> float:
    """Expected number of records in the first j iterates,
    ``1 + sum_{i<j} zeta/(i+zeta)`` summed left to right, which is
    ``zeta * (psi(j+zeta) - psi(zeta))``: bit for bit the running sum
    that :func:`recordstart.multistart.inner_loop` holds at iterate j.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    expected = 1.0
    for i in range(1, j):
        expected += zeta / (i + zeta)
    return expected


def ptilde(y: float, scale: float) -> float:
    """Surrogate range CDF ``1 - exp(-y/scale)`` clamped to
    ``[PTILDE_FLOOR, 1 - PTILDE_FLOOR]``; a level that is not positive
    (NaN included) takes the floor without an ``exp``."""
    if not y > 0.0:
        return PTILDE_FLOOR
    return min(max(1.0 - math.exp(-y / scale), PTILDE_FLOOR), 1.0 - PTILDE_FLOOR)


def expected_slope(y_record: float, alpha: float, zeta: float, scale: float) -> float:
    """Model expectation of the record-improvement slope at level y:
    ``ptilde(y)**alpha / zeta``.  Unchecked: the drivers pass an ``alpha``
    in (0, 1], which ``AlgoParams`` enforces, and a ``zeta`` in
    ``[ZETA_MIN, ZETA_GUARD]``: the prior 1.0 or a :func:`solve_zeta_tally`
    estimate.
    """
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
