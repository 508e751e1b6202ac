"""Closed-form record statistics and the special functions behind them.

Everything in this module is pure and stateless.  :class:`RunTally` holds
the running sufficient statistics of completed runs, two sums and two
histograms that a run updates in O(1), from which :func:`zeta_score` (the
records held minus the records expected), :func:`solve_zeta_tally` and
:func:`p_fail_histogram` evaluate the drivers' cross-run statistics
without digamma.  The drivers also use the surrogate slope law
(:func:`ptilde`, :func:`expected_slope`); the closed forms below are what
the lab in :mod:`recordstart.hasplid` checks.

The record-value model of hesitant adaptive search with a power-law
improvement distribution: a run of an iterative minimizer produces ``j``
raw iterates of which ``k`` are records (strict improvements of the
running best).  The start point is record 1, and iterate ``i + 1`` is a
record with probability ``zeta/(i+zeta)``, independently, with ``zeta``
the ratio of the improvement-rate parameter to the bettering exponent.
From that law, one iterate at a time as the drivers' overdue rule does,
this module computes the expected number of records in ``j`` iterates,
``1 + sum_{i<j} zeta/(i+zeta) = zeta * (psi(j+zeta) - psi(zeta))``
(:func:`expected_records`), and their pmf ``|s(j, k)| * zeta**(k-1) *
Gamma(1+zeta) / Gamma(j+zeta)``, with ``s`` the Stirling numbers of the
first kind (:func:`record_count_pmf`).  A run with ``k`` records never
came within the target tail of mass ``eps`` with probability ``G(k,
-lam*log(eps))``, the regularized lower incomplete gamma function at
integer order, a sum of Poisson terms (:func:`p_fail_histogram`).
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
            raise ValueError(f"need iterates >= records >= 1, got k={self.records} j={self.iterates}")


@dataclass
class RunTally:
    """Sufficient statistics of completed runs: ``record_hist`` and
    ``iterate_hist`` map a record and an iterate count to the number of
    runs with it, and ``record_sum`` and ``iterate_sum`` add them up.
    :func:`zeta_score` reads the record sum and the iterate histogram,
    :func:`solve_zeta_tally` first the two sums, and
    :func:`p_fail_histogram` the record histogram.  Adding a run is O(1).
    """

    runs: int = 0
    record_sum: int = 0
    iterate_sum: int = 0
    record_hist: dict = field(default_factory=dict)
    iterate_hist: dict = field(default_factory=dict)

    def add(self, st: RunStats) -> None:
        self.runs += 1
        self.record_sum += st.records
        self.iterate_sum += st.iterates
        self.record_hist[st.records] = self.record_hist.get(st.records, 0) + 1
        self.iterate_hist[st.iterates] = self.iterate_hist.get(st.iterates, 0) + 1


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
    """Likelihood score whose root is the record-rate ratio estimate: the
    records the runs hold minus the records the record law expects of
    their iterates, ``sum_r k_r - sum_j c_j * E(j, zeta)`` over the
    iterate histogram ``{j: c_j}``, ``E`` as in :func:`expected_records`.
    Both sides drop the start points' records, held and expected alike,
    and ``E(j, zeta) - 1`` is summed left to right over the sorted ``j``,
    so the score keeps its relative accuracy at small ``zeta``.  It is
    the digamma form ``sum_r (k_r - 1) + zeta * (R*psi(1+zeta) - sum_r
    psi(j_r+zeta))`` and falls as ``zeta`` grows, strictly unless every
    run has a single iterate.
    """
    held, expected, done = tally.record_sum - tally.runs, 0.0, 1  # expected_records(done, zeta) - 1
    for j in sorted(tally.iterate_hist):
        for i in range(done, j):
            expected += zeta / (i + zeta)
        done = j
        held -= tally.iterate_hist[j] * expected
    return held


def solve_zeta_tally(tally: RunTally) -> float:
    """Maximum-likelihood estimate of zeta from the runs' sufficient
    statistics, clamped to ``[ZETA_MIN, ZETA_GUARD]``.

    :func:`zeta_score` falls as zeta grows, so a positive score at ``G =
    ZETA_GUARD`` puts the root above it; otherwise bisection on
    ``[ZETA_MIN, G]`` (geometric midpoints, relative width 1e-10) steps on
    the score's sign.  Only a history with a record past some run's start
    point has a root: any other raises ``ValueError``.  Most histories
    skip the score: ``E(j, G) - 1 <= (j - 1) * G/(1+G)``, so with ``past =
    sum_r (k_r - 1)`` and ``steps = sum_r (j_r - 1)`` the score at G is at
    least ``(past*(1+G) - G*steps) / (1+G)``.  At the integral guard both
    products are integers, so once the first exceeds the second the score
    is at least 1/26, far above its rounding.
    """
    past, steps = tally.record_sum - tally.runs, tally.iterate_sum - tally.runs
    if not past > 0:
        raise ValueError("need a record past some run's start point")
    if past * (1.0 + ZETA_GUARD) > ZETA_GUARD * steps or zeta_score(ZETA_GUARD, tally) > 0:
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
    the Poisson terms that runs on from one k to the next.  Term ``s`` is
    term ``s - 1`` times ``x/s``, from ``exp(-x)``, or where that is no
    normal float (x above about 708, or far in the upper tail) its closed
    form ``exp(s*log(x) - x - lgamma(s+1))``; none exceeds 1.  Against
    mpmath (orders up to ``x + 12*sqrt(x)``), ``1 - acc`` is accurate to
    3.1e-16 absolute at x = 8.5, 6.2e-16 at the canonical table's deepest
    x = 43.5, 1.1e-15 at 250, 3.9e-14 at 1000 and 1.8e-12 at 3000 (every
    term in closed form: 8.6e-16, 2.4e-15, 9.9e-14, 2.5e-13, 2.7e-12).  A
    factor below that is rounding; the drivers' smallest are 1.04e-4
    (canonical) and 0.029 (deep).
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"tail depth x must be positive and finite, got {x}")
    ks = sorted(record_hist)
    if ks and ks[0] < 1:
        raise ValueError("record counts must be >= 1")
    out, acc, s, term = 1.0, 0.0, 0, math.exp(-x)
    for k in ks:
        while s < k:
            if term < 2.2250738585072014e-308:  # the least normal float
                term = math.exp(s * math.log(x) - x - math.lgamma(s + 1))
            acc += term
            s += 1
            term = term * x / s
        out *= (1.0 - acc if acc < 1.0 else 0.0) ** record_hist[k]
    return out


def expected_records(j: int, zeta: float) -> float:
    """Expected number of records in the first j iterates,
    ``1 + sum_{i<j} zeta/(i+zeta)`` summed left to right, which is
    ``zeta * (psi(j+zeta) - psi(zeta))``: bit for bit the running sum
    that :func:`recordstart.multistart.inner_loop` reads at iterate j.
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
