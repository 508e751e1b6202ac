"""Monte-Carlo lab for hesitant adaptive search with a power-law
improvement distribution (HASPLID).

The lab samples the uniform range model, ``p(y) = y`` on [0, 1], so a
level is its own CDF value.  With parameters ``alpha`` (bettering
exponent) and ``lam`` (improvement-quality exponent):

* the initial level has CDF ``y**lam``,
* from level ``y`` the sampler improves with probability ``y**alpha``,
  drawing the new level with conditional CDF ``(t/y)**lam``, and
  otherwise hesitates (repeats ``y``).

So the sampler waits a Geometric(``y**alpha``) number of steps at each
record, independently of the record values.  :func:`record_chain`
simulates only the records: it draws each wait and each next record for a
whole batch of trajectories at once, from one random stream, and only for
the trajectories its consumer keeps.  :func:`validate_statistics` builds
every check of the closed forms from :mod:`recordstart.special` out of
one pass over it, tallying the record counts per record, and drops each
trajectory once its records can no longer change a statistic.  The
checks look at one fixed design, the module constants below: the uniform
range model, target level 0.1, slope window 0.5 +- 0.02 and horizons 3
and 100; a :class:`LabConfig` sets only ``alpha``, ``lam``, the
trajectory count and the seed.  The test suite checks the kernel in
distribution against a brute-force sampler that draws every iterate.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .special import expected_records, mean_reciprocal_wait, p_fail_histogram, record_count_pmf

__all__ = [
    "record_chain",
    "LabConfig",
    "CheckResult",
    "ValidationReport",
    "validate_statistics",
]


# smallest normal float: the success probability of a wait drawn where
# p**alpha has underflowed to 0, which numpy's geometric sampler rejects
_TINY = np.finfo(float).tiny


def record_chain(alpha: float, lam: float, n: int, rng):
    """Levels and times of records 1, 2, ... of ``n`` trajectories.

    An endless generator of ``(levels, times)`` arrays, one pair per
    record, starting with the initial sample at time 0.  The level ``p``
    starts at ``U**(1/lam)``, and each step adds a Geometric(``p**alpha``)
    wait to the time and multiplies ``p`` by a fresh ``U**(1/lam)``,
    drawing both for every trajectory still going from ``rng``.  Times are
    floats, exact below ``2**53``; a wait past the int64 range saturates
    instead of wrapping.  The yielded arrays are never modified afterwards.

    The consumer may ``send`` the indices into the last yielded arrays of
    the trajectories that go on (``np.flatnonzero`` of a mask); the
    generator keeps those, in that order, and draws only for them, so the
    next pair has their length.  ``next()`` sends ``None`` and keeps
    every trajectory: a chain that is never sent indices draws exactly as
    one that keeps all.
    """
    inv_lam = 1.0 / lam
    p = rng.random(n) ** inv_lam
    t = np.zeros(n)
    while True:
        keep = yield p, t
        if keep is not None:
            p, t = p.take(keep), t.take(keep)
        t = t + rng.geometric(np.maximum(p**alpha, _TINY))
        p = p * rng.random(p.size) ** inv_lam


# ---------------------------------------------------------------------------
# statistical validation
# ---------------------------------------------------------------------------


# the fixed design every check looks at: records above the target level,
# records in the slope window, record counts at the two horizons
MODEL_NAME = "uniform"
TARGET_LEVEL = 0.1
WINDOW_CENTER = 0.5
WINDOW_HALFWIDTH = 0.02
PMF_LENGTH = 3
CURVE_LENGTH = 100


@dataclass(frozen=True)
class LabConfig:
    """Parameters of one validation campaign, checked when it is built (a
    bool is no count, seed or parameter: ``seed=True`` would run seed 1's
    pass and ``alpha=True`` alpha 1's, each recorded as true)."""

    alpha: float = 0.5
    lam: float = 1.0
    trajectories: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.trajectories, numbers.Integral) or isinstance(self.trajectories, bool):
            raise ValueError(f"trajectories must be an integer, got {self.trajectories!r}")
        if self.trajectories < 1000:
            raise ValueError("insufficient samples: need at least 1000 trajectories")
        if isinstance(self.alpha, bool) or not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1] for validation")
        if isinstance(self.lam, bool) or not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not (isinstance(self.seed, numbers.Integral) and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    theoretical: float
    tolerance: float
    relative: bool

    def deviation(self) -> float:
        d = abs(self.statistic - self.theoretical)
        return d / abs(self.theoretical) if self.relative else d

    @property
    def passed(self) -> bool:
        return bool(self.deviation() <= self.tolerance)


@dataclass
class ValidationReport:
    config: LabConfig
    checks: list = field(default_factory=list)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        # the report states where its checks look, next to what the caller set
        design = dict(
            model_name=MODEL_NAME, target_level=TARGET_LEVEL, window_center=WINDOW_CENTER,
            window_halfwidth=WINDOW_HALFWIDTH, pmf_length=PMF_LENGTH, curve_length=CURVE_LENGTH,
        )
        return {
            "config": {**asdict(self.config), **design},
            "checks": [{**asdict(c), "pass": c.passed} for c in self.checks],
        }

    def to_json(self) -> str:
        # a numpy scalar, which LabConfig accepts, is written as its Python value
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, default=np.generic.item)


def _result(name, stat, theo, tol, relative=True) -> CheckResult:
    return CheckResult(name, float(stat), float(theo), tol, relative)


def validate_statistics(config: LabConfig) -> ValidationReport:
    """Run every distributional check at the configured parameters.

    Checks, each against its closed form:

    * mean and variance of the number of records above the target level
      (Poisson with mean ``-lam*log(target)``),
    * survival of the third record past the target level
      (``G(3, -lam*log(target))``),
    * mean inter-record time for records near the window center
      (geometric with success probability ``center**alpha``),
    * record-count frequencies at a short horizon and the mean record
      count at a long horizon (the record law's pmf and expected count
      with ``zeta = lam/alpha``),
    * conditional mean of slope samples near the window center, twice:
      ``conditional_slope_mean`` against the stated closed form
      ``alpha * center**alpha / lam`` (the RDMSS cut threshold of
      :func:`recordstart.special.expected_slope`), which overstates the
      simulated process and fails; ``conditional_slope_mean_exact``
      against the sampler's exact law ``center/(lam+1) * (-q*ln q)/(1-q)``
      with ``q = center**alpha``: the improvement and the Geometric(q)
      wait are independent, so the mean slope is the mean improvement
      ``E[y - Y' | y] = y/(lam+1)`` times ``E[1/wait]``
      (:func:`recordstart.special.mean_reciprocal_wait`).

    Every statistic comes from one pass of :func:`record_chain` over all
    trajectories, drawn from ``default_rng(config.seed)``.  Levels only
    fall and times only rise, so a trajectory's records above the target
    level and before each horizon are its first few, and each count is
    tallied per record over the trajectories still going, with no counter
    per trajectory.  A trajectory leaves the pass once its latest record
    is the third or later, lies at or below the target level and below
    the slope window, and lies past both horizons: it adds nothing to any
    later count and never enters the window again.  From then on the chain
    draws nothing for it, and the pass ends when every trajectory has
    left.  The first three records are drawn for every trajectory.

    ``LabConfig`` has checked its fields when it was built.  Raises
    ``ValueError`` when no record falls in the slope window, which leaves
    the window checks without a sample.
    """
    alpha, lam = config.alpha, config.lam
    zeta = lam / alpha
    n = config.trajectories
    lo = WINDOW_CENTER - WINDOW_HALFWIDTH
    hi = WINDOW_CENTER + WINDOW_HALFWIDTH
    poi = -lam * math.log(TARGET_LEVEL)

    s1 = s2 = curve = 0  # count sum and sum of squares, records before CURVE_LENGTH
    # short[r]: trajectories whose record r comes before time PMF_LENGTH,
    # none past r = PMF_LENGTH, as record r comes at time r - 1 or later;
    # short[k] - short[k + 1] of them hold exactly k such records
    short = [0] * (PMF_LENGTH + 2)
    gaps, slopes = [], []
    chain = record_chain(alpha, lam, n, np.random.default_rng(config.seed))
    y, t = next(chain)
    keep = None
    for rec in itertools.count(1):
        # a trajectory above the target at record rec holds rec records
        # above it: its count gains 1 and its square 2*rec - 1
        above = int(np.count_nonzero(y > TARGET_LEVEL))
        s1 += above
        s2 += (2 * rec - 1) * above
        curve += int(np.count_nonzero(t < CURVE_LENGTH))
        if rec <= PMF_LENGTH:
            short[rec] = int(np.count_nonzero(t < PMF_LENGTH))
        if rec == 3:
            third_above = above
        if rec >= 3:
            # the trajectories that can still count go on; the others leave
            keep = np.flatnonzero((y > TARGET_LEVEL) | (y >= lo) | (t < max(PMF_LENGTH, CURVE_LENGTH)))
            if not keep.size:
                break
            y, t = y.take(keep), t.take(keep)
        next_y, next_t = chain.send(keep)
        # wait and slope from each record in the window to the next one
        w = (lo <= y) & (y <= hi)
        gaps.append(next_t[w] - t[w])
        slopes.append((y[w] - next_y[w]) / gaps[-1])
        y, t = next_y, next_t
    gaps = np.concatenate(gaps)
    slopes = np.concatenate(slopes)
    if not gaps.size:
        raise ValueError(f"no record of {n} trajectories fell in the slope window [{lo}, {hi}]")
    # the record-count moments from exact integer sums, correctly rounded
    count_mean, count_var = s1 / n, (n * s2 - s1 * s1) / (n * n)

    report = ValidationReport(config=config)
    report.checks.append(_result("poisson_mean_records", count_mean, poi, 0.02))
    report.checks.append(_result("poisson_variance_records", count_var, poi, 0.05))
    report.checks.append(
        _result(
            "third_record_survival",
            third_above / n,
            p_fail_histogram({3: 1}, poi),  # G(3, poi): one factor, k = 3
            0.01,
            relative=False,
        )
    )
    report.checks.append(
        _result("inter_record_time_mean", float(np.mean(gaps)), WINDOW_CENTER ** (-alpha), 0.03)
    )
    pmf_dev = max(
        abs((short[k] - short[k + 1]) / n - record_count_pmf(PMF_LENGTH, k, zeta)) for k in range(1, PMF_LENGTH + 1)
    )
    report.checks.append(_result("record_count_pmf_short_horizon", pmf_dev, 0.0, 0.01, relative=False))
    report.checks.append(
        _result(
            "expected_records_long_horizon",
            curve / n,
            expected_records(CURVE_LENGTH, zeta),
            0.02,
        )
    )
    slope_mean = float(np.mean(slopes))
    report.checks.append(
        _result("conditional_slope_mean", slope_mean, alpha * WINDOW_CENTER**alpha / lam, 0.05)
    )
    report.checks.append(
        _result(
            "conditional_slope_mean_exact",
            slope_mean,
            WINDOW_CENTER / (lam + 1.0) * mean_reciprocal_wait(WINDOW_CENTER**alpha),
            0.05,
        )
    )
    return report
