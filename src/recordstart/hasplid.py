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
whole batch of trajectories at once, from one random stream, and
:func:`validate_statistics` builds every check of the closed forms from
:mod:`recordstart.special` out of one pass over it.  The checks look at one
fixed design, the module constants below: the uniform range model, target
level 0.1, slope window 0.5 +- 0.02 and horizons 3 and 100; a
:class:`LabConfig` sets only ``alpha``, ``lam``, the trajectory count and
the seed.  The test suite checks the kernel in distribution against a
brute-force sampler that draws every iterate.
"""

from __future__ import annotations

import itertools
import json
import math
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

    An endless generator of ``(levels, times)`` arrays of length ``n``,
    one pair per record, starting with the initial sample at time 0.  The
    level ``p`` starts at ``U**(1/lam)``, and each step adds a
    Geometric(``p**alpha``) wait to the time and multiplies ``p`` by a
    fresh ``U**(1/lam)``, drawing both for all ``n`` trajectories from
    ``rng``.  Times are floats, exact below ``2**53``; a wait past the
    int64 range saturates instead of wrapping.  The yielded arrays are
    never modified afterwards.
    """
    inv_lam = 1.0 / lam
    p = rng.random(n) ** inv_lam
    t = np.zeros(n)
    while True:
        yield p, t
        t = t + rng.geometric(np.maximum(p**alpha, _TINY))
        p = p * rng.random(n) ** inv_lam


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
    """Parameters of one validation campaign."""

    alpha: float = 0.5
    lam: float = 1.0
    trajectories: int = 100_000
    seed: int = 0


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

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


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
      count at a long horizon (Stirling pmf / digamma curve with
      ``zeta = lam/alpha``),
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
    trajectories, drawn from ``default_rng(config.seed)``; the pass ends
    once every trajectory's latest record is the third or later, lies
    below the target level and the slope window, and lies past both
    horizons.

    Raises ``ValueError`` on fewer than 1000 trajectories, on an ``alpha``
    outside (0, 1] or a ``lam`` that is not positive and finite, all before
    the pass, and when no record falls in the slope window, which leaves
    the window checks without a sample.
    """
    if config.trajectories < 1000:
        raise ValueError("insufficient samples: need at least 1000 trajectories")
    alpha, lam = config.alpha, config.lam
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1] for validation")
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    zeta = lam / alpha
    n = config.trajectories
    lo = WINDOW_CENTER - WINDOW_HALFWIDTH
    hi = WINDOW_CENTER + WINDOW_HALFWIDTH
    poi = -lam * math.log(TARGET_LEVEL)

    # per trajectory: records above the target level, and records among
    # the first PMF_LENGTH and the first CURVE_LENGTH iterates
    counts, pmf_recs, curve_counts = (np.zeros(n, dtype=np.int32) for _ in range(3))
    gaps, slopes = [], []
    chain = record_chain(alpha, lam, n, np.random.default_rng(config.seed))
    y, t = next(chain)
    for rec in itertools.count(1):
        counts += y > TARGET_LEVEL
        pmf_recs += t < PMF_LENGTH
        curve_counts += t < CURVE_LENGTH
        if rec == 3:
            third_above = y > TARGET_LEVEL
        if rec >= 3 and not np.any((y > TARGET_LEVEL) | (y >= lo) | (t < max(PMF_LENGTH, CURVE_LENGTH))):
            break
        next_y, next_t = next(chain)
        # wait and slope from each record in the window to the next one
        w = (lo <= y) & (y <= hi)
        gaps.append(next_t[w] - t[w])
        slopes.append((y[w] - next_y[w]) / gaps[-1])
        y, t = next_y, next_t
    gaps = np.concatenate(gaps)
    slopes = np.concatenate(slopes)
    if not gaps.size:
        raise ValueError(f"no record of {n} trajectories fell in the slope window [{lo}, {hi}]")
    pmf_counts = np.bincount(pmf_recs, minlength=PMF_LENGTH + 1)

    report = ValidationReport(config=config)
    report.checks.append(_result("poisson_mean_records", float(np.mean(counts)), poi, 0.02))
    report.checks.append(_result("poisson_variance_records", float(np.var(counts)), poi, 0.05))
    report.checks.append(
        _result(
            "third_record_survival",
            float(np.mean(third_above)),
            p_fail_histogram({3: 1}, poi),  # G(3, poi): one factor, k = 3
            0.01,
            relative=False,
        )
    )
    report.checks.append(
        _result("inter_record_time_mean", float(np.mean(gaps)), WINDOW_CENTER ** (-alpha), 0.03)
    )
    pmf_dev = max(abs(pmf_counts[k] / n - record_count_pmf(PMF_LENGTH, k, zeta)) for k in range(1, PMF_LENGTH + 1))
    report.checks.append(_result("record_count_pmf_short_horizon", pmf_dev, 0.0, 0.01, relative=False))
    report.checks.append(
        _result(
            "expected_records_long_horizon",
            float(np.mean(curve_counts)),
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
