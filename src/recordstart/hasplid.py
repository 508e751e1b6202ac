"""Monte-Carlo lab for hesitant adaptive search with a power-law
improvement distribution (HASPLID).

The conceptual sampler works purely in range space.  Given a range
distribution with CDF ``p`` and parameters ``alpha`` (bettering exponent)
and ``lam`` (improvement-quality exponent):

* the initial value has CDF ``p**lam``,
* from level ``y`` the sampler improves with probability ``p(y)**alpha``,
  drawing the new value with conditional CDF ``(p(t)/p(y))**lam``, and
  otherwise hesitates (repeats ``y``).

The lab simulates trajectories, extracts record sequences and slope
samples, and checks the closed forms from :mod:`recordstart.special`
against empirical statistics.  Every trajectory's random stream is a pure
function of ``(seed, trajectory_index)``, so batches can be partitioned
across workers with results identical to serial execution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

from .special import expected_records, incomplete_gamma_g, mean_reciprocal_wait, record_count_pmf

__all__ = [
    "RangeModel",
    "uniform_model",
    "exponential_model",
    "mean_improvement",
    "HasplidTrajectory",
    "RecordSequence",
    "run_hasplid",
    "extract_records",
    "slope_samples",
    "simulate_trajectories",
    "LabConfig",
    "CheckResult",
    "ValidationReport",
    "validate_statistics",
]


@dataclass(frozen=True)
class RangeModel:
    """Range distribution given by its CDF and quantile function."""

    name: str
    cdf: callable
    inverse_cdf: callable


def uniform_model() -> RangeModel:
    """Uniform range distribution on [0, 1]: p(y) = y."""
    return RangeModel("uniform", lambda y: min(max(y, 0.0), 1.0), lambda u: u)


def exponential_model() -> RangeModel:
    """Unit-rate exponential range distribution: p(y) = 1 - exp(-y)."""
    return RangeModel(
        "exponential",
        lambda y: -math.expm1(-y) if y > 0 else 0.0,
        lambda u: -math.log1p(-u),
    )


def _gauss_legendre_unit(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]:
    Newton's method on the roots of the Legendre polynomial ``P_n``."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return (x + 1.0) / 2.0, 1.0 / ((1.0 - x * x) * dp * dp)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre_unit(64)


def mean_improvement(model: RangeModel, y: float, lam: float) -> float:
    """Mean improvement ``E[y - Y' | y]`` of one improving step from level
    ``y``, where ``Y'`` has conditional CDF ``(p(t)/p(y))**lam``:
    ``integral_0^y (p(t)/p(y))**lam dt`` (both range models start at 0).

    The substitution ``t = y*s**4`` smooths the ``t**lam`` behaviour at
    ``t = 0`` so that a fixed 64-point Gauss-Legendre rule is accurate to
    about 1e-13 relative for smooth CDFs (``y/(lam+1)`` for the uniform
    model).  Levels at or below the bottom of the range give 0.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    p_y = model.cdf(y)
    if p_y <= 0.0:
        return 0.0
    t = y * _GL_NODES**4
    ratio = np.array([model.cdf(float(ti)) for ti in t]) / p_y
    return float(4.0 * y * np.sum(_GL_WEIGHTS * _GL_NODES**3 * ratio**lam))


@dataclass(frozen=True)
class HasplidTrajectory:
    """Non-increasing sequence of sampled range values."""

    values: list
    seed: object


@dataclass(frozen=True)
class RecordSequence:
    """Strictly increasing record times 0 = R(1) < R(2) < ... and the
    strictly decreasing record values; the initial sample is record 1."""

    times: list
    values: list


class _UniformStream:
    """Chunked uniform(0,1) stream so hot loops stay in plain Python."""

    __slots__ = ("_rng", "_buf", "_i", "_chunk")

    def __init__(self, rng, chunk=256):
        self._rng = rng
        self._chunk = chunk
        self._buf = rng.random(chunk).tolist()
        self._i = 0

    def next(self):
        i = self._i
        if i == len(self._buf):
            self._buf = self._rng.random(self._chunk).tolist()
            i = 0
        self._i = i + 1
        return self._buf[i]


def _trajectory_rng(seed, index: int):
    return np.random.default_rng([int(seed), int(index)])


def run_hasplid(alpha: float, lam: float, model: RangeModel, max_iters: int, seed) -> HasplidTrajectory:
    """Simulate one trajectory of ``max_iters`` transitions after the
    initial sample; deterministic given the seed."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    stream = _UniformStream(np.random.default_rng(seed))
    inv_lam = 1.0 / lam
    y = model.inverse_cdf(stream.next() ** inv_lam)
    values = [y]
    p = model.cdf
    inv = model.inverse_cdf
    for _ in range(max_iters):
        py = p(y)
        if stream.next() < py**alpha:
            y = inv(py * stream.next() ** inv_lam)
        values.append(y)
    return HasplidTrajectory(values=values, seed=seed)


def extract_records(trajectory: HasplidTrajectory) -> RecordSequence:
    """Strict-improvement times and values; the initial value is record 1."""
    values = trajectory.values
    if not values:
        raise ValueError("trajectory is empty")
    times = [0]
    recs = [values[0]]
    best = values[0]
    for j, v in enumerate(values):
        if v < best:
            best = v
            times.append(j)
            recs.append(v)
    return RecordSequence(times=times, values=recs)


def slope_samples(records: RecordSequence) -> list:
    """Improvement per iterate between consecutive records,
    ``(Y_{R(k)} - Y_{R(k+1)}) / (R(k+1) - R(k))``; empty if fewer than
    two records."""
    t, v = records.times, records.values
    return [(v[k] - v[k + 1]) / (t[k + 1] - t[k]) for k in range(len(v) - 1)]


def _simulate_range(args):
    alpha, lam, model_name, max_iters, seed, lo, hi = args
    model = _MODELS[model_name]()
    out = []
    for idx in range(lo, hi):
        out.append(run_hasplid(alpha, lam, model, max_iters, _trajectory_rng(seed, idx)))
    return out


_MODELS = {"uniform": uniform_model, "exponential": exponential_model}


def simulate_trajectories(
    alpha: float,
    lam: float,
    model_name: str,
    n_trajectories: int,
    max_iters: int,
    seed: int,
    workers: int = 1,
) -> list:
    """Batch of trajectories; trajectory ``i`` depends only on
    ``(seed, i)``, so any worker partition reproduces the serial result."""
    if model_name not in _MODELS:
        raise KeyError(f"unknown range model {model_name!r}")
    bounds = np.linspace(0, n_trajectories, max(1, workers) + 1).astype(int)
    jobs = [
        (alpha, lam, model_name, max_iters, seed, int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if workers <= 1:
        chunks = [_simulate_range(j) for j in jobs]
    else:
        with Pool(workers) as pool:
            chunks = pool.map(_simulate_range, jobs)
    return [t for c in chunks for t in c]


# ---------------------------------------------------------------------------
# statistical validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabConfig:
    """Parameters of one validation campaign."""

    alpha: float = 0.5
    lam: float = 1.0
    model_name: str = "uniform"
    trajectories: int = 100_000
    target_level: float = 0.1
    window_center: float = 0.5
    window_halfwidth: float = 0.02
    pmf_length: int = 3
    curve_length: int = 100
    seed: int = 0


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    theoretical: float
    tolerance: float
    relative: bool
    passed: bool

    def deviation(self) -> float:
        d = abs(self.statistic - self.theoretical)
        return d / abs(self.theoretical) if self.relative else d


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
        cfg = {k: getattr(self.config, k) for k in self.config.__dataclass_fields__}
        return {
            "config": cfg,
            "checks": [
                {
                    "name": c.name,
                    "statistic": c.statistic,
                    "theoretical": c.theoretical,
                    "tolerance": c.tolerance,
                    "relative": c.relative,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _result(name, stat, theo, tol, relative=True) -> CheckResult:
    stat, theo = float(stat), float(theo)
    dev = abs(stat - theo) / (abs(theo) if relative else 1.0)
    return CheckResult(name, stat, theo, tol, relative, bool(dev <= tol))


def validate_statistics(config: LabConfig) -> ValidationReport:
    """Run every distributional check at the configured parameters.

    Checks, each against its closed form:

    * mean and variance of the number of records above the target level
      (Poisson with mean ``-lam*log p(target)``),
    * survival of the third record past the target level
      (``G(3, -lam*log p(target))``),
    * mean inter-record time for records near the window center
      (geometric with success probability ``p(center)**alpha``),
    * record-count frequencies at a short horizon and the mean record
      count at a long horizon (Stirling pmf / digamma curve with
      ``zeta = lam/alpha``),
    * conditional mean of slope samples near the window center, twice:
      ``conditional_slope_mean`` against the stated closed form
      ``alpha * p(center)**alpha / lam`` (the RDMSS cut threshold of
      :func:`recordstart.special.expected_slope`), which overstates the
      simulated process and fails; ``conditional_slope_mean_exact``
      against the sampler's exact law ``E[y - Y' | y] * (-q*ln q)/(1-q)``
      with ``q = p(center)**alpha``: the improvement and the
      Geometric(q) wait are independent, so the mean slope is the mean
      improvement (:func:`mean_improvement`) times ``E[1/wait]``
      (:func:`recordstart.special.mean_reciprocal_wait`).

    Raises ``ValueError`` when no record falls in the slope window, which
    leaves the window checks without a sample.
    """
    if config.trajectories < 1000:
        raise ValueError("insufficient samples: need at least 1000 trajectories")
    if config.model_name not in _MODELS:
        raise KeyError(f"unknown range model {config.model_name!r}")
    model = _MODELS[config.model_name]()
    alpha, lam = config.alpha, config.lam
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1] for validation")
    zeta = lam / alpha
    n = config.trajectories
    p = model.cdf
    inv = model.inverse_cdf
    inv_lam = 1.0 / lam

    y_t = config.target_level
    q_lo = p(config.window_center - config.window_halfwidth)
    q_hi = p(config.window_center + config.window_halfwidth)
    q_mid = p(config.window_center)
    poi = -lam * math.log(p(y_t))

    # pass 1: records until below the target level and until the third
    # record exists; collects Poisson counts and third-record survival
    counts = np.empty(n)
    third_above = np.empty(n, dtype=bool)
    cap = 20_000
    for i in range(n):
        stream = _UniformStream(_trajectory_rng(config.seed, i))
        y = inv(stream.next() ** inv_lam)
        recs = 1
        above = 1 if y > y_t else 0
        third = y if recs == 3 else None
        it = 0
        while (y > y_t or recs < 3) and it < cap:
            py = p(y)
            if stream.next() < py**alpha:
                y = inv(py * stream.next() ** inv_lam)
                recs += 1
                if y > y_t:
                    above += 1
                if recs == 3:
                    third = y
            it += 1
        counts[i] = above
        third_above[i] = third is not None and third > y_t

    # pass 2: inter-record times and slopes for records in the window
    gaps = []
    slopes = []
    for i in range(n):
        stream = _UniformStream(_trajectory_rng(config.seed + 1, i))
        y = inv(stream.next() ** inv_lam)
        t = 0
        rec_t, rec_y = 0, y
        it = 0
        while p(y) >= q_lo and it < cap:
            py = p(y)
            if stream.next() < py**alpha:
                t += 1
                y = inv(py * stream.next() ** inv_lam)
                if q_lo <= p(rec_y) <= q_hi:
                    gaps.append(t - rec_t)
                    slopes.append((rec_y - y) / (t - rec_t))
                rec_t, rec_y = t, y
            else:
                t += 1
            it += 1
    if not gaps:
        lo = config.window_center - config.window_halfwidth
        hi = config.window_center + config.window_halfwidth
        raise ValueError(f"no record of {n} trajectories fell in the slope window [{lo}, {hi}]")

    # pass 3: record counts at the short and long horizons
    pmf_j = config.pmf_length
    curve_j = config.curve_length
    pmf_counts = np.zeros(pmf_j + 1)
    curve_counts = np.empty(n)
    for i in range(n):
        stream = _UniformStream(_trajectory_rng(config.seed + 2, i))
        y = inv(stream.next() ** inv_lam)
        recs = 1
        for step in range(1, curve_j):
            py = p(y)
            if stream.next() < py**alpha:
                y = inv(py * stream.next() ** inv_lam)
                recs += 1
            if step == pmf_j - 1:
                pmf_counts[min(recs, pmf_j)] += 1
        curve_counts[i] = recs

    report = ValidationReport(config=config)
    report.checks.append(_result("poisson_mean_records", float(np.mean(counts)), poi, 0.02))
    report.checks.append(_result("poisson_variance_records", float(np.var(counts)), poi, 0.05))
    report.checks.append(
        _result(
            "third_record_survival",
            float(np.mean(third_above)),
            incomplete_gamma_g(3, poi),
            0.01,
            relative=False,
        )
    )
    report.checks.append(
        _result("inter_record_time_mean", float(np.mean(gaps)), q_mid ** (-alpha), 0.03)
    )
    pmf_dev = float(
        max(abs(pmf_counts[k] / n - record_count_pmf(pmf_j, k, zeta)) for k in range(1, pmf_j + 1))
    )
    report.checks.append(
        CheckResult(
            "record_count_pmf_short_horizon",
            pmf_dev,
            0.0,
            0.01,
            False,
            bool(pmf_dev <= 0.01),
        )
    )
    report.checks.append(
        _result(
            "expected_records_long_horizon",
            float(np.mean(curve_counts)),
            expected_records(curve_j, zeta),
            0.02,
        )
    )
    slope_mean = float(np.mean(slopes))
    report.checks.append(
        _result("conditional_slope_mean", slope_mean, alpha * q_mid**alpha / lam, 0.05)
    )
    report.checks.append(
        _result(
            "conditional_slope_mean_exact",
            slope_mean,
            mean_improvement(model, config.window_center, lam) * mean_reciprocal_wait(q_mid**alpha),
            0.05,
        )
    )
    return report
