"""Reference implementations the tests compare the program against.

Not a test module: pytest does not collect it, and the tests import it by
name.

* :func:`expected_records_curve`, :func:`zeta_equation` and
  :func:`n_record_threshold` are the digamma forms of the expected
  record count, of the zeta score and of the record-overdue rule, which
  the program evaluates from running sums instead; they take digamma
  from mpmath at 30 digits, set locally, so no other module's mpmath
  precision changes them;
* :func:`incomplete_gamma_g` is ``G(n, x)`` one order at a time, each
  Poisson term in closed form, the form that
  :func:`recordstart.special.p_fail_histogram` takes only where its ratio
  recursion leaves the normal floats;
* :func:`inner_loop` is the drivers' restart loop with the overdue sum
  brought up to date on every iterate and the slope computed on every
  record, which :func:`recordstart.multistart.inner_loop` reproduces bit
  for bit;
* :func:`per_iterate_values` simulates HASPLID one iterate at a time, the
  brute-force counterpart of the event-driven kernel
  :func:`recordstart.hasplid.record_chain`, and :func:`extract_records`
  flags the records of its trajectories;
* :func:`lab_statistics` recounts every statistic of
  :func:`recordstart.hasplid.validate_statistics` one trajectory at a
  time from its records, with no trajectory ever leaving the count.
* :func:`excl_one` and :func:`excl_two` are the loop forms of the
  exclusion products that the sinusoid derivatives vectorize, and
  :func:`sinusoid_value`, :func:`sinusoid_gradient` and
  :func:`sinusoid_hessian` evaluate a sinusoid one sine family at a time
  from them, the forms that the stacked kernels of
  :mod:`recordstart.objectives` reproduce bit for bit;
* :data:`ANALYTIC_VALUE_GRADIENT` holds the one-point values and
  gradients of the four analytic objectives, with every power above 2
  taken as Python floats take it (the C library's ``pow``), and
  :data:`ANALYTIC_HVP` their per-call Hessian-vector products
  ``hvp(x, v)``, each evaluated from scratch; the kernels of
  :mod:`recordstart.objectives` reproduce them bit for bit, on every row
  of a block;
* :func:`init`, :func:`step` and :func:`direction` are the Newton-CG
  engine one point at a time, with ``np.linalg.norm``, 1-d dot products
  and an out-of-place conjugate-direction update: every row of the block
  engine :mod:`recordstart.newton_cg` reproduces them bit for bit, its
  counts included.

:func:`tally_of` and the ``run_histories`` and ``recorded_histories``
strategies build the run statistics that the record-statistics tests
share, and :func:`history_rows` lays a run's evaluations out as the
rows of ``history.csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import strategies as st

from recordstart import hasplid
from recordstart.multistart import RECORD_TOL
from recordstart.newton_cg import ARMIJO_C, G_TOL, MAX_BACKTRACKS, SADDLE_STEP_FRACTION
from recordstart.objectives import Oracle
from recordstart.special import RunStats, RunTally, expected_slope, record_count_pmf

# completed-run histories: 1 to 40 runs of 1 to 80 iterates each
run_histories = st.lists(
    st.integers(min_value=1, max_value=80).flatmap(
        lambda j: st.builds(RunStats, st.integers(min_value=1, max_value=j), st.just(j))
    ),
    min_size=1,
    max_size=40,
)
# the histories whose zeta MLE exists: some run holds a record past its start
recorded_histories = run_histories.filter(lambda h: any(s.records > 1 for s in h))


def history_rows(report) -> list[tuple[float, bool, int]]:
    """``(f_value, is_record, restart_index)`` of every evaluation of a
    ``RunReport``, in order: restart ``r`` holds the next
    ``run_stats[r - 1].iterates`` values and record flags."""
    restart_index = [r for r, stats in enumerate(report.run_stats, start=1) for _ in range(stats.iterates)]
    assert len(report.values) == len(report.records) == len(restart_index)
    return list(zip(report.values, report.records, restart_index))


def tally_of(history: list[RunStats]) -> RunTally:
    """The running statistics of ``history``, added in order."""
    tally = RunTally()
    for run in history:
        tally.add(run)
    return tally


def inner_loop(values, rejected: bool, params, zeta: float, budget: float):
    """:func:`recordstart.multistart.inner_loop` one iterate at a time: the
    expected record count is summed on every iterate and checked before
    every step, and the slope is computed on every record."""
    overdue = params.algorithm != "ncg"
    use_slope = params.algorithm == "rdmss"
    j, k = 1, 1
    expected = 1.0  # special.expected_records(j, zeta), one term per iterate
    best = values[0]
    best_t = 1
    flags = [True]
    while j < budget and not (overdue and j >= 2 and expected >= k):
        if j == len(values):
            return RunStats(records=k, iterates=j), flags, j - 1 + rejected
        fn = values[j]
        expected += zeta / (j + zeta)
        j += 1
        is_record = fn < best - RECORD_TOL
        flags.append(is_record)
        if is_record:
            k += 1
            slope = (best - fn) / (j - best_t)
            prev_value = best
            best, best_t = fn, j
            if use_slope and slope < expected_slope(prev_value, params.alpha, zeta, params.ptilde_scale):
                break
    return RunStats(records=k, iterates=j), flags, j - 1


def expected_records_curve(j: float, zeta: float) -> float:
    """Expected number of records in the first ``j`` iterates,
    ``zeta*(psi(j+zeta) - psi(zeta))``, continuous in ``j``: the digamma
    form of :func:`recordstart.special.expected_records`."""
    with mpmath.workdps(30):
        return float(zeta * (mpmath.digamma(j + zeta) - mpmath.digamma(zeta)))


def zeta_equation(zeta: float, history: list[RunStats]) -> float:
    """Likelihood score whose root is the record-rate ratio estimate:
    ``sum_r (k_r - 1) + zeta * (R*psi(1+zeta) - sum_r psi(j_r+zeta))``.

    The digamma form of :func:`recordstart.special.zeta_score`.
    """
    with mpmath.workdps(30):
        psi_sum = mpmath.fsum(mpmath.digamma(run.iterates + zeta) for run in history)
        score = sum(run.records - 1 for run in history) + zeta * (len(history) * mpmath.digamma(1 + zeta) - psi_sum)
        return float(score)


def n_record_threshold(records_so_far: int, zeta: float) -> float:
    """Iterate count at which the next record is overdue.

    Continuous root ``j*`` of ``zeta*(psi(j+zeta) - psi(zeta)) =
    records_so_far + 1``: the expected-records curve reaches one more
    record than currently held.  Strictly increasing in records_so_far.
    The drivers' running expected-records sum reproduces this test
    without a bisection per iterate.
    """
    if records_so_far < 0:
        raise ValueError("records_so_far must be nonnegative")
    target = records_so_far + 1
    if target == 1:  # the curve starts at 1
        return 1.0
    with mpmath.workdps(30):
        psi_zeta = mpmath.digamma(zeta)

        def below(j: float) -> bool:
            return zeta * (mpmath.digamma(j + zeta) - psi_zeta) < target

        lo, hi = 1.0, 2.0
        while below(hi):
            lo = hi
            hi *= 2.0
            if hi > 1e18:
                return hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if below(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * hi:
                break
    return 0.5 * (lo + hi)


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
    log_x = math.log(x)
    acc = 0.0  # left to right, each term in closed form
    for s in range(n):
        acc += math.exp(s * log_x - x - math.lgamma(s + 1))
    return max(0.0, 1.0 - acc)


def per_iterate_values(alpha: float, lam: float, n: int, horizon: int, rng) -> np.ndarray:
    """Levels of ``n`` HASPLID trajectories under the uniform range model
    at iterates ``0 .. horizon-1``, shape ``(horizon, n)``, simulated one
    iterate at a time.

    The initial level is ``U**(1/lam)``.  At every later iterate one
    uniform decides whether the trajectory improves, with probability
    ``y**alpha`` at its current level ``y``; an improving trajectory moves
    to ``y * U**(1/lam)``, which has conditional CDF ``(t/y)**lam``, and
    the others repeat ``y``.
    """
    inv_lam = 1.0 / lam
    values = np.empty((horizon, n))
    y = values[0] = rng.random(n) ** inv_lam
    for t in range(1, horizon):
        improve = rng.random(n) < y**alpha
        y = values[t] = np.where(improve, y * rng.random(n) ** inv_lam, y)
    return values


def extract_records(values: np.ndarray) -> np.ndarray:
    """Record flags of per-iterate values (axis 0 is the iterate): the
    first value and every strict improvement of the running best."""
    values = np.asarray(values, dtype=float)
    flags = np.ones(values.shape, dtype=bool)
    flags[1:] = values[1:] < np.minimum.accumulate(values, axis=0)[:-1]
    return flags


def lab_statistics(levels, times, zeta: float) -> dict:
    """The statistic of every check of ``validate_statistics``, by name,
    recounted from ``levels[j]`` and ``times[j]``, trajectory ``j``'s
    records in order, all of them counted.

    The record-count moments are exact fractions, rounded once, and the
    slopes are averaged in the lab's order: by record, then by trajectory.
    """
    lo = hasplid.WINDOW_CENTER - hasplid.WINDOW_HALFWIDTH
    hi = hasplid.WINDOW_CENTER + hasplid.WINDOW_HALFWIDTH
    n = len(levels)
    above, short, long, third_above, window = [], [], [], [], []
    for j, (y, t) in enumerate(zip(levels, times)):
        above.append(sum(1 for level in y if level > hasplid.TARGET_LEVEL))
        short.append(sum(1 for time in t if time < hasplid.PMF_LENGTH))
        long.append(sum(1 for time in t if time < hasplid.CURVE_LENGTH))
        third_above.append(y[2] > hasplid.TARGET_LEVEL)
        for r in range(len(y) - 1):
            if lo <= y[r] <= hi:
                gap = t[r + 1] - t[r]
                window.append((r, j, gap, (y[r] - y[r + 1]) / gap))
    window.sort()
    mean = Fraction(sum(above), n)
    slope_mean = float(np.mean([w[3] for w in window]))
    pmf = (abs(short.count(k) / n - record_count_pmf(hasplid.PMF_LENGTH, k, zeta)) for k in range(1, hasplid.PMF_LENGTH + 1))
    return {
        "poisson_mean_records": float(mean),
        "poisson_variance_records": float(sum((c - mean) ** 2 for c in above) / n),
        "third_record_survival": sum(third_above) / n,
        "inter_record_time_mean": float(np.mean([w[2] for w in window])),
        "record_count_pmf_short_horizon": max(pmf),
        "expected_records_long_horizon": sum(long) / n,
        "conditional_slope_mean": slope_mean,
        "conditional_slope_mean_exact": slope_mean,
    }


def excl_one(t: np.ndarray) -> np.ndarray:
    """prod_{i != k} t_i for every k: prefix times suffix products,
    accumulated one coordinate at a time."""
    d = len(t)
    pre = np.ones(d)
    suf = np.ones(d)
    for i in range(1, d):
        pre[i] = pre[i - 1] * t[i - 1]
        suf[d - 1 - i] = suf[d - i] * t[d - i]
    return pre * suf


def excl_two(t: np.ndarray) -> np.ndarray:
    """Matrix of prod_{i not in {k, l}} t_i, zero on the diagonal: row k
    holds :func:`excl_one` of ``t`` without ``t_k``."""
    d = len(t)
    out = np.zeros((d, d))
    for k in range(d):
        e = excl_one(np.delete(t, k))
        out[k, :k] = e[:k]
        out[k, k + 1 :] = e[k:]
    return out


def sinusoid_trig(x: np.ndarray, shift: float):
    """``sin u, cos u, sin 5u, cos 5u`` with ``u`` = ``x + shift`` in
    degrees, the terms of ``-2.5 prod sin(u) - prod sin(5u)``."""
    u = math.pi / 180.0 * (x + shift)
    return np.sin(u), np.cos(u), np.sin(5.0 * u), np.cos(5.0 * u)


def sinusoid_value(x: np.ndarray, shift: float) -> float:
    """``-2.5 prod sin(u) - prod sin(5u)``, one family at a time."""
    s, _, s5, _ = sinusoid_trig(x, shift)
    return float(-2.5 * np.prod(s) - np.prod(s5))


def sinusoid_gradient(x: np.ndarray, shift: float) -> np.ndarray:
    """Gradient of :func:`sinusoid_value`, one family at a time, from the
    loop exclusion products."""
    a, b, deg = 2.5, 5.0, math.pi / 180.0
    s, c, s5, c5 = sinusoid_trig(x, shift)
    return -a * deg * c * excl_one(s) - b * deg * c5 * excl_one(s5)


def sinusoid_hessian(x: np.ndarray, shift: float) -> np.ndarray:
    """Hessian of :func:`sinusoid_value`, one family at a time, from the
    loop exclusion products."""
    a, b, deg = 2.5, 5.0, math.pi / 180.0
    s, c, s5, c5 = sinusoid_trig(x, shift)
    h = -a * deg**2 * np.outer(c, c) * excl_two(s) - b**2 * deg**2 * np.outer(c5, c5) * excl_two(s5)
    np.fill_diagonal(h, a * deg**2 * s * excl_one(s) + b**2 * deg**2 * s5 * excl_one(s5))
    return h


def zakharov_value(x: np.ndarray) -> float:
    w = 0.5 * np.arange(1, len(x) + 1, dtype=float)
    q = float(w @ x)
    return float(x @ x) + q * q + q**4


def zakharov_gradient(x: np.ndarray) -> np.ndarray:
    w = 0.5 * np.arange(1, len(x) + 1, dtype=float)
    q = float(w @ x)
    return 2.0 * x + (2.0 * q + 4.0 * q**3) * w


def rosenbrock_value(x: np.ndarray) -> float:
    return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2).sum())


def rosenbrock_gradient(x: np.ndarray) -> np.ndarray:
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) + 2.0 * (x[:-1] - 1.0)
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return g


def rhe_value(x: np.ndarray) -> float:
    w = np.arange(len(x), 0, -1, dtype=float)
    return float((w * x * x).sum())


def rhe_gradient(x: np.ndarray) -> np.ndarray:
    return 2.0 * np.arange(len(x), 0, -1, dtype=float) * x


def styblinski_tang_value(x: np.ndarray) -> float:
    # powers as Python floats take them (the C library's pow), summed in
    # the kernel's order
    x4 = np.array([v**4 for v in x.tolist()])
    return float(0.5 * (x4 - 16.0 * x**2 + 5.0 * x).sum())


def styblinski_tang_gradient(x: np.ndarray) -> np.ndarray:
    x3 = np.array([v**3 for v in x.tolist()])
    return 2.0 * x3 - 16.0 * x + 2.5


def zakharov_hvp(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    w = 0.5 * np.arange(1, len(x) + 1, dtype=float)
    q = float(w @ x)
    return 2.0 * v + (2.0 + 12.0 * q * q) * float(w @ v) * w


def rosenbrock_hvp(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    diag_lead = -400.0 * (x[1:] - x[:-1] ** 2) + 800.0 * x[:-1] ** 2 + 2.0
    out[:-1] += diag_lead * v[:-1] - 400.0 * x[:-1] * v[1:]
    out[1:] += -400.0 * x[:-1] * v[:-1] + 200.0 * v[1:]
    return out


def rhe_hvp(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    w = np.arange(len(x), 0, -1, dtype=float)
    return 2.0 * w * v


def styblinski_tang_hvp(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (6.0 * x**2 - 16.0) * v


ANALYTIC_VALUE_GRADIENT = {
    "zakharov": (zakharov_value, zakharov_gradient),
    "rosenbrock": (rosenbrock_value, rosenbrock_gradient),
    "rhe": (rhe_value, rhe_gradient),
    "styblinski_tang": (styblinski_tang_value, styblinski_tang_gradient),
}

ANALYTIC_HVP = {
    "zakharov": zakharov_hvp,
    "rosenbrock": rosenbrock_hvp,
    "rhe": rhe_hvp,
    "styblinski_tang": styblinski_tang_hvp,
}


def direction(state):
    """Search direction and the box-masked gradient of a Newton-CG
    state, or None at a fully pinned point."""
    spec = state.oracle.spec
    x, g = state.x, state.gx
    d = spec.dim
    span = spec.upper - spec.lower
    pin_tol = 1e-12 * span
    free = ~(((x <= spec.lower + pin_tol) & (g > 0)) | ((x >= spec.upper - pin_tol) & (g < 0)))
    gm = np.where(free, g, 0.0)
    gm_norm = np.linalg.norm(gm)
    if gm_norm == 0.0:
        return None
    hvp = state.oracle.hvp_at(x)
    p = np.zeros(d)
    r = gm.copy()
    pd = -r
    rr = float(r @ r)
    for i in range(d):
        if math.sqrt(rr) <= 1e-12 * max(1.0, gm_norm):
            break
        ap = np.where(free, hvp(pd), 0.0)
        curv = float(pd @ ap)
        if curv <= 0.0:
            if i == 0:
                p = -gm * (SADDLE_STEP_FRACTION * span * math.sqrt(d) / gm_norm)
            break
        a = rr / curv
        p += a * pd
        r += a * ap
        rr_new = float(r @ r)
        pd = -r + (rr_new / rr) * pd
        rr = rr_new
    if float(p @ gm) >= 0.0:
        p = -gm
    return p, gm


@dataclass
class ScalarState:
    """One engine row: its oracle (counts in slot 0), point, value,
    gradient, native-stop flag and engine steps."""

    oracle: Oracle
    x: np.ndarray
    fx: float
    gx: np.ndarray
    converged: bool
    steps: int = 0


def init(spec, x0) -> ScalarState:
    """Start one engine row at ``x0`` (clipped to the box): one f and one
    gradient evaluation."""
    oracle = Oracle(spec)
    x = np.clip(np.asarray(x0, dtype=float), spec.lower, spec.upper)
    fx = oracle.f(x)
    if not math.isfinite(fx):
        raise ValueError(f"{spec.name}: non-finite value at the start point")
    gx = oracle.grad(x)
    return ScalarState(oracle, x, fx, gx, math.sqrt(float(gx @ gx)) <= G_TOL)


def step(state: ScalarState) -> float | None:
    """One outer iteration: the new value on an accepted move, or None when
    the row terminates natively instead."""
    if state.converged:
        raise RuntimeError("step() on a converged engine")
    spec = state.oracle.spec
    state.steps += 1
    found = direction(state)
    if found is None:
        state.converged = True
        return None
    p, gm = found
    slope = float(gm @ p)
    t = 1.0
    for _ in range(MAX_BACKTRACKS):
        xn = np.minimum(np.maximum(state.x + t * p, spec.lower), spec.upper)
        fn = state.oracle.f(xn)
        if fn < state.fx and fn <= state.fx + ARMIJO_C * t * slope:
            state.x = xn
            state.fx = fn
            state.gx = state.oracle.grad(xn)
            state.converged = math.sqrt(float(state.gx @ state.gx)) <= G_TOL
            return fn
        t *= 0.5
    state.converged = True  # no strict decrease available: native stop
    return None
