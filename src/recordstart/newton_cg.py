"""Deterministic Newton conjugate-gradient descent on a box, stepping a
block of independent rows in lockstep.

The engine holds R rows, one restart each, as ``(R, d)`` arrays.  One
engine step = one outer Newton iteration on each row asked for: solve
``H p = -g`` approximately with conjugate gradients (at most ``dim``
iterations, which solves strictly convex quadratics exactly), backtrack an
Armijo line search along ``p``, clip the accepted point to the box.  The
step builds one Hessian operator for its rows (``Oracle.hvp_at``) and
applies it in every CG iteration; each application is one counted HVP for
every row still iterating.  ``descend`` steps a block to native
termination, or to a step cap per row, and returns every row's values
and f and HVP counts after each block step, so a caller can apply its
own termination rules to the known descents afterwards.

The line search tries the step sizes ``t = 1, 1/2, ..., 2**-29``
(``MAX_BACKTRACKS`` of them) and takes the first whose probe passes the
Armijo test with a strict decrease.  It evaluates them in the chunks of
``PROBE_CHUNKS``, each as one ``(L, k, d)`` block of the L rows still
searching (``Oracle.f`` with a ``stop`` test): ``t = 1``, then ``t =
1/2, 1/4``, which most searching rows pass, then the other 27.  Each row
takes its first pass and is charged the probes up to and including it,
or all 30, as a search one probe at a time would be; the probes past it
are computed and not charged.  A restart that stops at the float floor
ends with a search that rejects all 30, and a block step with such a row
takes three line-search oracle calls, not 30.

Every row takes the bits it would take alone, whatever the block holds:
rows never mix, every dot product is a stacked matmul (``objectives.dot``),
and a row that has left the CG solve or the line search is masked out of
every update.  A row leaves the CG solve on its residual test or at
non-positive curvature, and the line search when it accepts a probe or
runs out of backtracks; the others go on.  The oracle counts per row, so
the counts of a row are those of the same restart run alone.

Native termination is either a gradient norm at most ``G_TOL`` or a line
search that cannot produce a strict decrease (the floating-point floor at
a stationary value); both set the row's ``converged`` flag.

Direction handling away from the convex regime: coordinates pinned to the
box (within ``pin_tol``, 1e-12 of the box span, of a face) with an
outward gradient pull are frozen for the subproblem, and when the very
first CG iteration meets non-positive curvature the step falls back to the
gradient direction rescaled to a fixed fraction of the box diagonal (plain
``-g`` is metrically meaningless on landscapes whose curvature scale
differs wildly from unity, and crawls).  ``np.where`` returns its input's
bits on a row with nothing pinned, and a block with nothing pinned skips
the mask, as a CG iteration with every row still in the solve skips its
row masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveSpec, Oracle, dot

__all__ = ["G_TOL", "NcgState", "init", "step", "descend"]

G_TOL = 1e-8
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 30
SADDLE_STEP_FRACTION = 0.25
# the line search's probes per oracle round: t = 1 alone, t = 2**-1 and
# 2**-2, then every backtrack left, t = 2**-3 ... 2**-29, as one block
PROBE_CHUNKS = (1, 2, MAX_BACKTRACKS - 3)
_STEP_SIZES = np.ldexp(1.0, -np.arange(MAX_BACKTRACKS))


@dataclass
class NcgState:
    """R engine rows: points, values, gradients, native-stop flags and the
    engine steps (accepted or not) of each row's current restart.  The
    oracle holds the row's f and HVP counts."""

    oracle: Oracle
    x: np.ndarray
    fx: np.ndarray
    gx: np.ndarray
    converged: np.ndarray
    steps: np.ndarray


def init(spec: ObjectiveSpec, x0) -> NcgState:
    """An engine with one row per row of ``x0`` (shape ``(R, d)``, which
    the oracle checks), each started there (clipped to the box): one f and
    one gradient evaluation each."""
    x0 = np.asarray(x0, dtype=float)
    rows = np.arange(len(x0))
    oracle = Oracle(spec, len(x0))
    x = np.clip(x0, spec.lower, spec.upper)
    fx = oracle.f(x, rows)
    if not np.isfinite(fx).all():
        raise ValueError(f"{spec.name}: non-finite value at a start point")
    gx = oracle.grad(x, rows)
    return NcgState(oracle, x, fx, gx, np.sqrt(dot(gx, gx)) <= G_TOL, np.zeros(len(x0), int))


def _direction(oracle: Oracle, rows, x, g):
    """Search directions and box-masked gradients of the rows ``x``, ``g``
    (engine slots ``rows``), and which rows have one: a fully pinned row
    (zero masked gradient) has none."""
    spec = oracle.spec
    n, d = x.shape
    span = spec.upper - spec.lower
    pin_tol = 1e-12 * span
    pinned = ((x <= spec.lower + pin_tol) & (g > 0)) | ((x >= spec.upper - pin_tol) & (g < 0))
    # zero the pinned coordinates; np.where keeps the other bits, so with
    # nothing pinned the mask is skipped: that pays on the dimension
    # sweep's large blocks, which no benchmark workload has
    free = ~pinned if pinned.any() else None
    gm = g if free is None else np.where(free, g, 0.0)
    rr = dot(gm, gm)
    gm_norm = np.sqrt(rr)
    found = gm_norm != 0.0
    hvp = oracle.hvp_at(x)
    p = np.zeros((n, d))
    r = gm.copy()
    pd = -r
    tol = 1e-12 * np.fmax(1.0, gm_norm)
    act = found.copy()  # rows still in the CG solve
    a, term = np.zeros(n), np.empty((n, d))
    for i in range(d):
        act &= ~(np.sqrt(rr) <= tol)
        if not act.any():
            break
        ap = hvp(pd, rows[act])
        if free is not None:
            ap = np.where(free, ap, 0.0)
        curv = dot(pd, ap)
        flat = act & (curv <= 0.0)
        if flat.any():
            if i == 0:
                scale = SADDLE_STEP_FRACTION * span * math.sqrt(d) / gm_norm[flat]
                p[flat] = -gm[flat] * scale[:, None]
            act &= ~flat
        # a masked ufunc costs about three unmasked ones; while every row
        # is in the solve, where=True updates them all, with the same bits
        row_on, on = (True, True) if act.all() else (act, act[:, None])
        np.divide(rr, curv, out=a, where=row_on)
        np.multiply(a[:, None], pd, out=term, where=on)
        np.add(p, term, out=p, where=on)
        np.multiply(a[:, None], ap, out=term, where=on)
        np.add(r, term, out=r, where=on)
        rr_new = dot(r, r)
        np.divide(rr_new, rr, out=a, where=row_on)
        np.multiply(pd, a[:, None], out=pd, where=on)
        np.subtract(pd, r, out=pd, where=on)
        np.copyto(rr, rr_new, where=row_on)
    uphill = dot(p, gm) >= 0.0
    if uphill.any():
        p[uphill] = -gm[uphill]
    return p, gm, found


def step(state: NcgState, rows) -> np.ndarray:
    """One outer iteration on each of ``rows`` (an int array of engine
    slots, none of them converged).  Returns which rows accepted a move;
    the others have terminated natively."""
    if state.converged[rows].any():
        raise RuntimeError("step() on a converged engine row")
    oracle = state.oracle
    spec = oracle.spec
    state.steps[rows] += 1
    x, fx = state.x[rows], state.fx[rows]
    p, gm, found = _direction(oracle, rows, x, state.gx[rows])
    slope = dot(gm, p)
    accepted = np.zeros(len(rows), bool)
    x_new, f_new = np.empty(x.shape), np.empty(len(rows))
    # the rows still searching, and their points, directions, values and
    # slopes, each with a probe axis
    live = np.flatnonzero(found)
    xs, ps, fs, ss = x[live, None], p[live, None], fx[live, None], slope[live, None]
    done = 0
    for k in PROBE_CHUNKS:
        if not live.size:
            break
        t = _STEP_SIZES[done : done + k]
        done += k
        # (live rows, k probes, d), and the Armijo test of each probe
        xn = np.minimum(np.maximum(xs + t[:, None] * ps, spec.lower), spec.upper)
        bound = fs + (ARMIJO_C * t) * ss
        fn, first = oracle.f(xn, rows[live], lambda fn: (fn < fs) & (fn <= bound))
        ok = first < k
        if ok.any():
            hit, at = live[ok], first[ok]
            accepted[hit] = True
            x_new[hit], f_new[hit] = xn[ok, at], fn[ok, at]
            if ok.all():
                break
            keep = ~ok
            live, xs, ps, fs, ss = live[keep], xs[keep], ps[keep], fs[keep], ss[keep]
    # no strict decrease available (or nothing free to move): native stop
    state.converged[rows[~accepted]] = True
    moved = rows[accepted]
    if moved.size:
        x_new = x_new[accepted]
        g_new = oracle.grad(x_new, moved)
        state.x[moved] = x_new
        state.fx[moved] = f_new[accepted]
        state.gx[moved] = g_new
        state.converged[moved] = np.sqrt(dot(g_new, g_new)) <= G_TOL
    return accepted


def descend(spec: ObjectiveSpec, x0, max_steps) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Descend from every row of ``x0`` as one block until each row has
    terminated natively or taken ``max_steps`` (per row) steps.

    Returns the values ``(S + 1, R)`` and the f and HVP counts ``(S + 1,
    R, 2)`` of every row after :func:`init` and after each of
    the ``S`` block steps, and per row its accepted steps and whether its
    last step was rejected (a native stop in the line search).  Every row
    steps in every block step until it stops, so its s-th step is block
    step s: a row with ``a`` accepted steps has the values ``fx[:a + 1,
    row]``, and its counts after its s-th step are ``counts[s, row]``,
    which is why no step count is stacked."""
    state = init(spec, x0)
    oracle = state.oracle
    max_steps = np.asarray(max_steps)
    rejected = np.zeros(len(max_steps), bool)
    fx, counts = [], []
    while True:
        fx.append(state.fx.copy())
        counts.append(np.stack((oracle.f_evals, oracle.hvp_evals), 1))
        rows = np.flatnonzero(~state.converged & (state.steps < max_steps))
        if not rows.size:
            return np.stack(fx), np.stack(counts), state.steps - rejected, rejected
        rejected[rows[~step(state, rows)]] = True
