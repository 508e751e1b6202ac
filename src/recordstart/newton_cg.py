"""Deterministic Newton conjugate-gradient descent on a box.

One engine step = one outer Newton iteration: solve ``H p = -g``
approximately with conjugate gradients (at most ``dim`` iterations, which
solves strictly convex quadratics exactly), backtrack an Armijo line
search along ``p``, clip the accepted point to the box.  The step builds
one Hessian operator at its point (``Oracle.hvp_at``) and applies it in
every CG iteration; each application is one counted HVP.  The engine is
exposed step-by-step so a surrounding loop can interleave its own
termination rules between iterations.

The CG loop updates its conjugate direction in place and takes norms as
``sqrt(v @ v)``: the bits of ``-r + beta * pd`` and ``np.linalg.norm`` in
fewer numpy calls, whose fixed cost dominates the step at small d.

Native termination is either a gradient norm at most ``G_TOL`` or a line
search that cannot produce a strict decrease (the floating-point floor at
a stationary value); both set ``converged``.

Direction handling away from the convex regime: coordinates pinned to the
box with an outward gradient pull are frozen for the subproblem, and when
the very first CG iteration meets non-positive curvature the step falls
back to the gradient direction rescaled to a fixed fraction of the box
diagonal (plain ``-g`` is metrically meaningless on landscapes whose
curvature scale differs wildly from unity, and crawls).

A coordinate can be pinned only within ``pin_tol`` (1e-12 of the box
span) of a face.  Most steps start farther than that from every face,
which two reductions (``x.min()``, ``x.max()``) establish; such a step
takes the gradient as it is and applies the Hessian unmasked, because
the mask would be all true and ``np.where`` would return its input's
bits.  Only a step near a face builds the mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveSpec, Oracle

__all__ = ["G_TOL", "NcgState", "init", "step"]

G_TOL = 1e-8
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 30
SADDLE_STEP_FRACTION = 0.25


@dataclass
class NcgState:
    oracle: Oracle
    x: np.ndarray
    fx: float
    gx: np.ndarray
    converged: bool


def init(spec: ObjectiveSpec, x0, oracle: Oracle | None = None) -> NcgState:
    """Start an engine at ``x0`` (clipped to the box): one f and one
    gradient evaluation."""
    oracle = oracle if oracle is not None else Oracle(spec)
    x = np.clip(np.asarray(x0, dtype=float), spec.lower, spec.upper)
    fx = oracle.f(x)
    if not math.isfinite(fx):
        raise ValueError(f"{spec.name}: non-finite value at the start point")
    gx = oracle.grad(x)
    return NcgState(
        oracle=oracle,
        x=x,
        fx=fx,
        gx=gx,
        converged=math.sqrt(float(gx @ gx)) <= G_TOL,
    )


def _direction(state: NcgState):
    """Search direction and the box-masked gradient, or None at a
    fully pinned point."""
    spec = state.oracle.spec
    x, g = state.x, state.gx
    d = spec.dim
    span = spec.upper - spec.lower
    pin_tol = 1e-12 * span
    lo, hi = spec.lower + pin_tol, spec.upper - pin_tol
    if lo < x.min() and x.max() < hi:
        free = None  # strictly inside: nothing can be pinned
        gm = g
    else:
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        gm = np.where(free, g, 0.0)
    gm_norm = math.sqrt(float(gm @ gm))
    if gm_norm == 0.0:
        return None
    hvp = state.oracle.hvp_at(x)
    p = np.zeros(d)
    r = gm.copy()
    pd = -r
    rr = float(r @ r)
    tol = 1e-12 * max(1.0, gm_norm)
    for i in range(d):
        if math.sqrt(rr) <= tol:
            break
        ap = hvp(pd) if free is None else np.where(free, hvp(pd), 0.0)
        curv = float(pd @ ap)
        if curv <= 0.0:
            if i == 0:
                p = -gm * (SADDLE_STEP_FRACTION * span * math.sqrt(d) / gm_norm)
            break
        a = rr / curv
        p += a * pd
        r += a * ap
        rr_new = float(r @ r)
        pd *= rr_new / rr
        pd -= r
        rr = rr_new
    if float(p @ gm) >= 0.0:
        p = -gm
    return p, gm


def step(state: NcgState) -> float | None:
    """One outer iteration.  Returns the new value on an accepted move,
    or None when the engine terminates natively instead."""
    if state.converged:
        raise RuntimeError("step() on a converged engine")
    spec = state.oracle.spec
    found = _direction(state)
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

