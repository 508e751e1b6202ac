"""Benchmark objectives with analytic derivatives, box domains and known
minima.

All six functions are smooth on their boxes and expose the exact gradient
and, per point, the exact Hessian as an operator ``v -> Hv``: the Newton-CG
inner search builds one per Newton step and applies it in every CG
iteration.  The build does the work that depends on the point alone, so an
application costs only the products with ``v``, with the bits of a closed
form ``hvp(x, v)`` evaluated from scratch.  The two sinusoidal
products interpret their arguments in degrees; that is the convention under
which the stated minimizers (all coordinates 30, resp. 0) attain the stated
minimum -3.5.

Every kernel works over the last axis of a block of engine rows ``(R,
d)``, and each row takes the bits it takes in a block of one.  That holds
because rows never mix and because of two rules: every dot product and
matrix-vector product is a stacked matmul (:func:`dot`, ``H @ v[...,
None]``), whose rows round as the 1-d products do where ``einsum`` or
``(a * b).sum(-1)`` may not; and every power above 2 is the C library's
``pow`` through ``np.float_power``, elementwise, so a row keeps its bits
alone and on any SIMD level (numpy's vectorized ``power`` follows the
CPU's dispatch and may differ in the last bit).  Squares stay ``x**2``,
numpy's exact square.

Each sinusoid sums a ``sin u`` and a ``sin 5u`` product.  Its kernels stack
the two families as the rows of one (..., 2, d) angle array, so that every
numpy call serves both, and combine the rows only at the end; each row
multiplies in the order of its family written out alone, so the values
keep those bits.

:class:`Oracle` is the one counted path to an objective.  It takes blocks
only and keeps its counts per engine row, so a block of restarts is
counted as each restart alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "ObjectiveSpec",
    "Oracle",
    "OBJECTIVE_IDS",
    "dot",
    "make",
    "sample_uniform",
]

_DEG = math.pi / 180.0


@dataclass(frozen=True)
class ObjectiveSpec:
    name: str
    dim: int
    lower: float
    upper: float
    f_star: float
    x_star: np.ndarray
    _f: callable
    _grad: callable
    _hvp_at: callable


def dot(a: np.ndarray, b: np.ndarray):
    """``a_r @ b_r`` for every row ``r`` of the leading axes, as a stacked
    matmul: each row takes the bits of the 1-d product, where ``einsum``
    and ``(a * b).sum(-1)`` may round differently."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _check_dim(spec: ObjectiveSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.dim:
        raise ValueError(f"{spec.name}: point has shape {x.shape}, expected (rows, {spec.dim})")
    return x


class Oracle:
    """Counted, shape-checked view of one objective: the only way to
    evaluate it.

    It takes blocks of rows ``(R, d)``, each row's slot named in ``rows``,
    and keeps one f and one HVP count per slot, ``slots`` of them: ``f``
    charges one per row.  A probe block (``f`` with ``stop``) holds K
    points per slot, is evaluated whole, and then charges each slot the
    points a scan in order would evaluate: up to and including the first
    that passes ``stop``, or all K.  ``grad`` counts nothing, as a
    restart's gradients are its iterates, its start point's and its
    accepted steps'.  A rejected call is not counted."""

    def __init__(self, spec: ObjectiveSpec, slots: int):
        self.spec = spec
        self.f_evals = np.zeros(slots, dtype=int)
        self.hvp_evals = np.zeros(slots, dtype=int)

    def _block(self, x, rows) -> np.ndarray:
        x = _check_dim(self.spec, x)
        if np.shape(rows) != x.shape[:1]:
            raise ValueError(f"{self.spec.name}: rows {np.shape(rows)} for a block of shape {x.shape}")
        return x

    def f(self, x, rows, stop=None) -> np.ndarray:
        """The ``(R,)`` values of the rows of ``x``.

        With ``stop``, ``x`` is a probe block of shape ``(L, K, d)``, K
        points for each of the L slots ``rows``.  Returns the ``(L, K)``
        values and the index of each row's first value that passes ``stop``
        (a map from the values to a boolean mask of their shape; K where
        none passes).  Each slot is charged what a scan of its points in
        order evaluates: up to and including its first pass, or all K.  The
        values past that are computed and not charged."""
        if stop is None:
            x = self._block(x, rows)
            self.f_evals[rows] += 1
            return self.spec._f(x)
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or np.shape(rows) != x.shape[:1]:
            raise ValueError(f"{self.spec.name}: rows {np.shape(rows)} for a probe block of shape {x.shape}")
        n = x.shape[1]
        fx = self.spec._f(_check_dim(self.spec, x.reshape(-1, x.shape[-1]))).reshape(x.shape[:2])
        passed = stop(fx)
        first = np.where(passed.any(1), passed.argmax(1), n)
        self.f_evals[rows] += np.minimum(first + 1, n)
        return fx, first

    def grad(self, x, rows) -> np.ndarray:
        return self.spec._grad(self._block(x, rows))

    def hvp_at(self, x):
        """The Hessian at each row of ``x`` as ``(v, rows) -> Hv``, for a
        ``v`` of the shape of ``x``; :meth:`hvp` counts each use."""
        x = _check_dim(self.spec, x)
        return partial(self.hvp, self.spec._hvp_at(x), x.shape)

    def hvp(self, op, shape, v, rows) -> np.ndarray:
        """Applications of an operator from :meth:`hvp_at` at a point block
        of ``shape``, one counted for each slot in ``rows``.  ``v`` has that
        shape; rows that are not charged (a CG solve that has stopped on
        them) are computed and ignored by the caller."""
        if np.shape(v) != shape:
            raise ValueError(f"{self.spec.name}: vector has shape {np.shape(v)}, expected {shape}")
        self.hvp_evals[rows] += 1
        return op(np.asarray(v, dtype=float))


def sample_uniform(spec: ObjectiveSpec, rng, n: int) -> np.ndarray:
    """``n`` uniform draws over the box, one per row, from one generator
    call: the rows that ``n`` calls for one draw would give."""
    return spec.lower + (spec.upper - spec.lower) * rng.random((n, spec.dim))


# ---------------------------------------------------------------------------
# function definitions: every kernel works over the last axis of a block
# (R, d)
# ---------------------------------------------------------------------------


def _zakharov(d: int) -> ObjectiveSpec:
    w = 0.5 * np.arange(1, d + 1, dtype=float)

    def f(x):
        q = dot(x, w)
        return dot(x, x) + q * q + np.float_power(q, 4)

    def grad(x):
        q = dot(x, w)
        return 2.0 * x + (2.0 * q + 4.0 * np.float_power(q, 3))[..., None] * w

    def hvp_at(x):
        q = dot(x, w)
        curv = 2.0 + 12.0 * q * q
        return lambda v: 2.0 * v + (curv * dot(v, w))[..., None] * w

    return ObjectiveSpec("zakharov", d, -5.0, 10.0, 0.0, np.zeros(d), f, grad, hvp_at)


def _rosenbrock(d: int) -> ObjectiveSpec:
    # terms run over consecutive coordinate pairs (d-1 terms)
    def f(x):
        head, tail = x[..., :-1], x[..., 1:]
        return (100.0 * (tail - head**2) ** 2 + (head - 1.0) ** 2).sum(-1)

    def grad(x):
        head, tail = x[..., :-1], x[..., 1:]
        g = np.zeros_like(x)
        g[..., :-1] = -400.0 * head * (tail - head**2) + 2.0 * (head - 1.0)
        g[..., 1:] += 200.0 * (tail - head**2)
        return g

    def hvp_at(x):
        head, tail = x[..., :-1], x[..., 1:]
        diag_lead = -400.0 * (tail - head**2) + 800.0 * head**2 + 2.0
        up, down = 400.0 * head, -400.0 * head

        def hvp(v):
            out = np.zeros(v.shape)  # zeros plus the terms: an entry of -0.0 comes out +0.0
            out[..., :-1] += diag_lead * v[..., :-1] - up * v[..., 1:]
            out[..., 1:] += down * v[..., :-1] + 200.0 * v[..., 1:]
            return out

        return hvp

    return ObjectiveSpec("rosenbrock", d, -2.048, 2.048, 0.0, np.ones(d), f, grad, hvp_at)


def _rhe(d: int) -> ObjectiveSpec:
    # sum_{i} sum_{j<=i} x_j^2  ==  sum_j (d-j+1) x_j^2
    w = np.arange(d, 0, -1, dtype=float)
    w2 = 2.0 * w

    def f(x):
        return (w * x * x).sum(-1)

    def grad(x):
        return 2.0 * w * x

    def hvp_at(x):
        return lambda v: w2 * v

    return ObjectiveSpec("rhe", d, -65.536, 65.536, 0.0, np.zeros(d), f, grad, hvp_at)


def _st_minimum() -> tuple[float, float]:
    # per-coordinate stationary point of (x^4 - 16 x^2 + 5 x)/2 near -2.9;
    # the widely quoted -39.16599 rounds the true value per coordinate
    x = -2.9
    for _ in range(60):
        x -= (2.0 * x**3 - 16.0 * x + 2.5) / (6.0 * x**2 - 16.0)
    return x, 0.5 * (x**4 - 16.0 * x**2 + 5.0 * x)


_ST_XMIN, _ST_FMIN = _st_minimum()


def _styblinski_tang(d: int) -> ObjectiveSpec:
    def f(x):
        return 0.5 * (np.float_power(x, 4) - 16.0 * x**2 + 5.0 * x).sum(-1)

    def grad(x):
        return 2.0 * np.float_power(x, 3) - 16.0 * x + 2.5

    def hvp_at(x):
        curv = 6.0 * x**2 - 16.0
        return lambda v: curv * v

    return ObjectiveSpec(
        "styblinski_tang", d, -5.0, 5.0, _ST_FMIN * d, np.full(d, _ST_XMIN), f, grad, hvp_at
    )


def _excl_one(t: np.ndarray) -> np.ndarray:
    """prod_{i != k} t_i for every k along the last axis, division-free
    (zero-safe): prefix times suffix products, each accumulated one factor
    at a time."""
    pre, suf = np.empty(t.shape), np.empty(t.shape)
    pre[..., 0] = suf[..., -1] = 1.0
    t[..., :-1].cumprod(-1, out=pre[..., 1:])
    t[..., :0:-1].cumprod(-1, out=suf[..., -2::-1])
    pre *= suf
    return pre


def _sinusoidal(name: str, d: int, shift: float, x_star_coord: float) -> ObjectiveSpec:
    # row 0 holds the sin(u) family, row 1 the sin(5u) family
    A, B = 2.5, 5.0
    rate = np.array([[1.0], [B]])
    g_coef = np.array([[-A * _DEG], [B * _DEG]])
    h_coef = np.array([-A * _DEG**2, B**2 * _DEG**2]).reshape(2, 1, 1)
    d_coef = np.array([[A * _DEG**2], [B**2 * _DEG**2]])
    off = tuple(i.reshape(d, d - 1) for i in np.nonzero(~np.eye(d, dtype=bool)))
    diag = np.diag_indices(d)

    def angles(x):
        return (_DEG * (x + shift))[..., None, :] * rate

    def f(x):
        p = np.sin(angles(x)).prod(-1)
        return -A * p[..., 0] - p[..., 1]

    def grad(x):
        u = angles(x)
        t = g_coef * np.cos(u)
        t *= _excl_one(np.sin(u))
        return t[..., 0, :] - t[..., 1, :]

    def hvp_at(x):
        u = angles(x)
        s, c = np.sin(u), np.cos(u)
        # off-diagonal entries (k, l) in rows of d - 1: c_k c_l times the
        # product of s_i over i not in {k, l}
        t = c[..., :, None] * c[..., off[1]]
        t *= h_coef
        t *= _excl_one(s[..., off[1]])
        dg = d_coef * s
        dg *= _excl_one(s)
        h = np.empty(x.shape + (d,))
        h[..., off[0], off[1]] = t[..., 0, :, :] - t[..., 1, :, :]
        h[..., diag[0], diag[1]] = dg[..., 0, :] + dg[..., 1, :]
        return lambda v: (h @ v[..., None])[..., 0]

    return ObjectiveSpec(name, d, -90.0, 90.0, -3.5, np.full(d, x_star_coord), f, grad, hvp_at)


_BUILDERS = {
    "zakharov": _zakharov,
    "rosenbrock": _rosenbrock,
    "rhe": _rhe,
    "styblinski_tang": _styblinski_tang,
    "shifted_sinusoidal": lambda d: _sinusoidal("shifted_sinusoidal", d, 60.0, 30.0),
    "centered_sinusoidal": lambda d: _sinusoidal("centered_sinusoidal", d, 90.0, 0.0),
}

OBJECTIVE_IDS = tuple(sorted(_BUILDERS))


def make(name: str, dim: int) -> ObjectiveSpec:
    """Build an objective by registry id."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown objective {name!r}; known: {', '.join(OBJECTIVE_IDS)}")
    if not (isinstance(dim, numbers.Integral) and dim >= 2):
        raise ValueError("dimension must be an integer >= 2")
    return _BUILDERS[name](dim)
