"""Engine tests: quadratic exactness, monotone descent, determinism,
native termination semantics, oracle accounting."""

import numpy as np
import pytest
from reference import direction

from recordstart import newton_cg as ncg
from recordstart import objectives as ob


def descend(spec, x0, max_iters=1000):
    """Native-only descent from ``x0``: the (x, f) pairs of the start
    point and of every accepted step, at most ``max_iters`` steps."""
    state = ncg.init(spec, x0)
    history = [(state.x.copy(), state.fx)]
    while not state.converged and len(history) <= max_iters:
        if ncg.step(state) is None:
            break
        history.append((state.x.copy(), state.fx))
    return history


def test_init_at_minimum_is_converged():
    spec = ob.make("zakharov", 5)
    state = ncg.init(spec, np.zeros(5))
    assert state.converged


def test_init_clips_to_box():
    spec = ob.make("rosenbrock", 3)
    state = ncg.init(spec, np.array([5.0, -5.0, 0.0]))
    assert np.all(state.x <= 2.048) and np.all(state.x >= -2.048)


def test_init_counts_one_eval_and_one_gradient():
    spec = ob.make("zakharov", 5)
    oracle = ob.Oracle(spec)
    ncg.init(spec, np.ones(5), oracle)
    assert oracle.f_evals == 1
    assert oracle.grad_evals == 1


def test_init_rejects_non_finite_value():
    bad = ob.ObjectiveSpec(
        "bad", 2, -1.0, 1.0, 0.0, np.zeros(2),
        lambda x: float("nan"), lambda x: np.zeros(2), lambda x: lambda v: np.zeros(2),
    )
    with pytest.raises(ValueError):
        ncg.init(bad, np.zeros(2))


@pytest.mark.parametrize("dim", [2, 7, 25])
def test_quadratic_converges_in_one_step(dim):
    spec = ob.make("rhe", dim)
    rng = np.random.default_rng(dim)
    for _ in range(10):
        state = ncg.init(spec, ob.sample_uniform(spec, rng))
        ncg.step(state)
        assert np.linalg.norm(state.gx) <= 1e-8
        assert state.converged


def test_step_on_converged_engine_raises():
    spec = ob.make("rhe", 3)
    state = ncg.init(spec, np.zeros(3))
    with pytest.raises(RuntimeError):
        ncg.step(state)


@pytest.mark.parametrize("name", ob.OBJECTIVE_IDS)
def test_monotone_descent(name):
    spec = ob.make(name, 5)
    rng = np.random.default_rng(17)
    for _ in range(3):
        history = descend(spec, ob.sample_uniform(spec, rng), max_iters=400)
        values = [f for _, f in history]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_deterministic_trajectories():
    spec = ob.make("styblinski_tang", 5)
    x0 = np.array([1.2, -3.4, 0.5, 4.9, -0.1])
    a = descend(spec, x0.copy())
    b = descend(spec, x0.copy())
    assert len(a) == len(b)
    for (xa, fa), (xb, fb) in zip(a, b):
        assert fa == fb and np.array_equal(xa, xb)


def test_rosenbrock_classic_start_reaches_global_minimum():
    spec = ob.make("rosenbrock", 2)
    history = descend(spec, np.array([-1.2, 1.0]), max_iters=100)
    x_end, f_end = history[-1]
    assert len(history) - 1 <= 100
    assert np.allclose(x_end, np.ones(2), atol=1e-6)
    assert f_end <= 1e-12


def test_native_stop_at_floating_point_floor():
    # descending into the nonzero local minimum of the 5-d banana valley
    # ends via line-search failure: the gradient cannot reach the norm
    # tolerance at a value whose float resolution exceeds it
    spec = ob.make("rosenbrock", 5)
    rng = np.random.default_rng(1)
    seen_local = False
    for _ in range(30):
        history = descend(spec, ob.sample_uniform(spec, rng), max_iters=2000)
        assert len(history) < 500
        if history[-1][1] > 1.0:
            seen_local = True
    assert seen_local


def test_oracle_accounting_covers_all_calls():
    spec = ob.make("zakharov", 5)
    oracle = ob.Oracle(spec)
    state = ncg.init(spec, np.full(5, 2.0), oracle)
    iterates = 1
    while not state.converged and iterates < 200:
        f_before = oracle.f_evals
        accepted = ncg.step(state) is not None
        probes = oracle.f_evals - f_before
        if accepted:
            iterates += 1
            # the rejected probes, then the accepted one
            assert 1 <= probes <= ncg.MAX_BACKTRACKS
        else:
            # a fully pinned point probes nothing, a failed line search all
            assert probes in (0, ncg.MAX_BACKTRACKS)
    # one gradient per accepted iterate, the start point included
    assert oracle.grad_evals == iterates


def test_one_hessian_operator_per_step_and_every_application_counted():
    spec = ob.make("shifted_sinusoidal", 5)
    oracle = ob.Oracle(spec)
    builds, applications = [], [0]
    hvp_at = oracle.hvp_at

    def counted_hvp_at(x):
        builds.append(x.copy())
        hvp = hvp_at(x)

        def counted(v):
            hv = hvp(v)
            applications[0] += 1
            return hv

        return counted

    oracle.hvp_at = counted_hvp_at
    state = ncg.init(spec, ob.sample_uniform(spec, np.random.default_rng(4)), oracle)
    steps = 0
    while not state.converged and steps < 200:
        before = len(builds)
        ncg.step(state)
        steps += 1
        assert len(builds) - before <= 1
    assert steps > 1 and len(builds) > 1
    assert oracle.hvp_evals == applications[0] > len(builds)

    hvp = oracle.hvp_at(state.x)
    counts = (len(builds), applications[0], oracle.f_evals, oracle.grad_evals, oracle.hvp_evals)
    with pytest.raises(ValueError, match="vector"):
        hvp(np.zeros(4))
    assert (len(builds), applications[0], oracle.f_evals, oracle.grad_evals, oracle.hvp_evals) == counts


def face_point(spec, rng):
    """A uniform point with some coordinates moved onto a box face where
    the gradient pulls outward, so that the direction pins them."""
    x = ob.sample_uniform(spec, rng)
    grad = ob.Oracle(spec).grad
    for i in rng.permutation(spec.dim)[: max(1, spec.dim // 2)]:
        for bound, outward in ((spec.lower, 1.0), (spec.upper, -1.0)):
            y = x.copy()
            y[i] = bound
            if outward * grad(y)[i] > 0:
                x = y
                break
    return x


def assert_same_direction(state):
    """Compare the direction with the reference; True when the box masks
    pinned a coordinate (or all of them)."""
    got, ref = ncg._direction(state), direction(state)
    if ref is None:
        assert got is None
        return True
    for a, b in zip(got, ref):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    return not np.array_equal(ref[1], state.gx)


@pytest.mark.parametrize("name", ob.OBJECTIVE_IDS)
def test_direction_matches_the_reference_bitwise(name):
    spec = ob.make(name, 5)
    rng = np.random.default_rng(23)
    pinned = 0
    for trial in range(40):
        x = face_point(spec, rng) if trial % 2 else ob.sample_uniform(spec, rng)
        pinned += assert_same_direction(ncg.init(spec, x))
    # separable, with each coordinate's minimum inside the box: every face
    # gradient points inward, so nothing is ever pinned
    assert pinned > 0 or name in ("rhe", "styblinski_tang")

    # one coordinate at the pin tolerance from a face, or one float either
    # side of it, under a gradient that pulls it outward or inward; the
    # points on or beyond the tolerance take the masked branch, the others
    # the interior one
    pin_tol = 1e-12 * (spec.upper - spec.lower)
    middle = 0.5 * (spec.lower + spec.upper)
    pinned = 0
    for face, edge, outward in ((spec.lower, spec.lower + pin_tol, 1.0), (spec.upper, spec.upper - pin_tol, -1.0)):
        for at in (np.nextafter(edge, face), edge, np.nextafter(edge, middle)):
            for pull in (outward, -outward):
                x = ob.sample_uniform(spec, rng)
                i = rng.integers(spec.dim)
                x[i] = at
                state = ncg.init(spec, x)
                state.gx[i] = pull * (abs(state.gx[i]) or 1.0)
                pinned += assert_same_direction(state)
    # pinned exactly when on or beyond the tolerance and pulled outward
    assert pinned == 4


def test_direction_is_none_at_a_fully_pinned_point():
    # a plane that falls toward the lower corner of its box
    slope = ob.ObjectiveSpec(
        "slope", 3, -1.0, 1.0, -3.0, np.full(3, -1.0),
        lambda x: float(x.sum()), lambda x: np.ones(3), lambda x: lambda v: np.zeros(3),
    )
    state = ncg.init(slope, np.full(3, -1.0))
    assert direction(state) is None
    assert_same_direction(state)
