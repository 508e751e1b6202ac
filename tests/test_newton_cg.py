"""Engine tests: quadratic exactness, monotone descent, determinism,
native termination semantics, oracle accounting, and the block engine
against blocks of one row and against the one-point reference, bit for
bit."""

import dataclasses

import numpy as np
import pytest
import reference
from reference import PointOracle, ScalarState, direction

from recordstart import newton_cg as ncg
from recordstart import objectives as ob


def descend(spec, x0s, max_iters=1000):
    """Native-only descent of every row of ``x0s`` in one block: per row
    the (x, f) pairs of the start point and of every accepted step, at
    most ``max_iters`` steps, and the engine at the end."""
    state = ncg.init(spec, x0s)
    histories = [[(x.copy(), f)] for x, f in zip(state.x, state.fx.tolist())]
    for _ in range(max_iters):
        rows = np.flatnonzero(~state.converged)
        if not rows.size:
            break
        for row, ok in zip(rows, ncg.step(state, rows)):
            if ok:
                histories[row].append((state.x[row].copy(), float(state.fx[row])))
    return histories, state


def gradient_tally(monkeypatch, slots):
    """The gradients asked of every oracle from now on, per slot:
    ``Oracle.grad`` counts none, so the test counts them."""
    tally = np.zeros(slots, dtype=int)
    grad = ob.Oracle.grad

    def counted(self, x, rows):
        g = grad(self, x, rows)
        tally[rows] += 1
        return g

    monkeypatch.setattr(ob.Oracle, "grad", counted)
    return tally


def same_bits(a, b):
    """Equal values and equal signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_init_at_minimum_is_converged():
    spec = ob.make("zakharov", 5)
    state = ncg.init(spec, [np.zeros(5), np.ones(5)])
    assert state.converged.tolist() == [True, False]


def test_init_clips_to_box():
    spec = ob.make("rosenbrock", 3)
    state = ncg.init(spec, [[5.0, -5.0, 0.0]])
    assert np.all(state.x <= 2.048) and np.all(state.x >= -2.048)


def test_init_counts_one_eval_and_one_gradient(monkeypatch):
    spec = ob.make("zakharov", 5)
    gradients = gradient_tally(monkeypatch, 3)
    state = ncg.init(spec, np.ones((3, 5)))
    oracle = state.oracle
    assert oracle.f_evals.tolist() == gradients.tolist() == [1, 1, 1]
    assert oracle.hvp_evals.tolist() == state.steps.tolist() == [0, 0, 0]


def test_init_rejects_non_finite_value():
    bad = ob.ObjectiveSpec(
        "bad", 2, -1.0, 1.0, 0.0, np.zeros(2),
        lambda x: np.full(x.shape[:-1], np.nan), lambda x: np.zeros(x.shape), lambda x: lambda v: np.zeros(v.shape),
    )
    with pytest.raises(ValueError, match="non-finite"):
        ncg.init(bad, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="rows"):
        ncg.init(ob.make("rhe", 2), np.zeros(2))


@pytest.mark.parametrize("dim", [2, 7, 25])
def test_quadratic_converges_in_one_step(dim):
    spec = ob.make("rhe", dim)
    rng = np.random.default_rng(dim)
    state = ncg.init(spec, ob.sample_uniform(spec, rng, 10))
    assert ncg.step(state, np.flatnonzero(~state.converged)).all()
    assert np.linalg.norm(state.gx, axis=1).max() <= 1e-8
    assert state.converged.all()


def test_step_on_converged_engine_raises():
    spec = ob.make("rhe", 3)
    state = ncg.init(spec, [np.zeros(3), np.ones(3)])
    with pytest.raises(RuntimeError):
        ncg.step(state, [0, 1])


@pytest.mark.parametrize("name", ob.OBJECTIVE_IDS)
def test_monotone_descent(name):
    spec = ob.make(name, 5)
    rng = np.random.default_rng(17)
    for history in descend(spec, ob.sample_uniform(spec, rng, 3), max_iters=400)[0]:
        values = [f for _, f in history]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_deterministic_trajectories():
    spec = ob.make("styblinski_tang", 5)
    x0 = np.array([[1.2, -3.4, 0.5, 4.9, -0.1]])
    (a,), (b,) = descend(spec, x0.copy())[0], descend(spec, x0.copy())[0]
    assert len(a) == len(b)
    for (xa, fa), (xb, fb) in zip(a, b):
        assert fa == fb and np.array_equal(xa, xb)


def test_rosenbrock_classic_start_reaches_global_minimum():
    spec = ob.make("rosenbrock", 2)
    (history,), _ = descend(spec, [[-1.2, 1.0]], max_iters=100)
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
    histories, _ = descend(spec, ob.sample_uniform(spec, rng, 30), max_iters=2000)
    assert all(len(history) < 500 for history in histories)
    assert any(history[-1][1] > 1.0 for history in histories)


def test_oracle_accounting_covers_all_calls(monkeypatch):
    spec = ob.make("zakharov", 5)
    gradients = gradient_tally(monkeypatch, 3)
    state = ncg.init(spec, [np.full(5, 2.0), np.full(5, -3.0), np.linspace(-5.0, 10.0, 5)])
    oracle = state.oracle
    iterates = np.ones(3, dtype=int)
    for _ in range(200):
        rows = np.flatnonzero(~state.converged)
        if not rows.size:
            break
        f_before, steps_before = oracle.f_evals.copy(), state.steps.copy()
        accepted = ncg.step(state, rows)
        probes = (oracle.f_evals - f_before)[rows]
        assert (state.steps - steps_before).tolist() == [int(r in rows) for r in range(3)]
        iterates[rows[accepted]] += 1
        # the rejected probes, then the accepted one
        assert np.all((1 <= probes[accepted]) & (probes[accepted] <= ncg.MAX_BACKTRACKS))
        # a fully pinned point probes nothing, a failed line search all
        assert np.isin(probes[~accepted], (0, ncg.MAX_BACKTRACKS)).all()
    assert state.converged.all()
    # one gradient per accepted iterate, the start point included
    assert gradients.tolist() == iterates.tolist()


@pytest.mark.parametrize("name", ob.OBJECTIVE_IDS)
def test_descend_evaluates_one_gradient_per_iterate(name):
    # the oracle counts no gradient, since a row's gradients are its
    # iterates: its start point's and its accepted steps'.  The spec's
    # own gradient kernel counts the rows it is given, step caps included
    base = ob.make(name, 5)
    rows_seen = [0]

    def grad(x):
        rows_seen[0] += len(x)
        return base._grad(x)

    spec = dataclasses.replace(base, _grad=grad)
    x0 = ob.sample_uniform(spec, np.random.default_rng(9), 12)
    caps = np.array([1, 2, 3, 5] * 2 + [1000] * 4)
    _, _, accepted, _ = ncg.descend(spec, x0, caps)
    assert rows_seen[0] == (accepted + 1).sum() > len(x0)
    assert (accepted == caps)[:8].any()  # some rows stop at their caps


def test_one_hessian_operator_per_step_and_every_application_counted():
    spec = ob.make("shifted_sinusoidal", 5)
    rng = np.random.default_rng(4)
    state = ncg.init(spec, ob.sample_uniform(spec, rng, 4))
    oracle = state.oracle
    builds, charged = [], [0]
    hvp_at = oracle.hvp_at

    def counted_hvp_at(x):
        builds.append(x.copy())
        hvp = hvp_at(x)

        def counted(v, rows):
            hv = hvp(v, rows)
            charged[0] += len(rows)
            return hv

        return counted

    oracle.hvp_at = counted_hvp_at
    steps = 0
    while not state.converged.all() and steps < 200:
        before = len(builds)
        ncg.step(state, np.flatnonzero(~state.converged))
        steps += 1
        assert len(builds) - before <= 1
    assert steps > 1 and len(builds) > 1
    assert oracle.hvp_evals.sum() == charged[0] > len(builds)

    def counts():
        return len(builds), charged[0], oracle.f_evals.tolist(), oracle.hvp_evals.tolist()

    hvp = oracle.hvp_at(state.x)
    before = counts()
    with pytest.raises(ValueError, match="vector"):
        hvp(np.zeros((4, 4)), np.arange(4))
    assert counts() == before


# ---------------------------------------------------------------------------
# search directions against the one-point reference
# ---------------------------------------------------------------------------


def face_point(spec, rng):
    """A uniform point with some coordinates moved onto a box face where
    the gradient pulls outward, so that the direction pins them."""
    x = ob.sample_uniform(spec, rng, 1)[0]
    grad = PointOracle(spec).grad
    for i in rng.permutation(spec.dim)[: max(1, spec.dim // 2)]:
        for bound, outward in ((spec.lower, 1.0), (spec.upper, -1.0)):
            y = x.copy()
            y[i] = bound
            if outward * grad(y)[i] > 0:
                x = y
                break
    return x


def tolerance_points(spec, rng):
    """Points with one coordinate at the pin tolerance from a face, or one
    float either side of it, under a gradient that pulls it outward or
    inward: ``(points, gradients)``, the 4 points on or beyond the
    tolerance and pulled outward first."""
    pin_tol = 1e-12 * (spec.upper - spec.lower)
    middle = 0.5 * (spec.lower + spec.upper)
    pinned, free = [], []
    grad = PointOracle(spec).grad
    for face, edge, outward in ((spec.lower, spec.lower + pin_tol, 1.0), (spec.upper, spec.upper - pin_tol, -1.0)):
        for at in (np.nextafter(edge, face), edge, np.nextafter(edge, middle)):
            for pull in (outward, -outward):
                x = ob.sample_uniform(spec, rng, 1)[0]
                i = rng.integers(spec.dim)
                x[i] = at
                g = grad(x)
                g[i] = pull * (abs(g[i]) or 1.0)
                beyond = at <= edge if face == spec.lower else at >= edge
                (pinned if beyond and pull == outward else free).append((x, g))
    points = pinned + free
    return np.array([x for x, _ in points]), np.array([g for _, g in points])


def block_directions(spec, xs, gs=None):
    """The block engine's directions at the rows ``xs`` (gradients ``gs``,
    default the true ones), each compared bitwise with the reference;
    returns the rows where the box masks pinned a coordinate (or every
    one)."""
    state = ncg.init(spec, xs)
    if gs is not None:
        state.gx[:] = gs
    p, gm, found = ncg._direction(state.oracle, np.arange(len(xs)), state.x, state.gx)
    pinned = []
    for i, (x, g) in enumerate(zip(state.x, state.gx)):
        ref = direction(ScalarState(PointOracle(spec), x, float(state.fx[i]), g.copy(), False))
        if ref is None:
            assert not found[i]
            pinned.append(True)
            continue
        assert found[i] and same_bits(p[i], ref[0]) and same_bits(gm[i], ref[1])
        pinned.append(not np.array_equal(ref[1], g))
    return np.array(pinned)


@pytest.mark.parametrize("name", ob.OBJECTIVE_IDS)
def test_direction_matches_the_reference_bitwise(name):
    spec = ob.make(name, 5)
    rng = np.random.default_rng(23)
    xs = [face_point(spec, rng) if trial % 2 else ob.sample_uniform(spec, rng, 1)[0] for trial in range(40)]
    pinned = block_directions(spec, xs)
    # separable, with each coordinate's minimum inside the box: every face
    # gradient points inward, so nothing is ever pinned
    assert pinned.any() or name in ("rhe", "styblinski_tang")

    # the points on or beyond the tolerance and pulled outward are pinned,
    # the others take the all-true mask
    pinned = block_directions(spec, *tolerance_points(spec, rng))
    assert pinned.tolist() == [True] * 4 + [False] * 8


def slope_spec():
    """A plane that falls toward the lower corner of its box."""
    return ob.ObjectiveSpec(
        "slope", 3, -1.0, 1.0, -3.0, np.full(3, -1.0),
        lambda x: x.sum(-1), lambda x: np.ones(x.shape), lambda x: lambda v: np.zeros(v.shape),
    )


def test_direction_is_none_at_a_fully_pinned_point():
    spec = slope_spec()
    corner = np.full(3, -1.0)
    assert direction(reference.init(spec, corner)) is None
    assert block_directions(spec, [corner, np.zeros(3)]).tolist() == [True, False]
    # the pinned row stops natively without a probe; the other moves
    state = ncg.init(spec, [corner, np.zeros(3)])
    assert ncg.step(state, np.flatnonzero(~state.converged)).tolist() == [False, True]
    assert state.converged[0] and state.oracle.f_evals.tolist() == [1, 2]


# ---------------------------------------------------------------------------
# a block of rows against blocks of one row, and against the reference
# ---------------------------------------------------------------------------


def saddle_points(spec, rng, count):
    """Points where the first CG iteration meets non-positive curvature
    along the gradient, so the step takes the saddle fallback: up to
    ``count`` of 200 draws, half of them from the box shrunk to 0.3 of its
    size about its middle."""
    oracle = PointOracle(spec)
    middle = 0.5 * (spec.lower + spec.upper)
    found = []
    for draw in range(200):
        x = ob.sample_uniform(spec, rng, 1)[0]
        if draw % 2:
            x = middle + 0.3 * (x - middle)
        g = oracle.grad(x)
        if g @ oracle.hvp_at(x)(g) <= 0.0:
            found.append(x)
            if len(found) == count:
                break
    return found


def assert_same_rows(block, singles):
    """Every row of ``block`` equals its block of one, counts included."""
    for i, one in enumerate(singles):
        for field in ("x", "fx", "gx", "converged", "steps"):
            assert same_bits(getattr(block, field)[i], getattr(one, field)[0]), (field, i)
        for count in ("f_evals", "hvp_evals"):
            assert getattr(block.oracle, count)[i] == getattr(one.oracle, count)[0], (count, i)


@pytest.mark.parametrize("d", [2, 5, 15, 50])
@pytest.mark.parametrize("name", ob.OBJECTIVE_IDS)
def test_a_block_of_rows_equals_blocks_of_one_row_bitwise(name, d):
    spec = ob.make(name, d)
    rng = np.random.default_rng(d)
    tol_x, tol_g = tolerance_points(spec, rng)
    saddles = saddle_points(spec, rng, 4)
    # the convex objectives have no saddle, and on rosenbrock the gradient
    # meets positive curvature at every draw
    assert saddles or name in ("rhe", "zakharov", "rosenbrock")
    xs = np.array(
        [*ob.sample_uniform(spec, rng, 6)]
        + [face_point(spec, rng) for _ in range(6)]
        + saddles
        + list(tol_x)
    )
    first_tol = len(xs) - len(tol_x)

    def started(rows):
        # the tolerance points carry their set gradients into the first step
        state = ncg.init(spec, xs[rows])
        for k, i in enumerate(rows):
            if i >= first_tol:
                state.gx[k] = tol_g[i - first_tol]
        return state

    every = np.arange(len(xs))
    block, singles = started(every), [started([i]) for i in every]
    p, gm, found = ncg._direction(ob.Oracle(spec, len(xs)), every, block.x, block.gx)
    for i, one in enumerate(singles):
        p1, gm1, found1 = ncg._direction(ob.Oracle(spec, 1), np.arange(1), one.x, one.gx)
        assert same_bits(p[i], p1[0]) and same_bits(gm[i], gm1[0]) and found[i] == found1[0]

    for _ in range(4):
        rows = np.flatnonzero(~block.converged)
        if not rows.size:
            break
        accepted = ncg.step(block, rows)
        for row, ok in zip(rows, accepted):
            assert ncg.step(singles[row], np.flatnonzero(~singles[row].converged)).tolist() == [ok]
        assert_same_rows(block, singles)


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("name", ob.OBJECTIVE_IDS)
def test_block_engine_matches_the_scalar_reference_over_whole_restarts(name, d):
    spec = ob.make(name, d)
    rng = np.random.default_rng(100 + d)
    xs = [*ob.sample_uniform(spec, rng, 5)] + [face_point(spec, rng) for _ in range(3)]
    histories, block = descend(spec, xs)
    assert block.converged.all()
    # the same descents kept as tables: values up to the last accepted
    # step, counts after the last step, and whether that step was rejected
    fx, counts, accepted, rejected = ncg.descend(spec, xs, np.full(len(xs), 1000))
    for i, (x0, history) in enumerate(zip(xs, histories)):
        ref = reference.init(spec, x0)
        values = [ref.fx]
        while not ref.converged:
            fn = reference.step(ref)
            if fn is not None:
                values.append(fn)
        assert [f for _, f in history] == values
        assert same_bits(block.x[i], ref.x) and same_bits(block.gx[i], ref.gx) and block.fx[i] == ref.fx
        ref_counts = (ref.oracle.f_evals[0], ref.oracle.hvp_evals[0], ref.steps)
        counts_i = (block.oracle.f_evals[i], block.oracle.hvp_evals[i], block.steps[i])
        assert counts_i == (*counts[-1, i], block.steps[i]) == ref_counts
        # the reference's gradients, one per iterate
        assert ref.grad_evals == len(values)
        assert fx[: len(values), i].tolist() == values
        assert accepted[i] == len(values) - 1 and rejected[i] == (ref.steps == len(values))


def visited_points(spec, rng, draws):
    """Every point the one-point reference steps from while descending
    natively from ``draws`` uniform starts, the last of each descent (where
    the line search fails) included."""
    points = []
    for _ in range(draws):
        state = reference.init(spec, ob.sample_uniform(spec, rng, 1)[0])
        while not state.converged:
            points.append(state.x.copy())
            reference.step(state)
    return points


def test_each_row_probes_as_the_sequential_line_search_bitwise():
    # the probes after t = 1 are evaluated as one block; each row must
    # take its first Armijo pass and be charged the probes up to it, or
    # all MAX_BACKTRACKS, as the one-point search that stops there
    cases = set()
    for name, d, draws in (("styblinski_tang", 2, 12), ("shifted_sinusoidal", 2, 4), ("rosenbrock", 5, 2)):
        spec = ob.make(name, d)
        xs = visited_points(spec, np.random.default_rng(0), draws)
        if name == "shifted_sinusoidal":
            xs.append(np.full(d, spec.upper))  # a corner with every coordinate pinned
        block = ncg.init(spec, xs)
        accepted = ncg.step(block, np.flatnonzero(~block.converged))
        for i, x in enumerate(xs):
            ref = reference.init(spec, x)
            assert accepted[i] == (reference.step(ref) is not None), (name, i)
            for field in ("x", "fx", "gx", "converged", "steps"):
                assert same_bits(getattr(block, field)[i], getattr(ref, field)), (name, i, field)
            for count in ("f_evals", "hvp_evals"):
                assert getattr(block.oracle, count)[i] == getattr(ref.oracle, count)[0], (name, i, count)
            assert ref.grad_evals == 1 + accepted[i], (name, i)
            probes = ref.oracle.f_evals[0] - 1
            if not accepted[i]:
                cases.add("pinned" if probes == 0 else f"rejected {probes}")
            else:
                cases.add(f"probe {probes}" if probes < 10 else "probe >= 10")
    assert {"probe 1", "probe 2", "probe >= 10", f"rejected {ncg.MAX_BACKTRACKS}", "pinned"} <= cases, cases
