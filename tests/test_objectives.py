"""Objective tests: known minima, finite-difference oracles for the
analytic derivatives, the vectorized sinusoid products against their
loop reference, sampling bounds, registry behavior."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference import (
    ANALYTIC_HVP,
    ANALYTIC_VALUE_GRADIENT,
    PointOracle,
    excl_one,
    excl_two,
    sinusoid_gradient,
    sinusoid_hessian,
    sinusoid_value,
)

from recordstart import objectives as ob


def fd_gradient(spec, x, h_scale=1e-6):
    f = PointOracle(spec).f
    g = np.zeros_like(x)
    for i in range(spec.dim):
        h = h_scale * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_hvp(spec, x, v, h=1e-6):
    grad = PointOracle(spec).grad
    return (grad(x + h * v) - grad(x - h * v)) / (2.0 * h)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


@pytest.fixture(params=ob.OBJECTIVE_IDS)
def every_spec(request):
    return ob.make(request.param, 5)


# ---------------------------------------------------------------------------
# known minima
# ---------------------------------------------------------------------------


def test_zakharov_zero_at_origin():
    spec = ob.make("zakharov", 7)
    assert PointOracle(spec).f(np.zeros(7)) == 0.0


def test_rosenbrock_zero_at_ones():
    spec = ob.make("rosenbrock", 5)
    assert PointOracle(spec).f(np.ones(5)) == 0.0


def test_styblinski_tang_minimum_scales_with_dimension():
    spec = ob.make("styblinski_tang", 5)
    # the commonly quoted constant is a rounded version of the true value
    assert spec.f_star == pytest.approx(-39.16599 * 5, abs=1e-2)
    assert PointOracle(spec).f(np.full(5, -2.903534)) == pytest.approx(-195.83, abs=1e-2)


def test_shifted_sinusoidal_minimum_at_thirty():
    spec = ob.make("shifted_sinusoidal", 5)
    assert PointOracle(spec).f(np.full(5, 30.0)) == pytest.approx(-3.5, abs=1e-12)


def test_centered_sinusoidal_minimum_at_origin():
    spec = ob.make("centered_sinusoidal", 4)
    assert PointOracle(spec).f(np.zeros(4)) == pytest.approx(-3.5, abs=1e-12)


def test_every_minimum_is_consistent(every_spec):
    spec = every_spec
    assert PointOracle(spec).f(spec.x_star) == pytest.approx(spec.f_star, abs=1e-9)
    assert np.linalg.norm(PointOracle(spec).grad(spec.x_star)) <= 1e-6
    assert spec.lower <= spec.x_star.min() and spec.x_star.max() <= spec.upper


def test_uniform_samples_never_beat_the_minimum(every_spec):
    spec = every_spec
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        x = ob.sample_uniform(spec, rng, 1)[0]
        assert PointOracle(spec).f(x) >= spec.f_star - 1e-9


# ---------------------------------------------------------------------------
# derivatives against finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 5])
def test_gradient_matches_finite_differences(dim):
    rng = np.random.default_rng(7)
    for name in ob.OBJECTIVE_IDS:
        spec = ob.make(name, dim)
        for _ in range(5):
            x = ob.sample_uniform(spec, rng, 1)[0]
            assert rel_err(PointOracle(spec).grad(x), fd_gradient(spec, x)) <= 1e-5, name


@pytest.mark.parametrize("dim", [2, 5])
def test_hvp_matches_gradient_differences(dim):
    rng = np.random.default_rng(11)
    for name in ob.OBJECTIVE_IDS:
        spec = ob.make(name, dim)
        for _ in range(5):
            x = ob.sample_uniform(spec, rng, 1)[0]
            v = rng.standard_normal(dim)
            assert rel_err(PointOracle(spec).hvp_at(x)(v), fd_hvp(spec, x, v)) <= 1e-4, name


def test_zakharov_gradient_zero_at_origin():
    spec = ob.make("zakharov", 6)
    assert np.all(PointOracle(spec).grad(np.zeros(6)) == 0.0)


def test_rhe_gradient_closed_form():
    spec = ob.make("rhe", 5)
    rng = np.random.default_rng(3)
    x = ob.sample_uniform(spec, rng, 1)[0]
    expected = 2.0 * np.array([5 - i for i in range(5)]) * x  # 2*(d-i+1)*x_i, one-indexed
    assert np.allclose(PointOracle(spec).grad(x), expected, rtol=1e-14)


def test_rhe_hvp_independent_of_point():
    spec = ob.make("rhe", 4)
    v = np.array([1.0, -2.0, 0.5, 3.0])
    a = PointOracle(spec).hvp_at(np.zeros(4))(v)
    b = PointOracle(spec).hvp_at(np.full(4, 17.3))(v)
    assert np.array_equal(a, b)


def test_hvp_linear_in_v_and_zero_at_zero(every_spec):
    spec = every_spec
    rng = np.random.default_rng(5)
    x = ob.sample_uniform(spec, rng, 1)[0]
    assert np.all(PointOracle(spec).hvp_at(x)(np.zeros(5)) == 0.0)
    v = rng.standard_normal(5)
    two = PointOracle(spec).hvp_at(x)(2.0 * v)
    one = PointOracle(spec).hvp_at(x)(v)
    assert np.allclose(two, 2.0 * one, rtol=1e-12)


def with_signed_zeros(rng, d, count):
    """Normal draws with ``count`` entries, and about one in twenty more,
    replaced by an exact 0.0 or -0.0 of random sign."""
    t = rng.standard_normal(d)
    zeros = rng.random(d) < 0.05
    zeros[rng.choice(d, size=count, replace=False)] = True
    t[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return t


def same_bits(a, b):
    """Equal values and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("d", [2, 3, 5, 15, 50])
def test_exclusion_products_match_the_loop_reference_bitwise(d):
    rng = np.random.default_rng(d)
    off = tuple(i.reshape(d, d - 1) for i in np.nonzero(~np.eye(d, dtype=bool)))
    # two stacked rows per trial, as in the sinusoid kernels at a point,
    # and every trial's rows in one (R, 2, d) block, as on an engine block
    trials = []
    for trial in range(60):
        t = with_signed_zeros(rng, d, trial % 3)
        trials.append(np.stack([t, t[::-1]]))
    block = np.stack(trials)
    block_one, block_two = ob._excl_one(block), ob._excl_one(block[..., off[1]])
    for rows, b_one, b_two in zip(trials, block_one, block_two):
        # the exclusion-two entries are the exclusion-one products of the
        # off-diagonal gather
        one, two = ob._excl_one(rows), ob._excl_one(rows[:, off[1]])
        for k, u in enumerate(rows):
            for got in (one[k], b_one[k]):
                assert same_bits(got, excl_one(u))
            for got in (two[k], b_two[k]):
                assert same_bits(got, excl_two(u)[off])


def block_hvp(spec, xs, vs):
    """The operators at the rows of ``xs`` applied to the rows of ``vs``,
    as one block."""
    rows = np.arange(len(xs))
    return ob.Oracle(spec, len(xs)).hvp_at(xs)(vs, rows)


@pytest.mark.parametrize("name", sorted(ANALYTIC_HVP))
@pytest.mark.parametrize("d", [2, 5, 15])
def test_analytic_hessian_operators_match_the_per_call_reference_bitwise(name, d):
    spec = ob.make(name, d)
    reference = ANALYTIC_HVP[name]
    rng = np.random.default_rng(d)
    xs, vs = [], []
    for trial in range(20):
        x = ob.sample_uniform(spec, rng, 1)[0]
        if trial % 2:
            # exact zeros in the point, +0.0 or -0.0 by trial
            x[rng.random(d) < 0.3] = rng.choice([0.0, -0.0])
        hvp = PointOracle(spec).hvp_at(x)
        for count in range(3):
            v = with_signed_zeros(rng, d, count)
            assert same_bits(hvp(v), reference(x, v))
            xs.append(x)
            vs.append(v)
    # the same points and vectors as the rows of one block
    for x, v, got in zip(xs, vs, block_hvp(spec, np.array(xs), np.array(vs))):
        assert same_bits(got, reference(x, v))


@pytest.mark.parametrize("name", sorted(ANALYTIC_VALUE_GRADIENT))
@pytest.mark.parametrize("d", [2, 5, 15, 50])
def test_analytic_values_and_gradients_match_the_one_point_reference_bitwise(name, d):
    spec = ob.make(name, d)
    value, gradient = ANALYTIC_VALUE_GRADIENT[name]
    rng = np.random.default_rng(d)
    # uniform points, points closing in on the minimum (where a descent
    # spends its last steps), and points with signed zeros or coordinates
    # on a face
    xs = ob.sample_uniform(spec, rng, 60)
    xs[20:40] = spec.x_star + (xs[20:40] - spec.x_star) * 10.0 ** rng.uniform(-9, 0, (20, 1))
    xs[40:, rng.integers(d)] = rng.choice([0.0, -0.0, spec.lower, spec.upper], size=20)
    oracle = PointOracle(spec)
    for x in xs:
        assert same_bits(oracle.f(x), value(x)) and same_bits(oracle.grad(x), gradient(x))
    # the same points as the rows of one block
    block = ob.Oracle(spec, len(xs))
    rows = np.arange(len(xs))
    for x, got_value, got_grad in zip(xs, block.f(xs, rows), block.grad(xs, rows)):
        assert same_bits(got_value, value(x)) and same_bits(got_grad, gradient(x))


@pytest.mark.parametrize("name, shift", [("shifted_sinusoidal", 60.0), ("centered_sinusoidal", 90.0)])
@pytest.mark.parametrize("d", [2, 5, 15])
def test_sinusoid_hessian_operator_matches_the_reference_bitwise(name, shift, d):
    spec = ob.make(name, d)
    rng = np.random.default_rng(d)
    xs, vs = [], []
    for trial in range(20):
        x = ob.sample_uniform(spec, rng, 1)[0]
        if trial % 2:
            # sin(u) is an exact zero at x = -shift
            x[rng.random(d) < 0.3] = -shift
        hvp = PointOracle(spec).hvp_at(x)
        h_ref = sinusoid_hessian(x, shift)
        for _ in range(3):
            v = rng.standard_normal(d)
            assert np.array_equal(hvp(v), h_ref @ v)
            xs.append(x)
            vs.append(v)
    # the same points and vectors as the rows of one block
    for x, v, got in zip(xs, vs, block_hvp(spec, np.array(xs), np.array(vs))):
        assert np.array_equal(got, sinusoid_hessian(x, shift) @ v)


@pytest.mark.parametrize("name, shift", [("shifted_sinusoidal", 60.0), ("centered_sinusoidal", 90.0)])
@pytest.mark.parametrize("d", [2, 3, 5, 15, 50])
def test_sinusoid_value_and_gradient_match_the_per_family_reference_bitwise(name, shift, d):
    spec = ob.make(name, d)
    oracle = PointOracle(spec)
    rng = np.random.default_rng(d)
    # sin(u) vanishes exactly at x = -shift; sin(5u) at x = 36k - shift,
    # exactly at k = 0 and to rounding at the other k inside the box
    five_zeros = [z for z in 36.0 * np.arange(-5, 6) - shift if spec.lower <= z <= spec.upper]
    specials = [(-shift,), five_zeros, (0.0, -0.0)]
    xs = []
    for trial in range(30):
        x = ob.sample_uniform(spec, rng, 1)[0]
        if trial % 4:
            hit = rng.random(d) < 0.3
            x[hit] = rng.choice(specials[trial % 4 - 1], size=hit.sum())
        got, ref = oracle.f(x), sinusoid_value(x, shift)
        assert got == ref and np.signbit(got) == np.signbit(ref)
        assert same_bits(oracle.grad(x), sinusoid_gradient(x, shift))
        xs.append(x)
    # the same points as the rows of one block
    block = ob.Oracle(spec, len(xs))
    rows = np.arange(len(xs))
    values, grads = block.f(np.array(xs), rows), block.grad(np.array(xs), rows)
    for x, value, grad in zip(xs, values, grads):
        assert same_bits(value, sinusoid_value(x, shift))
        assert same_bits(grad, sinusoid_gradient(x, shift))


# ---------------------------------------------------------------------------
# sampling, counting, registry
# ---------------------------------------------------------------------------


def test_sample_uniform_bounds_and_mean():
    spec = ob.make("shifted_sinusoidal", 3)
    rng = np.random.default_rng(0)
    xs = ob.sample_uniform(spec, rng, 20_000)
    assert xs.min() >= -90.0 and xs.max() <= 90.0
    midpoint = 0.0
    se = (spec.upper - spec.lower) / np.sqrt(12.0 * len(xs))
    assert np.all(np.abs(xs.mean(axis=0) - midpoint) <= 4.0 * se)


def test_sample_uniform_deterministic():
    spec = ob.make("zakharov", 5)
    a = ob.sample_uniform(spec, np.random.default_rng(9), 3)
    b = ob.sample_uniform(spec, np.random.default_rng(9), 3)
    assert np.array_equal(a, b)
    # a batch holds the points that one draw at a time gives
    rng = np.random.default_rng(9)
    assert np.array_equal(a, [ob.sample_uniform(spec, rng, 1)[0] for _ in range(3)])


SLOT_0 = np.zeros(1, dtype=int)


def test_oracle_counts_calls():
    spec = ob.make("zakharov", 5)
    oracle = ob.Oracle(spec, 1)
    x = np.zeros((1, 5))
    values = oracle.f(x, SLOT_0)
    assert values.shape == (1,) and values.dtype == float
    oracle.f(x, SLOT_0)
    oracle.grad(x, SLOT_0)
    oracle.hvp_at(x)(np.ones((1, 5)), SLOT_0)
    assert (oracle.f_evals.tolist(), oracle.hvp_evals.tolist()) == ([2], [1])


def test_oracle_counts_per_row_of_a_block():
    spec = ob.make("rosenbrock", 4)
    oracle = ob.Oracle(spec, 3)
    xs = np.zeros((2, 4))
    values = oracle.f(xs, np.array([0, 2]))
    assert values.shape == (2,)
    # a gradient is not counted
    assert oracle.grad(xs[:1], np.array([1])).shape == (1, 4)
    # an operator over two rows, applied to both, charged to one
    oracle.hvp_at(xs)(np.ones((2, 4)), np.array([2]))
    assert oracle.f_evals.tolist() == [1, 0, 1]
    assert oracle.hvp_evals.tolist() == [0, 0, 1]
    # rows that do not match the block are rejected, and not counted
    with pytest.raises(ValueError, match="rows"):
        oracle.f(xs, np.array([0]))
    with pytest.raises(ValueError, match="rows"):
        oracle.grad(xs, 0)
    assert oracle.f_evals.tolist() == [1, 0, 1]
    # a probe block of K = 3 points for slots 0 and 1, each charged as a
    # scan in order that stops at its first value below 1: rosenbrock is 3
    # at zero and 0 at ones, so row 0 passes at its second point and row 1
    # never does
    probes = np.zeros((2, 3, 4))
    probes[0, 1] = 1.0
    values, first = oracle.f(probes, np.array([0, 1]), lambda fx: fx < 1.0)
    assert values.tolist() == [[3.0, 0.0, 3.0], [3.0, 3.0, 3.0]] and first.tolist() == [1, 3]
    assert oracle.f_evals.tolist() == [3, 3, 1]
    # a pass at the first point charges one evaluation, and only its slot
    values, first = oracle.f(probes[:1, 1:], np.array([2]), lambda fx: fx < 1.0)
    assert values.tolist() == [[0.0, 3.0]] and first.tolist() == [0]
    assert oracle.f_evals.tolist() == [3, 3, 2]
    # a probe block whose rows do not match is rejected, and not counted
    with pytest.raises(ValueError, match="rows"):
        oracle.f(probes, np.array([0]), lambda fx: fx < 1.0)
    with pytest.raises(ValueError, match="rows"):
        oracle.f(probes[0], np.array([0, 1, 2]), lambda fx: fx < 1.0)
    assert oracle.f_evals.tolist() == [3, 3, 2] and oracle.hvp_evals.tolist() == [0, 0, 1]


def test_dimension_mismatch_raises(every_spec):
    oracle = ob.Oracle(every_spec, 1)
    with pytest.raises(ValueError, match="point"):
        oracle.f(np.zeros((1, 3)), SLOT_0)
    with pytest.raises(ValueError, match="point"):
        oracle.grad(np.zeros((1, 6)), SLOT_0)
    with pytest.raises(ValueError, match="point"):
        oracle.hvp_at(np.zeros((1, 4)))
    with pytest.raises(ValueError, match="vector"):
        oracle.hvp_at(np.zeros((1, 5)))(np.zeros((1, 4)), SLOT_0)
    with pytest.raises(ValueError, match="point"):
        oracle.f(np.zeros((2, 4)), np.arange(2))
    with pytest.raises(ValueError, match="point"):
        oracle.f(np.zeros((1, 2, 5)), np.zeros((1, 2), dtype=int))
    with pytest.raises(ValueError, match="point"):
        oracle.f(np.zeros((1, 2, 4)), np.zeros(1, dtype=int), lambda fx: fx < 0.0)
    # a rejected call is not counted
    assert (oracle.f_evals.tolist(), oracle.hvp_evals.tolist()) == ([0], [0])


def test_oracle_takes_blocks_only(every_spec):
    # a point (d,) is no block of rows, whatever slots it names
    oracle = ob.Oracle(every_spec, 5)
    for call in (oracle.f, oracle.grad):
        for rows in (0, SLOT_0, np.arange(5)):
            with pytest.raises(ValueError, match=r"expected \(rows, 5\)"):
                call(np.zeros(5), rows)
    with pytest.raises(ValueError, match=r"expected \(rows, 5\)"):
        oracle.hvp_at(np.zeros(5))
    assert (oracle.f_evals.tolist(), oracle.hvp_evals.tolist()) == ([0] * 5, [0] * 5)


@pytest.mark.parametrize("name", ["zakharov", "rhe"])
def test_hessian_operator_takes_only_vectors_of_its_point_block_shape(name):
    # a vector of another row count would broadcast against the operator's
    # rows (zakharov) or pass through (rhe) with the wrong slots charged
    spec = ob.make(name, 4)
    oracle = ob.Oracle(spec, 2)
    hvp = oracle.hvp_at(np.ones((2, 4)))
    for v in (np.ones((1, 4)), np.ones((3, 4)), np.ones(4), np.ones((2, 1)), np.ones((2, 2, 4))):
        with pytest.raises(ValueError, match="vector"):
            hvp(v, np.arange(2))
    assert oracle.hvp_evals.tolist() == [0, 0]
    assert hvp(np.ones((2, 4)), np.arange(2)).shape == (2, 4)
    assert oracle.hvp_evals.tolist() == [1, 1]


def test_registry_contents():
    assert set(ob.OBJECTIVE_IDS) == {
        "zakharov",
        "rosenbrock",
        "rhe",
        "styblinski_tang",
        "shifted_sinusoidal",
        "centered_sinusoidal",
    }
    with pytest.raises(KeyError):
        ob.make("sphere", 5)


def test_importing_objectives_leaves_the_harness_unloaded():
    # the package imports none of its modules, so a fresh interpreter
    # that imports only the objectives loads neither the experiment
    # harness nor its process pool
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, recordstart.objectives; "
        "print(sorted(m for m in ('recordstart.bench', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
