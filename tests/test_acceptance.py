"""Acceptance gate: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantities.

Criterion 5 is checked against the slope law the lab actually simulates,
criterion 9 against its rosenbrock half only, and criterion 13 is
implemented exactly as stated and is expected to fail; README "Known
deviations" gives the reasons:

* criterion 5 checks the lab's conditional slope mean against the
  sampler's exact law ``E[y - Y' | y] * (-q*ln q)/(1-q)`` with
  ``q = p(y)**alpha`` (about 0.209 at these parameters).  The stated
  closed form ``alpha * p(y)**alpha / lam`` (0.354) is the RDMSS cut
  threshold of ``special.expected_slope``; the test checks that the lab
  still reports it and that it still fails its own lab check;
* criterion 9 asks for a near-zero success rate on rosenbrock and on
  the rotated hyper-ellipsoid, but on the quadratic criterion 7 forces
  one-step Newton exactness, so every restart evaluates the exact
  minimizer at its second oracle call and every run succeeds.  The two
  criteria conflict; criterion 9 checks rosenbrock only, and
  ``test_rhe_decided_before_any_inner_rule`` checks what exactness
  implies on rhe;
* criterion 13 requires a 3x inner-loop stretch from rescaling the
  surrogate CDF; the measured stretch is ~1.16x.
  ``test_rdmss_restarts_are_prefixes_of_dmss_on_rosenbrock`` checks the
  per-restart bound behind that: the overdue rule never fires on
  rosenbrock, so each RDMSS restart stops no later than the DMSS
  restart from the same start.
"""

import math
import time
import zlib

import numpy as np
import pytest

from recordstart import bench, newton_cg, objectives, special
from recordstart.hasplid import LabConfig, validate_statistics
from reference import PointOracle, check, n_record_threshold, tally_of

MASTER_SEED = bench.DEFAULT_SEED
RUNS = 50
DIM = 5

_benchmark_cache = {}
_theory_cache = {}


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def theory(alpha, lam):
    key = (alpha, lam)
    if key not in _theory_cache:
        t0 = time.time()
        rep = validate_statistics(
            LabConfig(alpha=alpha, lam=lam, trajectories=100_000, seed=0)
        )
        _theory_cache[key] = (rep, time.time() - t0)
    return _theory_cache[key]


def benchmark(objective, algorithm, ptilde_scale=1.0):
    key = (objective, algorithm, ptilde_scale)
    if key not in _benchmark_cache:
        cfg = bench.ExperimentConfig(
            objective=objective,
            dim=DIM,
            algorithm=algorithm,
            runs=RUNS,
            seed=MASTER_SEED,
            workers=1,
            ptilde_scale=ptilde_scale,
        )
        _benchmark_cache[key] = bench.run_experiment(cfg)
    return _benchmark_cache[key][0]


def benchmark_runs(objective, algorithm, ptilde_scale=1.0):
    """Per-run reports of :func:`benchmark`'s experiment."""
    benchmark(objective, algorithm, ptilde_scale)
    return _benchmark_cache[(objective, algorithm, ptilde_scale)][1]


# ---------------------------------------------------------------------------
# theory suite
# ---------------------------------------------------------------------------


def test_criterion_01_record_count_poisson():
    rep, elapsed_a = theory(0.5, 1.0)
    _, elapsed_b = theory(1.0, 1.0)
    mean = check(rep, "poisson_mean_records")
    var = check(rep, "poisson_variance_records")
    ok = mean.passed and var.passed and (elapsed_a + elapsed_b) < 60.0
    report(
        1,
        ok,
        f"records above target: mean {mean.statistic:.4f} vs {mean.theoretical:.4f} (2%), "
        f"variance {var.statistic:.4f} (5%); theory suite {elapsed_a + elapsed_b:.1f}s < 60s",
    )


def test_criterion_02_third_record_survival():
    rep, _ = theory(0.5, 1.0)
    c = check(rep, "third_record_survival")
    report(
        2,
        c.passed,
        f"P(third record above target) {c.statistic:.4f} vs {c.theoretical:.4f} (abs 0.01)",
    )


def test_criterion_03_inter_record_times_geometric():
    rep, _ = theory(0.5, 1.0)
    c = check(rep, "inter_record_time_mean")
    report(
        3,
        c.passed,
        f"mean inter-record time {c.statistic:.4f} vs {c.theoretical:.4f} (3%)",
    )


def test_criterion_04_record_count_pmf_and_curve():
    rep, _ = theory(1.0, 1.0)
    pmf = check(rep, "record_count_pmf_short_horizon")
    curve = check(rep, "expected_records_long_horizon")
    ok = pmf.passed and curve.passed
    report(
        4,
        ok,
        f"pmf max deviation {pmf.statistic:.4f} (abs 0.01); "
        f"mean records at 100 iterates {curve.statistic:.4f} vs {curve.theoretical:.4f} (2%)",
    )


def test_criterion_05_conditional_slope_expectation():
    parts = []
    ok = True
    for alpha in (0.5, 1.0):
        rep, _ = theory(alpha, 1.0)
        exact = check(rep, "conditional_slope_mean_exact")
        stated = check(rep, "conditional_slope_mean")
        # the stated form is the RDMSS cut threshold at zeta = lam/alpha,
        # taken at the surrogate level whose CDF equals the lab's
        # q = p(window_center) = 0.5
        level = -math.log1p(-0.5)
        threshold = special.expected_slope(level, alpha, 1.0 / alpha, 1.0)
        assert stated.theoretical == pytest.approx(threshold, rel=1e-12)
        assert not stated.passed, "the stated form now matches the simulated process"
        ok = ok and exact.passed
        parts.append(
            f"alpha {alpha}: conditional slope mean {exact.statistic:.4f} vs exact "
            f"{exact.theoretical:.4f} (5%); stated form {stated.theoretical:.4f} "
            f"still off by {stated.deviation():.0%}"
        )
    report(5, ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# numerics suite
# ---------------------------------------------------------------------------


def test_criterion_06_derivatives_match_finite_differences():
    worst_g, worst_h = 0.0, 0.0
    for name in objectives.OBJECTIVE_IDS:
        for dim in (2, 5, 15):
            spec = objectives.make(name, dim)
            oracle = PointOracle(spec)
            rng = np.random.default_rng(zlib.crc32(f"{name}:{dim}".encode()))
            for _ in range(20):
                x = objectives.sample_uniform(spec, rng, 1)[0]
                g = oracle.grad(x)
                fd = np.zeros(dim)
                for i in range(dim):
                    h = 1e-6 * (1.0 + abs(x[i]))
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    fd[i] = (oracle.f(xp) - oracle.f(xm)) / (2 * h)
                worst_g = max(worst_g, np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd)))
                v = rng.standard_normal(dim)
                hv = oracle.hvp_at(x)(v)
                hfd = (
                    oracle.grad(x + 1e-6 * v) - oracle.grad(x - 1e-6 * v)
                ) / 2e-6
                worst_h = max(worst_h, np.linalg.norm(hv - hfd) / max(1.0, np.linalg.norm(hfd)))
    ok = worst_g <= 1e-5 and worst_h <= 1e-4
    report(6, ok, f"worst relative error: gradient {worst_g:.2e} (<=1e-5), hvp {worst_h:.2e} (<=1e-4)")


def test_criterion_07_one_step_newton_on_quadratic():
    worst = 0.0
    for dim in (5, 25):
        spec = objectives.make("rhe", dim)
        rng = np.random.default_rng(dim)
        state = newton_cg.init(spec, objectives.sample_uniform(spec, rng, 10))
        newton_cg.step(state, np.flatnonzero(~state.converged))
        worst = max(worst, float(np.linalg.norm(state.gx, axis=1).max()))
    report(7, worst <= 1e-8, f"max gradient norm after one step {worst:.2e} (<=1e-8)")


def test_rhe_decided_before_any_inner_rule():
    # criterion 7 on the benchmark: each restart evaluates the quadratic's
    # minimizer at its second oracle call, before either inner rule can act
    d = benchmark("rhe", "dmss")
    r = benchmark("rhe", "rdmss")
    assert r.success_count == d.success_count == RUNS, (r.success_count, d.success_count)


# ---------------------------------------------------------------------------
# benchmark suite (canonical config, directional checks)
# ---------------------------------------------------------------------------


def test_criterion_08_zakharov_rdmss_wins():
    d = benchmark("zakharov", "dmss")
    r = benchmark("zakharov", "rdmss")
    ok = r.success_count == RUNS and r.avg_total_evals < d.avg_total_evals
    report(
        8,
        ok,
        f"zakharov: rdmss success {r.success_count}/{RUNS}, "
        f"avg evals {r.avg_total_evals:.1f} < dmss {d.avg_total_evals:.1f}",
    )


def test_criterion_09_premature_termination_on_flattening_objectives():
    # the criterion's rhe half conflicts with criterion 7; see
    # test_rhe_decided_before_any_inner_rule
    d = benchmark("rosenbrock", "dmss")
    r = benchmark("rosenbrock", "rdmss")
    ok = r.success_count <= 0.10 * RUNS and r.avg_total_evals < d.avg_total_evals
    report(
        9,
        ok,
        f"rosenbrock: rdmss success {r.success_count}/{RUNS}, "
        f"evals {r.avg_total_evals:.1f} vs dmss {d.avg_total_evals:.1f} "
        f"(rhe half not asserted: criterion 7 makes every rhe run succeed)",
    )


def test_criterion_10_sinusoids_fewer_evals_and_high_success():
    parts = []
    ok = True
    for name in ("shifted_sinusoidal", "centered_sinusoidal"):
        d = benchmark(name, "dmss")
        r = benchmark(name, "rdmss")
        this_ok = r.avg_total_evals < d.avg_total_evals and r.success_count >= 0.60 * RUNS
        ok = ok and this_ok
        parts.append(
            f"{name}: rdmss {r.avg_total_evals:.1f} < dmss {d.avg_total_evals:.1f}, "
            f"success {r.success_count}/{RUNS}"
        )
    report(10, ok, "; ".join(parts))


def test_criterion_11_styblinski_tang_success_ordering():
    d = benchmark("styblinski_tang", "dmss")
    r = benchmark("styblinski_tang", "rdmss")
    ok = r.success_count > d.success_count
    report(11, ok, f"styblinski-tang successes: rdmss {r.success_count} > dmss {d.success_count}")


def test_criterion_12_bare_newton_baseline():
    z = benchmark("zakharov", "ncg")
    s1 = benchmark("shifted_sinusoidal", "ncg")
    s2 = benchmark("centered_sinusoidal", "ncg")
    ok = (
        s1.success_count <= 0.40 * RUNS
        and s2.success_count <= 0.40 * RUNS
        and z.success_count >= 0.80 * RUNS
        and 11.66 / 3.0 <= z.avg_total_evals <= 11.66 * 3.0
    )
    report(
        12,
        ok,
        f"bare newton-cg: zakharov success {z.success_count}/{RUNS} with "
        f"{z.avg_total_evals:.2f} evals (x3 of 11.66); sinusoid successes "
        f"{s1.success_count}, {s2.success_count} (<=40%)",
    )


def test_criterion_13_scaled_surrogate_stretches_inner_loops():
    base = benchmark("rosenbrock", "rdmss")
    scaled = benchmark("rosenbrock", "rdmss", ptilde_scale=2.0**DIM)
    ratio = scaled.avg_inner_iterations / base.avg_inner_iterations
    ok = ratio >= 3.0
    report(
        13,
        ok,
        f"rosenbrock inner-loop length: scaled {scaled.avg_inner_iterations:.2f} vs "
        f"unscaled {base.avg_inner_iterations:.2f} (ratio {ratio:.2f}, need >=3) "
        f"- exact Newton slope decay leaves no room for the stretch",
    )


def test_rdmss_restarts_are_prefixes_of_dmss_on_rosenbrock():
    # Restart i of a run draws the same start under every driver.  If the
    # overdue rule never fires, DMSS descends from it to native
    # convergence and RDMSS (either surrogate scale) stops no later, so no
    # surrogate scale can stretch an RDMSS restart past the DMSS one.
    dmss = benchmark_runs("rosenbrock", "dmss")
    for run in dmss:
        counts = [(s.records, s.iterates) for s in run.run_stats]
        for i, (k, j) in enumerate(counts):
            zeta_w = 1.0 if i == 0 else special.solve_zeta_tally(tally_of(counts[:i]))
            assert j < n_record_threshold(k - 1, zeta_w)
    for scale in (1.0, 2.0**DIM):
        for d, r in zip(dmss, benchmark_runs("rosenbrock", "rdmss", ptilde_scale=scale)):
            assert not (d.budget_exhausted or r.budget_exhausted)
            for sd, sr in zip(d.run_stats, r.run_stats):
                assert sr.iterates <= sd.iterates


def test_criterion_14_byte_identical_artifacts(tmp_path):
    outs = []
    for label, workers in (("one_a", 1), ("one_b", 1), ("four", 4)):
        cfg = bench.ExperimentConfig(
            objective="zakharov",
            dim=DIM,
            algorithm="rdmss",
            runs=RUNS,
            seed=MASTER_SEED,
            workers=workers,
        )
        out = tmp_path / label
        bench.run_experiment(cfg, out_dir=str(out))
        outs.append(out)
    summaries = [(o / "summary.json").read_bytes() for o in outs]
    histories = [(o / "history.csv").read_bytes() for o in outs]
    ok = summaries[0] == summaries[1] == summaries[2] and histories[0] == histories[1] == histories[2]
    report(14, ok, "summary.json and history.csv byte-identical across reruns and workers {1,4}")
