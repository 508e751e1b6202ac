"""Harness tests: seed derivation, artifact formats, aggregate
consistency between summary.json and history.csv, parallel/serial
equivalence, comparison output, CLI plumbing."""

import csv
import json
import math
import random
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from recordstart import bench, hasplid
from recordstart.multistart import run_block
from recordstart.objectives import make
from reference import history_rows


def small_config(**kw):
    defaults = dict(
        objective="zakharov",
        dim=5,
        algorithm="rdmss",
        runs=4,
        seed=100,
        workers=1,
    )
    defaults.update(kw)
    return bench.ExperimentConfig(**defaults)


def test_derive_seed_is_stable_and_spreads():
    a = bench.derive_seed(100, 0)
    assert a == bench.derive_seed(100, 0)
    seeds = {bench.derive_seed(100, i) for i in range(64)}
    assert len(seeds) == 64
    assert bench.derive_seed(101, 0) != a


def test_run_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "exp"
    aggregate, reports = bench.run_experiment(small_config(), out_dir=str(out))
    assert (out / "history.csv").exists()
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aggregate"]["runs"] == 4
    assert summary["aggregate"]["success_count"] == aggregate.success_count
    assert summary["config"]["objective"] == "zakharov"


def test_history_header_and_row_order(tmp_path):
    out = tmp_path / "exp"
    bench.run_experiment(small_config(), out_dir=str(out))
    with open(out / "history.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["run_id", "eval_index", "f_value", "is_record", "restart_index", "algorithm"]
    per_run = {}
    for row in rows:
        per_run.setdefault(row[0], []).append(row)
    for run_rows in per_run.values():
        indices = [int(r[1]) for r in run_rows]
        assert indices == list(range(1, len(indices) + 1))
        restarts = [int(r[4]) for r in run_rows]
        assert restarts[0] == 1
        assert all(b - a in (0, 1) for a, b in zip(restarts, restarts[1:]))
        # a restart boundary row is that run's first evaluation: a record
        for prev, cur in zip(run_rows, run_rows[1:]):
            if int(cur[4]) != int(prev[4]):
                assert cur[3] == "1"
        assert all(r[5] == "rdmss" for r in run_rows)


def read_runs(path):
    """The rows of a history CSV, grouped by ``run_id`` in file order."""
    with open(path, newline="") as fh:
        per_run = {}
        for rec in csv.DictReader(fh):
            per_run.setdefault(rec["run_id"], []).append(rec)
    return per_run


def test_sorted_history_mode(tmp_path):
    # styblinski_tang's restarts end at shared local minima, so its runs tie
    # values across rows of different restarts
    fields = ("f_value", "is_record", "restart_index", "algorithm")
    ties = 0
    for objective in ("zakharov", "styblinski_tang"):
        _, reports = bench.run_experiment(small_config(objective=objective, runs=3))
        chronological, path = tmp_path / f"{objective}.csv", tmp_path / f"{objective}_sorted.csv"
        bench.emit_history(reports, str(chronological))
        bench.emit_history(reports, str(path), sort_values=True)
        before, after = read_runs(chronological), read_runs(path)
        assert list(after) == list(before) == ["0", "1", "2"]
        for run_id, rows in after.items():
            values = [float(r["f_value"]) for r in rows]
            assert all(b <= a for a, b in zip(values, values[1:]))
            assert [int(r["eval_index"]) for r in rows] == list(range(1, len(rows) + 1))
            # a stable sort of the chronological rows by non-increasing value:
            # every row keeps its flag, restart and algorithm, ties keep their order
            stable = sorted(before[run_id], key=lambda r: -float(r["f_value"]))
            assert [tuple(r[k] for k in fields) for r in rows] == [tuple(r[k] for k in fields) for r in stable]
            ties += sum(
                a["f_value"] == b["f_value"] and a["restart_index"] != b["restart_index"]
                for a, b in zip(rows, rows[1:])
            )
    assert ties > 0  # the order of ties is checked


def test_reproducible_summaries(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    bench.run_experiment(small_config(), out_dir=str(a))
    bench.run_experiment(small_config(), out_dir=str(b))
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()


def test_parallel_serial_equivalence(tmp_path):
    a, b = tmp_path / "serial", tmp_path / "parallel"
    bench.run_experiment(small_config(workers=1), out_dir=str(a))
    bench.run_experiment(small_config(workers=3), out_dir=str(b))
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_aggregate_recomputed_from_history(tmp_path):
    # as written, with the runs' rows interleaved, and ranked by value
    config = small_config(objective="styblinski_tang", runs=6)
    aggregate, reports = bench.run_experiment(config, out_dir=str(tmp_path))
    written = tmp_path / "history.csv"

    def redo(path):
        return bench.aggregate_from_history(str(path), config.objective, config.dim, config.eps_base).to_dict()

    assert redo(written) == aggregate.to_dict()
    # rows of different runs interleaved at random, each run's rows in order
    with open(written, newline="") as fh:
        header, *rows = csv.reader(fh)
    pending = {}
    for row in rows:
        pending.setdefault(row[0], []).append(row)
    turns = [row[0] for row in rows]
    random.Random(0).shuffle(turns)
    shuffled = tmp_path / "shuffled.csv"
    with open(shuffled, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + [pending[run_id].pop(0) for run_id in turns])
    assert shuffled.read_bytes() != written.read_bytes()
    assert redo(shuffled) == redo(written)
    # ranked by non-increasing value, a run's rows within epsilon of f* are
    # its lowest, so its first hit is ranked after all its other rows
    ranked = tmp_path / "sorted.csv"
    bench.emit_history(reports, str(ranked), sort_values=True)
    f_star = make(config.objective, config.dim).f_star
    within = [sum(abs(v - f_star) <= config.epsilon for v in r.values) for r in reports]
    first_hits = [r.total_evals - n + 1 for r, n in zip(reports, within) if n]
    assert 0 < len(first_hits) == aggregate.success_count
    expected = aggregate.to_dict() | {"avg_evals_to_target": float(np.mean(first_hits))}
    assert redo(ranked) == expected


def test_aggregate_from_history_holds_no_rows(tmp_path):
    # 20 runs x 1,000 rows, 10 rows per restart, each run reaching f* = 0
    # at its last row; an oracle holding every row peaks near 9 MB here
    path = tmp_path / "history.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(bench.HISTORY_HEADER)
        for run_id in range(20):
            writer.writerows(
                [run_id, i, repr(1000.0 - i), int(i % 7 == 1), (i - 1) // 10 + 1, "rdmss"] for i in range(1, 1001)
            )
    tracemalloc.start()
    try:
        report = bench.aggregate_from_history(str(path), "zakharov", 5, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.to_dict() == {
        "avg_restarts": 100.0,
        "avg_evals_to_target": 1000.0,
        "avg_inner_iterations": 10.0,
        "avg_total_evals": 1000.0,
        "success_count": 20,
        "runs": 20,
    }
    assert peak < 1_000_000


def test_single_run_experiment():
    aggregate, reports = bench.run_experiment(small_config(runs=1, algorithm="dmss"))
    assert aggregate.runs == 1
    assert aggregate.success_count == 1  # convex objective: every run converges
    assert reports[0].algorithm == "dmss"


def test_ncg_baseline_single_descent():
    aggregate, reports = bench.run_experiment(small_config(algorithm="ncg", runs=3))
    for r in reports:
        assert r.restarts == 1
        assert max(restart for _, _, restart in history_rows(r)) == 1
    assert aggregate.success_count == 3  # convex objective


def test_ncg_experiment_runs_the_shared_driver():
    cfg = small_config(algorithm="ncg", objective="rosenbrock", runs=3)
    _, reports = bench.run_experiment(cfg)
    spec = make("rosenbrock", 5)
    for i, report in enumerate(reports):
        (direct,) = run_block(spec, cfg.algo_params(), [bench.derive_seed(cfg.seed, i)])
        assert report.algorithm == "ncg"
        assert history_rows(report) == history_rows(direct)


# f, grad and hvp evaluations, engine steps and rejected line-search probes
# of the first 5 runs of each canonical configuration (d=5, master seed 52),
# summed over runs and restarts; counted by wrapping the oracle methods and
# the engine step of the one-point engine that the block engine replaced.
# The "deep" entries are the first 2 runs of the deep-confidence configs
# of tests/test_golden.py (delta=1e-30, ~100 restarts per run), recorded
# from the block engine before restarts were descended in waves.  The
# styblinski_tang dmss, rdmss and deep entries were re-recorded from these
# per-restart sums when its powers moved onto the C library's pow, which
# moves its values in the last bits and lengthens a few restarts by an
# iterate; test_newton_cg holds the block engine's counts to the one-point
# engine's.
COST_TOTALS = {
    ("centered_sinusoidal", "dmss"): (602, 373, 884, 329, 229),
    ("centered_sinusoidal", "rdmss"): (593, 366, 865, 322, 227),
    ("centered_sinusoidal", "ncg"): (59, 38, 89, 33, 21),
    ("rhe", "dmss"): (140, 140, 350, 70, 0),
    ("rhe", "rdmss"): (140, 140, 350, 70, 0),
    ("rhe", "ncg"): (10, 10, 25, 5, 0),
    ("rosenbrock", "dmss"): (990, 820, 3739, 782, 170),
    ("rosenbrock", "rdmss"): (524, 433, 1915, 403, 91),
    ("rosenbrock", "ncg"): (139, 115, 486, 110, 24),
    ("shifted_sinusoidal", "dmss"): (731, 413, 969, 369, 318),
    ("shifted_sinusoidal", "rdmss"): (568, 397, 930, 350, 171),
    ("shifted_sinusoidal", "ncg"): (93, 40, 92, 36, 53),
    ("styblinski_tang", "dmss"): (1438, 451, 1412, 421, 987),
    ("styblinski_tang", "rdmss"): (1078, 451, 1394, 409, 627),
    ("styblinski_tang", "ncg"): (87, 42, 127, 38, 45),
    ("zakharov", "dmss"): (620, 620, 676, 571, 0),
    ("zakharov", "rdmss"): (574, 574, 629, 524, 0),
    ("zakharov", "ncg"): (66, 66, 73, 61, 0),
    ("styblinski_tang", "rdmss", "deep"): (4033, 1686, 5300, 1531, 2347),
    ("zakharov", "dmss", "deep"): (2443, 2443, 2690, 2251, 0),
}


@pytest.mark.parametrize("key", sorted(COST_TOTALS), ids="-".join)
def test_restart_costs_sum_to_the_one_point_engine_counts(key):
    objective, algorithm, *deep = key
    settings = dict(runs=2, delta=1e-30) if deep else dict(runs=5)
    cfg = bench.ExperimentConfig(objective=objective, dim=5, algorithm=algorithm, seed=bench.DEFAULT_SEED, **settings)
    _, reports = bench.run_experiment(cfg)
    # a restart's gradient count is its iterate count
    restarts = [restart for report in reports for restart in report.run_stats]
    totals = tuple(
        sum(getattr(restart, name) for restart in restarts)
        for name in ("f_evals", "iterates", "hvp_evals", "steps", "rejected_probes")
    )
    assert totals == COST_TOTALS[key]


def test_compare_identical_and_mismatched(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    bench.run_experiment(small_config(), out_dir=str(a))
    bench.run_experiment(small_config(), out_dir=str(b))
    result = bench.compare(str(a / "summary.json"), str(b / "summary.json"))
    for metric in result["metrics"].values():
        assert metric["delta"] in (0, 0.0)
        assert metric["verdict"] == "equal"
    other = tmp_path / "other"
    bench.run_experiment(small_config(objective="rosenbrock"), out_dir=str(other))
    with pytest.raises(ValueError, match="objective"):
        bench.compare(str(a / "summary.json"), str(other / "summary.json"))


def test_compare_direction(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    bench.run_experiment(small_config(algorithm="dmss", runs=6), out_dir=str(a))
    bench.run_experiment(small_config(algorithm="rdmss", runs=6), out_dir=str(b))
    result = bench.compare(str(a / "summary.json"), str(b / "summary.json"))
    assert result["algorithm_a"] == "dmss" and result["algorithm_b"] == "rdmss"
    delta = result["metrics"]["avg_total_evals"]
    assert delta["delta"] == delta["b"] - delta["a"]


def test_cli_run_and_compare(tmp_path, capsys):
    out_a = tmp_path / "cli_a"
    out_b = tmp_path / "cli_b"
    for out, algo in ((out_a, "dmss"), (out_b, "rdmss")):
        code = bench.main(
            [
                "run",
                "--objective", "zakharov",
                "--dim", "5",
                "--algo", algo,
                "--runs", "3",
                "--seed", "100",
                "--workers", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 3
    cmp_path = tmp_path / "comparison.json"
    code = bench.main(
        ["compare", str(out_a / "summary.json"), str(out_b / "summary.json"), "--out", str(cmp_path)]
    )
    assert code == 0
    assert json.loads(cmp_path.read_text())["objective"] == "zakharov"


def test_cli_run_defaults_are_the_config_defaults(monkeypatch, tmp_path, capsys):
    # every flag left out takes ExperimentConfig's default, the worker
    # count too, and the worker count never reaches summary.json
    configs = []
    run_experiment = bench.run_experiment

    def run(config, out_dir=None):
        configs.append(config)
        return run_experiment(config, out_dir=out_dir)

    monkeypatch.setattr(bench, "run_experiment", run)
    code = bench.main(["run", "--objective", "rhe", "--algo", "ncg", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    assert configs == [bench.ExperimentConfig("rhe", 5, "ncg")]
    expected = asdict(configs[0])
    del expected["workers"]
    assert json.loads((tmp_path / "summary.json").read_text())["config"] == expected


def test_cli_validate_theory_smoke(tmp_path, capsys):
    out = tmp_path / "theory.json"
    code = bench.main(
        ["validate-theory", "--trajectories", "2000", "--seed", "1", "--out", str(out)]
    )
    payload = json.loads(out.read_text())
    assert set(payload) == {"power_law", "classical"}
    names = {c["name"] for c in payload["power_law"]["checks"]}
    assert "poisson_mean_records" in names
    # exit status reflects whether every check passed
    all_ok = all(c["pass"] for sec in payload.values() for c in sec["checks"])
    assert code == (0 if all_ok else 1)
    capsys.readouterr()


def test_cli_validate_theory_defaults_are_the_lab_defaults(monkeypatch, capsys):
    # every flag left out takes LabConfig's default
    configs = []

    def validate(config):
        configs.append(config)
        return hasplid.validate_statistics(config)

    monkeypatch.setattr(bench, "validate_statistics", validate)
    bench.main(["validate-theory"])
    capsys.readouterr()
    assert configs == [hasplid.LabConfig(alpha=alpha, lam=1.0) for alpha in (0.5, 1.0)]


def test_numpy_scalars_in_a_config_write_the_plain_configs_artifacts(tmp_path):
    # the configs accept numpy integers, so the writers must take them too:
    # summary.json and the lab report write each as its Python value
    plain = dict(objective="rhe", dim=3, algorithm="dmss", runs=2, seed=52, max_total_evals=1000)
    numpy = {**plain, **{k: np.int64(plain[k]) for k in ("dim", "runs", "seed", "max_total_evals")}}
    artifacts = []
    for name, fields in (("plain", plain), ("numpy", numpy)):
        bench.run_experiment(bench.ExperimentConfig(**fields), out_dir=str(tmp_path / name))
        artifacts.append([(tmp_path / name / f).read_bytes() for f in ("history.csv", "summary.json")])
    assert artifacts[0] == artifacts[1]
    bench.run_experiment(bench.ExperimentConfig(**plain, alpha=np.float32(0.5)), out_dir=str(tmp_path / "float32"))
    assert json.loads((tmp_path / "float32" / "summary.json").read_text())["config"]["alpha"] == 0.5
    lab = [hasplid.validate_statistics(hasplid.LabConfig(trajectories=n)).to_json() for n in (2000, np.int64(2000))]
    assert lab[0] == lab[1]
    # any other object still fails
    with pytest.raises(TypeError):
        bench._json({"config": object()})


def test_config_validation():
    with pytest.raises(ValueError):
        bench.ExperimentConfig(objective="zakharov", dim=5, algorithm="sgd")
    with pytest.raises(ValueError):
        bench.ExperimentConfig(objective="zakharov", dim=5, algorithm="dmss", runs=0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            bench.ExperimentConfig(objective="zakharov", dim=5, algorithm="dmss", workers=workers)
    # counts and seeds that are not integers fail when the config is built:
    # 2.5 runs or 1.5 workers would fail inside a run, runs=True would run 1
    # run and write "runs": true, and seed 52.0 or True would seed other
    # runs than 52 or 1
    for bad, message in (
        ({"runs": 2.5}, "runs"),
        ({"runs": True}, "runs"),
        ({"workers": 1.5}, "workers"),
        ({"workers": True}, "workers"),
        ({"seed": 52.0}, "seed"),
        ({"seed": True}, "seed"),
        ({"dim": 5.0}, "dimension"),
    ):
        with pytest.raises(ValueError, match=message):
            bench.ExperimentConfig(**{"objective": "zakharov", "dim": 5, "algorithm": "dmss", **bad})
    assert bench.ExperimentConfig("zakharov", np.int64(5), "dmss", runs=np.int64(2), seed=np.int64(52)).runs == 2
    # bad parameters fail when the config is built, not in a run
    for bad, message in (
        ({"alpha": 2.0}, "alpha"),
        ({"alpha": True}, "alpha"),  # True is in (0, 1] as 1 and would be written as true
        ({"max_total_evals": 0}, "max_total_evals"),
        ({"max_total_evals": 2.5}, "max_total_evals"),
        ({"max_total_evals": math.inf}, "max_total_evals"),
        ({"max_total_evals": True}, "max_total_evals"),
        ({"ptilde_scale": math.nan}, "ptilde_scale"),
        ({"ptilde_scale": math.inf}, "ptilde_scale"),
        ({"ptilde_scale": True}, "ptilde_scale"),
        ({"eps_base": 0.01, "dim": 200}, "epsilon"),  # 0.01**200 underflows to 0
        ({"dim": 1}, "dimension"),
        ({"dim": 0}, "dimension"),  # not the epsilon check that 0.01**0 = 1 fails
    ):
        with pytest.raises(ValueError, match=message):
            bench.ExperimentConfig(**{"objective": "zakharov", "dim": 5, "algorithm": "dmss", **bad})
    with pytest.raises(KeyError):
        bench.run_experiment(
            bench.ExperimentConfig(objective="nope", dim=5, algorithm="dmss", runs=1)
        )
