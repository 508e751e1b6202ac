"""Golden artifacts: the sha256 of ``history.csv`` for every canonical
configuration (6 objectives x {dmss, rdmss, ncg}, d=5, master seed 52)
at 5 runs, for two deep-confidence configurations (``delta=1e-30``)
at 2 runs, and of the lab's validation report at both bettering
exponents of ``bench validate-theory`` (20,000 trajectories, seed 0) and
at the acceptance tests' 100,000 trajectories.

Run ``i`` is seeded by ``derive_seed(52, i)``, so 5 runs are a prefix of
the paper's 50-run table.  A history row changes only if a decision of
the program changes: which iterate a record is, when a restart stops,
when the global run ends.  These digests therefore guard every rewrite
of the record statistics against moving a threshold across an integer
boundary.  A change that alters them on purpose must say why and
re-record them.

The ncg digests of rosenbrock, shifted_sinusoidal and zakharov were
re-recorded when the baseline moved onto the shared driver loop and began
flagging records with ``RECORD_TOL``: rows that improve on the last record
by less than that tolerance are no longer records.  No value, index or
restart changed.

The styblinski_tang digests were re-recorded when its ``x**4`` and
``x**3`` moved from numpy's vectorized ``power``, whose last bit follows
the CPU's SIMD dispatch, onto the C library's ``pow``.  Values move in
the last bits, and one restart of the dmss and of the rdmss history, and
two of the deep one, reach the same floor value one iterate later.  No
run pinned here changed its restart count.

The lab digests cover every statistic, closed-form value and pass flag
of the report, and the design it states (range model, target level,
slope window, horizons).  They were re-recorded when the exact slope
law's mean improvement became ``y/(lam+1)`` in closed form instead of a
64-point quadrature: ``conditional_slope_mean_exact.theoretical`` moved
by one ulp at both exponents, and no statistic or pass flag changed.
They were re-recorded again when ``special.expected_records`` and
``special.record_count_pmf`` moved from digamma and Stirling-number
forms onto the record law's per-iterate probabilities ``zeta/(i+zeta)``:
in each report ``record_count_pmf_short_horizon.statistic`` (a deviation
from the pmf) and ``expected_records_long_horizon.theoretical`` moved in
the last digits, and no other number or pass flag changed.  They were
re-recorded once more when ``special.p_fail_histogram`` took each Poisson
term from the last by the ratio ``x/s``: only
``third_record_survival.theoretical``, ``G(3, poi)``, moved, by one ulp
at both exponents.  They were re-recorded when the lab stopped drawing
for a trajectory whose records can no longer change a statistic: the
first three records are drawn as before, so ``third_record_survival`` and
``record_count_pmf_short_horizon`` kept their bits, and every other
statistic comes from a different sample of the same law.  Every pass flag
stayed as it was, and the record-count variance became the exact
population variance of the counts, rounded once.

The decision digests of :mod:`decisions` hash every ``RunReport`` field of
the seed-52 table at 50 runs and of all 18 configs at ``delta=1e-30`` at
10 runs: ``zeta_w``, ``p_fail`` and each ``Restart``'s costs, which no
artifact holds, included.
"""

import hashlib

import pytest

import decisions
from recordstart import bench, hasplid

CANONICAL = {
    ("centered_sinusoidal", "dmss"): "12c112b121d723ef1e0ec2d4814997d424e89b5ca0a719c92523f77d04d3a637",
    ("centered_sinusoidal", "rdmss"): "50054fb437c08c17e81defea8c5c82680ff38198797d532068fedc213bf819f2",
    ("centered_sinusoidal", "ncg"): "8934ee72260e5fcc95778a9684ee44e7f1f3e0b69f5c0357d803f471d2f1f213",
    ("rhe", "dmss"): "b1ae6a5121b3c8b2be25a13981568b197a68ce0bc63ae805897259036bcd4442",
    ("rhe", "rdmss"): "43fd43723880d34214027716a7e99ecc0a9255cbda2bec912d7b10df7cef9db2",
    ("rhe", "ncg"): "eed29b1cfa4f49c471030716df294a7b651611cea13b47051ac9116e9c0cec7d",
    ("rosenbrock", "dmss"): "335e86811eab91f59c64ac334f0dc23b38a649a5afe004aa86a4ee1d2027819f",
    ("rosenbrock", "rdmss"): "c3072265a39dd7baa3b20ef572a0e74cfecc461d41d1cb4268654152f4b54df3",
    ("rosenbrock", "ncg"): "50f0b97b753535a8259b7f6c06f0518ed6d3a6f970e55c019243a13a4de64b41",
    ("shifted_sinusoidal", "dmss"): "55e95cec1beb11d3678593dc4779061ccb0c71133f814d5c6d3a093ddfa5f2e4",
    ("shifted_sinusoidal", "rdmss"): "c4507cd56ee9f46da492da7eb5fe375508f3cbee6e455dec362dc0814ae79747",
    ("shifted_sinusoidal", "ncg"): "8da2ac38dc0b26caf19b89d6b6e6b48320be111043b4a0103fcf11081d25a6a3",
    ("styblinski_tang", "dmss"): "3f8de4569d777c7eacfef1954817740320cc94ce858aa65500218f7448854cd1",
    ("styblinski_tang", "rdmss"): "aa330cfda9682fadeeb761f3803e26b70a9c20c13446d15362ca19c1b5a3e9be",
    ("styblinski_tang", "ncg"): "c05462c0a24471d1906740f15066137f23c58a18b9f9d93680d840d3bf7f7cae",
    ("zakharov", "dmss"): "d29c5428d5ce8a6c771994212879d4d01718d5c8cea48d3217552190c863392a",
    ("zakharov", "rdmss"): "fb9c3047ef01c546efcc9e635e77811cd517a8760b2c5859c0aa094a4d245d7a",
    ("zakharov", "ncg"): "1ad8d7528d714f2801832333ce471def6e9d6ecd37d12b5acbd51c58777036fb",
}

DEEP = {
    ("zakharov", "dmss"): "b2cb6ccab7e34ae3cafb72536d9d5a9decac7a13c06452628dec4702f9979680",
    ("styblinski_tang", "rdmss"): "71fa7fe4ee5658246d6f7054cfda3628cebf2e8e0c96cb211f56a6956144de5e",
}

# by (alpha, trajectories): bench validate-theory's 20,000 and the
# acceptance tests' 100,000
LAB = {
    (0.5, 20_000): "aeb4247d85ff0b24189c4a2d66e734135d9bbe2e887d1b5ecd6aa25ff9c7444e",
    (1.0, 20_000): "27e389a7a232d42c6fe8c6b144160be1a839484340a13d010be93e3d2f54a673",
    (0.5, 100_000): "56d3f0fa0dbbe4b9df69bb70fe34f9bb522c5c723d6f9bfb07b2e9402bdf5818",
    (1.0, 100_000): "48eb2939dbf8fd47d6bba462c68de6a3119ac68ec61573d4a92b491f27e8ed24",
}


# tests/decisions.py's digests of every RunReport field, per set of configs
DECISIONS = {
    "table": "3c4777a9366bc3e35148b86f740183d29e75f70c5417509c395720540abaa767",
    "deep": "10f625e1df90081fc6a505e915f75ab17ab22ac34c5289a65b5545919b6356e9",
}


def history_digest(tmp_path, **config) -> str:
    cfg = bench.ExperimentConfig(dim=5, seed=bench.DEFAULT_SEED, workers=1, **config)
    bench.run_experiment(cfg, out_dir=str(tmp_path))
    return hashlib.sha256((tmp_path / "history.csv").read_bytes()).hexdigest()


def test_canonical_table_covers_every_config():
    from recordstart.objectives import OBJECTIVE_IDS

    assert set(CANONICAL) == {(o, a) for o in OBJECTIVE_IDS for a in bench.ALGORITHMS}


@pytest.mark.parametrize("objective,algorithm", sorted(CANONICAL))
def test_canonical_history_digest(tmp_path, objective, algorithm):
    digest = history_digest(tmp_path, objective=objective, algorithm=algorithm, runs=5)
    assert digest == CANONICAL[(objective, algorithm)]


@pytest.mark.parametrize("objective,algorithm", sorted(DEEP))
def test_deep_confidence_history_digest(tmp_path, objective, algorithm):
    digest = history_digest(tmp_path, objective=objective, algorithm=algorithm, delta=1e-30, runs=2)
    assert digest == DEEP[(objective, algorithm)]


@pytest.mark.parametrize(
    "alpha,trajectories", sorted(LAB), ids=[f"{a}" if n == 20_000 else f"{a}-{n}" for a, n in sorted(LAB)]
)
def test_lab_report_digest(alpha, trajectories):
    config = hasplid.LabConfig(alpha=alpha, lam=1.0, trajectories=trajectories, seed=0)
    text = hasplid.validate_statistics(config).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == LAB[alpha, trajectories]


@pytest.mark.parametrize("name", sorted(DECISIONS))
def test_decision_digest(name):
    assert decisions.digest(decisions.SETS[name]()) == DECISIONS[name]
