"""Golden artifacts: the sha256 of ``history.csv`` for every canonical
configuration (6 objectives x {dmss, rdmss, ncg}, d=5, master seed 52)
at 5 runs, and for two deep-confidence configurations (``delta=1e-30``)
at 2 runs.

Run ``i`` is seeded by ``derive_seed(52, i)``, so 5 runs are a prefix of
the paper's 50-run table.  A history row changes only if a decision of
the program changes: which iterate a record is, when a restart stops,
when the global run ends.  These digests therefore guard every rewrite
of the record statistics against moving a threshold across an integer
boundary.  A change that alters them on purpose must say why and
re-record them.
"""

import hashlib

import pytest

from recordstart import bench

CANONICAL = {
    ("centered_sinusoidal", "dmss"): "12c112b121d723ef1e0ec2d4814997d424e89b5ca0a719c92523f77d04d3a637",
    ("centered_sinusoidal", "rdmss"): "50054fb437c08c17e81defea8c5c82680ff38198797d532068fedc213bf819f2",
    ("centered_sinusoidal", "ncg"): "8934ee72260e5fcc95778a9684ee44e7f1f3e0b69f5c0357d803f471d2f1f213",
    ("rhe", "dmss"): "b1ae6a5121b3c8b2be25a13981568b197a68ce0bc63ae805897259036bcd4442",
    ("rhe", "rdmss"): "43fd43723880d34214027716a7e99ecc0a9255cbda2bec912d7b10df7cef9db2",
    ("rhe", "ncg"): "eed29b1cfa4f49c471030716df294a7b651611cea13b47051ac9116e9c0cec7d",
    ("rosenbrock", "dmss"): "335e86811eab91f59c64ac334f0dc23b38a649a5afe004aa86a4ee1d2027819f",
    ("rosenbrock", "rdmss"): "c3072265a39dd7baa3b20ef572a0e74cfecc461d41d1cb4268654152f4b54df3",
    ("rosenbrock", "ncg"): "d865587e0945cb40024734eb68dadbd64f0a86d8ab21206c8c52d4000e7fe541",
    ("shifted_sinusoidal", "dmss"): "55e95cec1beb11d3678593dc4779061ccb0c71133f814d5c6d3a093ddfa5f2e4",
    ("shifted_sinusoidal", "rdmss"): "c4507cd56ee9f46da492da7eb5fe375508f3cbee6e455dec362dc0814ae79747",
    ("shifted_sinusoidal", "ncg"): "ab320d6965c825e9a953ab5086c3966f7419338f97a5f53b907773e3f4a8c74b",
    ("styblinski_tang", "dmss"): "629fe52d8ed329051b9b4e4f80606588a0df05f62f4f7ace67bc6e703bcef825",
    ("styblinski_tang", "rdmss"): "6b3449198ee7aa2e4d91baf91016588ab14f272bca36a82767ed36c1b3e090a8",
    ("styblinski_tang", "ncg"): "52711a2a7347353ee459a6f43588cebad854cd5f22c8d1b0f92ac983be30274a",
    ("zakharov", "dmss"): "d29c5428d5ce8a6c771994212879d4d01718d5c8cea48d3217552190c863392a",
    ("zakharov", "rdmss"): "fb9c3047ef01c546efcc9e635e77811cd517a8760b2c5859c0aa094a4d245d7a",
    ("zakharov", "ncg"): "f7eeac74f7e6ee986e4ced0245b2ec865d67fa6e932014529fa5472458566420",
}

DEEP = {
    ("zakharov", "dmss"): "b2cb6ccab7e34ae3cafb72536d9d5a9decac7a13c06452628dec4702f9979680",
    ("styblinski_tang", "rdmss"): "ce750081c5cbe6f0b45abcb19db3216e8aa12d58bec400967c5132b5a6bf9e13",
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
