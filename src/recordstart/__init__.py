"""Record-value multi-start global optimization.

Subpackages: :mod:`recordstart.special` (closed-form record statistics),
:mod:`recordstart.hasplid` (Monte-Carlo lab), :mod:`recordstart.objectives`
(benchmark functions), :mod:`recordstart.newton_cg` (inner search),
:mod:`recordstart.multistart` (DMSS/RDMSS drivers and the bare
Newton-CG baseline, one loop), :mod:`recordstart.bench`
(experiment CLI).

The names below are imported from their modules on first use, so
importing one submodule does not import the others.
"""

from importlib import import_module

__all__ = [
    "AlgoParams",
    "ExperimentConfig",
    "make",
    "run_experiment",
]

_HOMES = {
    "AlgoParams": "multistart",
    "ExperimentConfig": "bench",
    "make": "objectives",
    "run_experiment": "bench",
}


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
