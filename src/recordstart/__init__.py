"""Record-value multi-start global optimization.

Subpackages: :mod:`recordstart.special` (closed-form record statistics),
:mod:`recordstart.hasplid` (Monte-Carlo lab), :mod:`recordstart.objectives`
(benchmark functions), :mod:`recordstart.newton_cg` (inner search),
:mod:`recordstart.multistart` (DMSS/RDMSS drivers and the bare
Newton-CG baseline, one loop), :mod:`recordstart.bench`
(experiment CLI).
"""

__all__ = []
