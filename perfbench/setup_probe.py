"""Print the seconds a fresh interpreter takes to import recordstart and
build its objectives.  Run with the checkout's ``src`` on PYTHONPATH."""

import time

t0 = time.perf_counter()
# importing any submodule imports the whole package first
from recordstart.objectives import OBJECTIVE_IDS, make  # noqa: E402

for name in OBJECTIVE_IDS:
    make(name, 5)
print(repr(time.perf_counter() - t0))
