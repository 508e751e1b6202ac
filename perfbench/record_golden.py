#!/usr/bin/env python3
"""Record the sha256 digests of every canonical history.csv and
summary.json into perfbench/golden.json.

    python3 perfbench/record_golden.py

Run it from the root of a source checkout at the commit whose artifacts
are the reference; ``bench.digest_mismatch`` counts the artifacts that
differ from these digests.
"""

import json
import sys

from run import HERE, SRC

sys.path.insert(0, str(SRC))
from recordstart import bench  # noqa: E402
from workloads import Canonical, run_pass  # noqa: E402


def main() -> int:
    workload = Canonical(bench)
    result = run_pass(workload, workload.configs, str(HERE / "out" / "golden"))
    if result.problems or result.failed:
        print("\n".join(result.problems) or f"{result.failed} failed runs", file=sys.stderr)
        return 1
    with open(HERE / "golden.json", "w") as fh:
        json.dump({workload.name: dict(sorted(result.digests.items()))}, fh, indent=2)
        fh.write("\n")
    print(f"recorded {len(result.digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
