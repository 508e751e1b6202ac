#!/usr/bin/env python3
"""Monte-Carlo validation of the record-value closed forms at full
trajectory count; equivalent to `bench validate-theory`, whose options it
takes.

    python scripts/validate_theory.py --trajectories 100000 --out theory.json
"""

import sys

from recordstart.bench import main as bench_main

if __name__ == "__main__":
    sys.exit(bench_main(["validate-theory", *sys.argv[1:]]))
