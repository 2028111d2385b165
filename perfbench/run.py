#!/usr/bin/env python3
"""heraldsim benchmark entry point.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

Generates the workload's `.exp` inputs from the seed, runs the `heraldsim`
CLI on them from the sources under `src/`, checks every output and prints
the metrics; the last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  `--trace 1` replays
the same invocations in-process with layer spans and reports the per-layer
metrics instead.  `--smoke` shrinks pulse counts and the sweep so the
harness can check itself quickly.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("exact", "mc_pulse", "mc_aggregate")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time; whole passes are run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pulse counts and a 2-step sweep")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heraldsim" / "__init__.py").is_file():
        print(f"error: no heraldsim package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
