"""Run the chosen workloads, each with a traced repetition, and print every
end-to-end metric by name and unit with the per-layer table beside it.

Usage: python3 bench/report.py [--workloads run-n420,theory-grid8] [--seed N]
                               [--seconds S]
"""

from __future__ import annotations

import argparse
import sys

from run import BenchError, format_report, run_workload
from workloads import WORKLOADS


def main(argv=None) -> int:
    default = ",".join(name for name, w in WORKLOADS.items() if w.listed)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=default)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, trace=True)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(format_report(record)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
