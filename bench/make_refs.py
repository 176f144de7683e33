"""Record the reference outputs that the benchmark's correctness gate checks.

Usage: python3 bench/make_refs.py WORKLOAD [WORKLOAD ...] [--refs DIR]

Runs each workload once per pinned instance, untraced, and stores the
outputs the gate compares (records without wall_time, theory statuses and
capacities, Markov members).  Run it only on a commit whose outputs are the
accepted reference; the stored files are committed under bench/refs.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

from run import OUT_DIR, prepare, spawn
from workloads import INSTANCES, REFS_DIR, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    parser.add_argument("--refs", default=REFS_DIR)
    parser.add_argument("--instances", type=int, default=INSTANCES,
                        help="record instances 0 .. N-1")
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in args.workloads:
        os.makedirs(os.path.join(args.refs, name), exist_ok=True)
        for instance in range(args.instances):
            work = tempfile.mkdtemp(prefix=f"refs-{name}-", dir=OUT_DIR)
            try:
                job = prepare(WORKLOADS[name], instance, work, args.refs)
                result = spawn(dict(job, mode="command", save_ref=True), work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result["failed"]:
                print(f"{name} instance {instance}: {result['failed']}", file=sys.stderr)
                return 1
            print(f"{name} instance {instance}: {result['attempted']} operations, "
                  f"{result['wall_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
