"""The transduct benchmark: one workload, end-to-end metrics, optional trace.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--refs DIR]

The seed picks a pinned instance (seed % INSTANCES) whose config files are
generated here; the program only receives those configs.  One run

1. repeats the workload's commands, each repetition in a fresh process,
   until they have taken ``--seconds`` (at least once), checking every
   output against the stored reference;
2. times set-up ``SETUP_REPS`` times, each in a fresh process, and keeps the
   median (``setup_s``);
3. times the infeasible twin in ``TWIN_PROCESSES`` fresh processes and keeps
   the mean of their mean call times (``reject_s``);
4. with ``--trace 1``, adds one traced repetition and reports the per-layer
   metrics instead of the end-to-end ones.

Set-up and twin processes run between repetitions, spread over the run.

Every process runs with BLAS threads capped at the number of usable cores.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric by
name and unit.  The full results, environment and spans are written under
``bench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import (BENCH_DIR, END_TO_END, INSTANCES, PER_LAYER, REFS_DIR, ROOT,
                       WORKLOADS, read_json, ref_path, write_json)

SETUP_REPS = 3
TWIN_PROCESSES = 3
CHILD_TIMEOUT_S = 170
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads, TRANSDUCT_LOG="warning")


def spawn(job: dict, work: str) -> dict:
    """Run one worker process to completion and return its result."""
    tag = f"{job['mode']}-{len(os.listdir(work))}"
    job = dict(job, result=os.path.join(work, f"{tag}.result.json"))
    job_path = os.path.join(work, f"{tag}.job.json")
    write_json(job_path, job)
    try:
        proc = subprocess.run([sys.executable, WORKER, job_path], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} worker exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return read_json(job["result"])


def prepare(workload, instance: int, work: str, refs_dir: str) -> dict:
    """Write the instance's configs; return the job fields every worker needs."""
    config = os.path.join(work, "config.json")
    twin = os.path.join(work, "twin.json")
    write_json(config, workload.config(instance))
    write_json(twin, workload.twin_config(instance))
    return {"workload": workload.name, "config": config, "twin_config": twin,
            "work": work, "ref": ref_path(refs_dir, workload.name, instance),
            "trace": False}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(count: int) -> float:
    """p95 when at least 10 samples lie beyond it, else the highest quantile
    that has 10 beyond it; with 20 samples or fewer, the maximum."""
    if count * 0.05 >= 10:
        return 0.95
    return 1.0 - 10.0 / count if count > 20 else 1.0


def source_identity() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "transduct")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {"git_rev": git_rev, "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs_dir: str = REFS_DIR) -> dict:
    """Measure one workload; returns the full result record."""
    workload = WORKLOADS[name]
    instance = seed % INSTANCES
    if not os.path.isfile(os.path.join(ROOT, "src", "transduct", "__init__.py")):
        raise BenchError(f"no transduct sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(ref_path(refs_dir, name, instance)):
        raise BenchError(f"no reference output {ref_path(refs_dir, name, instance)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR)
    try:
        job = prepare(workload, instance, work, refs_dir)
        # set-up and twin processes are spread evenly over the repetitions,
        # so that every metric samples the whole run rather than one stretch
        # of it; the host's speed changes in phases of seconds to minutes
        setups, twins, reps = [], [], []
        measured = 0.0
        while not reps or measured < seconds:
            if len(setups) < SETUP_REPS and measured >= len(setups) * seconds / SETUP_REPS:
                setups.append(spawn(dict(job, mode="setup"), work)["setup_s"])
            if len(twins) < TWIN_PROCESSES and measured >= len(twins) * seconds / TWIN_PROCESSES:
                twins.append(spawn(dict(job, mode="twin"), work))
            start = time.perf_counter()
            reps.append(spawn(dict(job, mode="command"), work))
            measured += time.perf_counter() - start
        while len(setups) < SETUP_REPS:
            setups.append(spawn(dict(job, mode="setup"), work)["setup_s"])
        while len(twins) < TWIN_PROCESSES:
            twins.append(spawn(dict(job, mode="twin"), work))
        traced = spawn(dict(job, mode="command", trace=True), work) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # times are means over repetitions, not medians: a short call runs at
    # one of two host speeds up to 1.7x apart, and the median of such values
    # jumps between them.  Round percentiles are taken per repetition, so
    # that the quantile does not depend on how many repetitions fit in the
    # run.  A repetition whose command failed has no rounds and counts in
    # `failed` instead.
    rounds = [rep["rounds_ms"] for rep in reps if rep["rounds_ms"]] or [[0.0]]
    tail_q = tail_quantile(len(rounds[0]))
    metrics = {
        "wall_s": statistics.fmean(rep["wall_s"] for rep in reps),
        "round_p50_ms": statistics.fmean(percentile(r, 0.5) for r in rounds),
        "round_p95_ms": statistics.fmean(percentile(r, tail_q) for r in rounds),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "reject_s": statistics.fmean(statistics.fmean(t["reject_s"]) for t in twins),
        "setup_s": statistics.median(setups),
    }
    runs = twins + reps + ([traced] if traced else [])
    failures = [f for rep in runs for f in rep["failed"]]
    attempted = sum(rep["attempted"] for rep in runs)
    record = {
        "workload": name, "seed": seed, "instance": instance, "seconds": seconds,
        "trace": trace, "source": source_identity(), "environment": reps[0]["environment"],
        "metrics": metrics, "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted, "failures": failures[:20],
        "round_samples": len(rounds[0]), "round_tail_quantile": tail_q,
        "repetitions": len(reps), "setup_samples": setups,
        "wall_samples": [rep["wall_s"] for rep in reps],
        "round_p50_samples": [percentile(r, 0.5) for r in rounds],
        "round_tail_samples": [percentile(r, tail_q) for r in rounds],
        "reject_samples": [statistics.fmean(t["reject_s"]) for t in twins],
        "waits_s": 0.0,  # one process, one thread, no queue
    }
    if traced:
        record["layers"] = traced["layers"]
        record["tracing_overhead_s"] = traced["wall_s"] - metrics["wall_s"]
        record["traced_wall_s"] = traced["wall_s"]
    _write_outputs(record, traced)
    return record


def _write_outputs(record: dict, traced: dict | None) -> None:
    stem = f"{record['workload']}-seed{record['seed']}"
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    write_json(os.path.join(OUT_DIR, "results", f"{stem}-trace{int(record['trace'])}.json"),
               record)
    if traced:
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        write_json(os.path.join(OUT_DIR, "traces", f"{stem}.json"), traced["spans"])


def format_report(record: dict) -> list[str]:
    """Every end-to-end metric by name and unit, the per-layer table beside it."""
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"(instance {record['instance']}, {record['repetitions']} repetition(s))"]
    left = [f"{name:<14} {record['metrics'][name]:>12.6g} {unit}" for name, unit in END_TO_END]
    left += [f"{'error_rate':<14} {record['error_rate']:>12.6g} ratio "
             f"({record['failed']}/{record['attempted']})",
             f"{'waits_s':<14} {0.0:>12.6g} s (single thread, no queue)",
             f"rounds: {record['round_samples']} samples per repetition, "
             f"tail = p{100 * record['round_tail_quantile']:.4g}"]
    right = []
    if "layers" in record:
        right = [f"{name:<42} {record['layers'][name]:>12.6g} {unit}"
                 for name, unit in PER_LAYER]
        right.append(f"{'tracing overhead (traced - untraced wall)':<42} "
                     f"{record['tracing_overhead_s']:>12.6g} s")
    width = max(len(line) for line in left) + 4
    for i in range(max(len(left), len(right))):
        cell = left[i] if i < len(left) else ""
        lines.append((cell.ljust(width) + (right[i] if i < len(right) else "")).rstrip())
    return lines


def contract_line(record: dict) -> str:
    """The result object: end-to-end metrics untraced, per-layer when traced."""
    if record["trace"]:
        values = {name: (record["layers"][name], unit) for name, unit in PER_LAYER}
    else:
        values = {name: (record["metrics"][name], unit) for name, unit in END_TO_END}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", default=REFS_DIR, help="reference output directory")
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.refs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in format_report(record):
        print(line)
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
