"""One repetition of a workload, in a fresh process.

Usage: python3 bench/worker.py JOB.json

The job names a mode:

setup    time a cold ``import transduct`` plus ``load_config`` and
         ``build_domain`` for each seed of the workload's config;
twin     time ``transduct.cli.main`` on the infeasible twin, which must exit 4;
command  call ``transduct.cli.main`` in-process for the workload's commands
         and check the outputs against the stored reference.  With ``trace``
         the package's public functions are wrapped with spans first (see
         tracing.py).

The result is written as JSON to the job's ``result`` path, so that the
program's own printing on stdout cannot mix with it.
"""

from __future__ import annotations

import csv
import glob
import json
import os
import resource
import sys
import time

from workloads import ROOT, WORKLOADS, read_json, read_ref, write_json, write_ref

RUN_TOLERANCE = 1e-10
THEORY_TOLERANCE = 1e-12


def _import_path() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "transduct", "__init__.py")):
        raise SystemExit(f"error: no transduct package under {src}")
    sys.path.insert(0, src)


def setup(job: dict) -> dict:
    workload = WORKLOADS[job["workload"]]
    start = time.perf_counter()
    _import_path()
    import transduct  # noqa: F401  (the cold import is part of the measurement)
    from transduct.config import build_domain, load_config
    config = load_config(job["config"], preset=workload.preset)
    for seed in config.seeds:
        build_domain(config, seed)
    return {"setup_s": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def extract(workload, out: str) -> dict:
    """The outputs the gate compares, keyed by operation."""
    if workload.kind == "run":
        ops = {}
        for path in sorted(glob.glob(os.path.join(out, "records", "*.jsonl"))):
            with open(path, "r", encoding="utf-8") as handle:
                header, *rounds = (json.loads(line) for line in handle if line.strip())
            for entry in rounds:
                entry.pop("wall_time")
            ops["records/" + os.path.basename(path)] = {"header": header, "rounds": rounds}
        return ops
    with open(os.path.join(out, "theory_diagnostics.tsv"), "r", encoding="utf-8") as handle:
        statuses = [row[:2] for row in csv.reader(handle, delimiter="\t")][1:]
    rows = read_json(os.path.join(out, "theory_rows.json"))
    return {"theory": {"statuses": statuses,
                       "capacities": [r["capacity"] for r in rows["step-gain-bound"]]},
            "markov": {"members": read_json(os.path.join(out, "markov.json"))["members"]}}


def _matches(ref, got, tol: float) -> bool:
    if isinstance(ref, dict):
        return (isinstance(got, dict) and ref.keys() == got.keys()
                and all(_matches(ref[k], got[k], tol) for k in ref))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(ref) == len(got)
                and all(_matches(r, g, tol) for r, g in zip(ref, got)))
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(ref - got) <= tol * max(abs(ref), abs(got))
    return type(ref) is type(got) and ref == got


def compare(workload, ref: dict, got: dict | None) -> tuple[int, list[str]]:
    """Operations attempted (one per record or command) and the failed ones."""
    tol = RUN_TOLERANCE if workload.kind == "run" else THEORY_TOLERANCE
    got = got or {}
    unexpected = sorted(set(got) - set(ref))
    failed = [op for op in ref if op not in got or not _matches(ref[op], got[op], tol)]
    return len(ref) + len(unexpected), failed + unexpected


# ---------------------------------------------------------------------------
# timed commands
# ---------------------------------------------------------------------------

def _round_samples_ms(workload, out: str, probe: list[float]) -> list[float]:
    """Per-round latencies of rounds >= 1.

    Run workloads read the ``wall_time`` column that ``--timings`` writes.
    In theory workloads a round n of the step-gain check is one exhaustive
    capacity enumeration for budget n, timed by a probe around
    ``transduct.theory.information_capacity``.
    """
    if workload.kind == "theory":
        return [1000.0 * s for s in probe]
    with open(os.path.join(out, "metrics_raw.tsv"), "r", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle, delimiter="\t"))
    return [1000.0 * float(r["wall_time"]) for r in rows if int(r["round"]) >= 1]


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def twin(job: dict) -> dict:
    """Time the infeasible twin; every call must exit with code 4."""
    workload = WORKLOADS[job["workload"]]
    _import_path()
    from transduct import cli
    argv = workload.twin_command(job["twin_config"], os.path.join(job["work"], "twin"))
    times, failed = [], []
    for _ in range(workload.twin_calls):
        start = time.perf_counter()
        code = cli.main(argv)
        times.append(time.perf_counter() - start)
        if code != 4:
            failed.append(f"twin exit code {code}")
    return {"reject_s": times, "attempted": len(times), "failed": failed}


def command(job: dict) -> dict:
    workload = WORKLOADS[job["workload"]]
    _import_path()
    from transduct import cli, theory
    from tracing import Tracer, layer_metrics

    main = cli.main
    tracer = None
    probe: list[float] = []
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli", cli.main)
    elif workload.kind == "theory":
        capacity = theory.information_capacity

        def timed_capacity(*args, **kwargs):
            start = time.perf_counter()
            try:
                return capacity(*args, **kwargs)
            finally:
                probe.append(time.perf_counter() - start)
        theory.information_capacity = timed_capacity

    out = os.path.join(job["work"], "out")
    wall_s = 0.0
    codes = []
    for argv in workload.commands(job["config"], out):
        start = time.perf_counter()
        codes.append(main(argv))
        wall_s += time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    got = extract(workload, out) if all(code == 0 for code in codes) else None
    rounds_ms = _round_samples_ms(workload, out, probe) if got is not None else []

    if job.get("save_ref"):
        if got is None:
            raise SystemExit(f"error: cannot save a reference, exit codes {codes}")
        write_ref(job["ref"], got)
    attempted, failed = compare(workload, read_ref(job["ref"]), got)
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "rounds_ms": rounds_ms,
              "exit_codes": codes, "attempted": attempted, "failed": failed,
              "environment": _environment()}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["layers"] = layer_metrics(tracer.spans)
    return result


def run(job_path: str) -> None:
    job = read_json(job_path)
    result = {"setup": setup, "twin": twin, "command": command}[job["mode"]](job)
    write_json(job["result"], result)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: worker.py JOB.json")
    run(sys.argv[1])
