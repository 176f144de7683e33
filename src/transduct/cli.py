"""Command-line front end: run selection benchmarks, theory checkers, and
Markov-boundary computations.

Subcommands: run, theory, markov, ablate. Common flags: --config, --out,
--seeds, --preset, --jobs. ``run`` and ``ablate`` build each seed's domain
once and run every parsed policy on it; ``--jobs N`` runs up to N seeds in
parallel threads. Verbosity via the TRANSDUCT_LOG environment variable. Exit codes:
0 success, 2 config error (also an ``--out`` that is not a directory, or
outputs that cannot be written), 3 numeric error, 4 budget error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np
from numpy.random import SeedSequence

from .config import (PRESETS, RunConfig, build_domain, build_prior, load_config, parse_config,
                     seed_keys)
from .data import _atomic_write, persist_run, save_table
from .errors import BudgetError, ConfigError, InputError, NumericError, TransductError
from .selection import run_loop
from .theory import (
    check_gamma_bound,
    check_variance_bound,
    check_within_S_bound,
    greedy_itl_trajectory,
    markov_boundary,
    markov_size_bound,
    submodularity_ratio,
    verify_markov_boundary,
)

log = logging.getLogger("transduct")

_AGG_FIELDS = ("mean_variance", "max_variance", "distinct_relevant",
               "objective_sum", "rmse")


def _setup_logging() -> None:
    level = os.environ.get("TRANSDUCT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _tag(name: str, index: int) -> str:
    return f"{index:02d}-" + re.sub(r"[^A-Za-z0-9_-]+", "-", name)


def _stable_tag(name: str) -> int:
    value = 0
    for char in name:
        value = (value * 131 + ord(char)) % (2 ** 31)
    return value


def _load(args) -> RunConfig:
    """The config named by ``--config``, with ``--seeds`` (validated there) applied."""
    seeds = args.seeds.split(",") if args.seeds is not None else None
    return load_config(args.config, preset=args.preset, seeds=seeds)


def _runs(config: RunConfig, jobs: int, timings: bool) -> dict:
    """``{(tag, seed): RunRecord}`` for every policy and seed of ``config``.

    Each seed's domain is built once and every policy runs on it with a fresh
    label oracle and a seed drawn from the run seed and the policy name; with
    ``jobs > 1`` the seeds run in a thread pool.
    """
    def seed_runs(seed: int) -> dict:
        domain = build_domain(config, seed)
        records = {}
        for i, (name, policy) in enumerate(config.policies):
            tag = _tag(name, i)
            log.info("running %s seed %d", tag, seed)
            policy = replace(policy, seed=int(
                SeedSequence([seed, _stable_tag(name)]).generate_state(1)[0]))
            snapshot = {"rule": policy.rule, "seed": seed, "hyper": config.hyper,
                        "rounds": config.rounds,  # v1 headers keep beta and rho
                        "policy": dict(asdict(policy), beta=1.0, rho=float(config.hyper["rho"]))}
            records[(tag, seed)] = run_loop(
                domain.prior, domain.target_ids, domain.sample_ids, policy,
                domain.oracle, config.rounds,
                candidate_size=config.hyper["k"], relevant=domain.relevant,
                truth=domain.truth, config=snapshot, timings=timings)
        return records

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_seed = list(pool.map(seed_runs, config.seeds))
    else:  # no worker thread: it would only add memory
        per_seed = [seed_runs(seed) for seed in config.seeds]
    return {key: record for records in per_seed for key, record in records.items()}


def _stderr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))


def _aggregate(results: dict, config: RunConfig):
    seeds, rounds = config.seeds, config.rounds
    raw_rows = []
    agg_rows = []
    for tag in (_tag(name, i) for i, (name, _) in enumerate(config.policies)):
        per_seed = {seed: results[(tag, seed)] for seed in seeds}
        for seed in seeds:
            for entry in per_seed[seed].rounds:
                raw_rows.append([
                    tag, seed, entry.round, entry.mean_variance, entry.max_variance,
                    entry.relevant_picks, entry.distinct_relevant,
                    sum(entry.objectives), entry.rmse, entry.wall_time])
        for round_no in range(rounds + 1):
            row = [tag, round_no, len(seeds)]
            entries = [per_seed[s].rounds[round_no] for s in seeds]
            samples = {
                "mean_variance": [e.mean_variance for e in entries],
                "max_variance": [e.max_variance for e in entries],
                "distinct_relevant": [float(e.distinct_relevant) for e in entries],
                "objective_sum": [sum(e.objectives) for e in entries],
                "rmse": [e.rmse for e in entries if e.rmse is not None],
            }
            for values in map(samples.get, _AGG_FIELDS):
                row.extend([float(np.mean(values)), _stderr(values)] if values else [None, None])
            agg_rows.append(row)
    return raw_rows, agg_rows


_RAW_HEADER = ["policy", "seed", "round", "mean_variance", "max_variance",
               "relevant_picks", "distinct_relevant", "objective_sum", "rmse",
               "wall_time"]
_AGG_HEADER = ["policy", "round", "n_seeds"] + [
    f"{field}_{stat}" for field in _AGG_FIELDS for stat in ("mean", "stderr")]


def cmd_run(args) -> int:
    config = _load(args)
    results = _runs(config, args.jobs, args.timings)
    os.makedirs(os.path.join(args.out, "records"), exist_ok=True)  # a failed run leaves none
    for (tag, seed), record in sorted(results.items()):
        persist_run(record, os.path.join(args.out, "records", f"{tag}_s{seed}.jsonl"))
    raw_rows, agg_rows = _aggregate(results, config)
    save_table(os.path.join(args.out, "metrics_raw.tsv"), _RAW_HEADER, raw_rows)
    save_table(os.path.join(args.out, "metrics.tsv"), _AGG_HEADER, agg_rows)
    log.info("wrote %d records to %s", len(results), args.out)
    return 0


def _theory_instance(config: RunConfig):
    if len(config.seeds) > 1:  # theory and markov check one instance
        raise ConfigError(f"field 'seeds' must hold one seed for theory and markov, "
                          f"got {len(config.seeds)}")
    prior, sample_ids, target_ids, _ = build_prior(config, seed_keys(config.seeds[0]))
    epsilon = config.epsilon
    if epsilon is None:
        epsilon = 0.05 * float(np.max(np.diag(prior.gram.values)))
        if not epsilon > 0:  # a zero prior, whose sample Gram is singular too
            raise BudgetError("size condition is vacuous: the sample Gram is singular")
    return prior, sample_ids, target_ids, epsilon


def cmd_theory(args) -> int:
    config = _load(args)
    prior, sample_ids, target_ids, epsilon = _theory_instance(config)
    if not set(sample_ids) <= set(target_ids):
        raise InputError("theory checks require the sample space inside the target space")
    # the size condition behind b_eps is the only check that refuses an
    # epsilon, so it runs before the rollout and every capacity enumeration
    size_bound = markov_size_bound(prior, sample_ids, epsilon)
    trajectory = greedy_itl_trajectory(prior, target_ids, sample_ids, config.rounds)
    variance = check_variance_bound(trajectory, epsilon, size_bound)
    checks = [check_gamma_bound(trajectory), check_within_S_bound(trajectory), variance]
    rows = [[c.name, c.status, c.detail] for c in checks]
    if len(sample_ids) <= 10:
        kappa = submodularity_ratio(prior, target_ids, sample_ids,
                                    min(int(config.hyper["b"]), 4))
        rows.append(["submodularity-ratio",
                     "pass" if kappa >= 1.0 - 1e-9 else "info",
                     f"kappa={kappa!r}"])
    else:
        rows.append(["submodularity-ratio", "warn",
                     f"skipped: |S|={len(sample_ids)} exceeds enumeration limit"])
    os.makedirs(args.out, exist_ok=True)
    save_table(os.path.join(args.out, "theory_diagnostics.tsv"),
               ["check", "status", "detail"], rows)
    detail = {c.name: list(c.rows) for c in checks}
    _atomic_write(os.path.join(args.out, "theory_rows.json"),
                  json.dumps(detail, sort_keys=True, indent=1, default=float))
    for name, status, text in rows:
        print(f"{name}: {status} ({text})")
    return 0


def cmd_markov(args) -> int:
    if args.epsilon is not None and not 0.0 < args.epsilon < math.inf:
        raise ConfigError(f"--epsilon must be positive and finite, got {args.epsilon!r}")
    config = _load(args)
    prior, sample_ids, _, epsilon = _theory_instance(config)
    if args.epsilon is not None:
        epsilon = args.epsilon
    boundary = markov_boundary(prior, sample_ids, args.x, epsilon)
    valid = verify_markov_boundary(prior, boundary, args.x)
    payload = {
        "x": args.x,
        "epsilon": epsilon,
        "members": list(boundary.members),
        "achieved_variance": boundary.achieved_variance,
        "irreducible": boundary.irreducible,
        "size_bound": boundary.size_bound,
        "size_bound_exact": boundary.size_bound_exact,
        "verified": bool(valid),
    }
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "markov.json"),
                  json.dumps(payload, sort_keys=True, indent=1, allow_nan=False))
    print(f"markov boundary of {args.x}: size {len(boundary.members)} "
          f"(bound {boundary.size_bound}), achieved {boundary.achieved_variance:.6g}")
    return 0


def _cell_config(config: RunConfig, cell: dict) -> RunConfig:
    """``config`` with one ablation cell's values, parsed like any config."""
    hyper = {**config.hyper, **cell}
    mode = {"batch_mode": hyper.pop("batch_mode")} if "batch_mode" in cell else {}
    policies = [{"rule": entry, **mode} if isinstance(entry, str) else {**entry, **mode}
                for entry in config.raw.get("policies", ["itl"])]
    try:
        return parse_config(dict(config.raw, hyper=hyper, policies=policies),
                            seeds=config.seeds)
    except ConfigError as exc:
        raise ConfigError(f"grid cell {cell}: {exc}") from exc


def cmd_ablate(args) -> int:
    config = _load(args)
    axes = config.grid
    if not axes:
        raise InputError("config has no 'grid' section to ablate over")
    total_runs = math.prod(map(len, axes.values())) * len(config.policies) * len(config.seeds)
    if total_runs > 1000:
        raise BudgetError(f"ablation grid expands to {total_runs} runs (limit 1000)")
    cells = [dict(zip(axes, values)) for values in itertools.product(*axes.values())]
    variants = [_cell_config(config, cell) for cell in cells]  # all parsed before any runs
    columns = [_AGG_HEADER.index(f"{field}_{stat}") for field in
               ("mean_variance", "distinct_relevant") for stat in ("mean", "stderr")]
    rows = []
    for cell, variant in zip(cells, variants):
        _, agg_rows = _aggregate(_runs(variant, args.jobs, args.timings), variant)
        rows += [list(cell.values()) + [row[0]] + [row[c] for c in columns]
                 for row in agg_rows if row[1] == config.rounds]  # each policy's final round
    header = list(axes) + [
        "policy", "final_mean_variance", "final_mean_variance_stderr",
        "final_distinct_relevant", "final_distinct_relevant_stderr"]
    os.makedirs(args.out, exist_ok=True)
    save_table(os.path.join(args.out, "ablation.tsv"), header, rows)
    print(f"wrote {len(rows)} ablation rows to {args.out}/ablation.tsv")
    return 0


@functools.cache  # one parser per process: main may be called many times
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transduct",
        description="Transductive active data selection benchmarks and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON run config")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seeds", default=None, help="comma-separated seed list override")
    common.add_argument("--preset", default=None, choices=sorted(PRESETS),
                        help="hyperparameter preset")
    common.add_argument("--jobs", type=int, default=1, help="seeds to run in parallel")
    common.add_argument("--timings", action="store_true",
                        help="record real wall times (breaks byte-determinism)")
    for name, func, text in (("run", cmd_run, "execute selection runs and write metrics"),
                             ("theory", cmd_theory, "run the bound checkers"),
                             ("markov", cmd_markov, "compute an approximate Markov boundary"),
                             ("ablate", cmd_ablate, "cross-product parameter study")):
        sub.add_parser(name, parents=[common], help=text).set_defaults(func=func)
    markov_p = sub.choices["markov"]
    markov_p.add_argument("--x", type=int, required=True, help="query index")
    markov_p.add_argument("--epsilon", type=float, default=None, help="tolerance")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise ConfigError(f"--out {args.out} exists and is not a directory")
        return args.func(args)
    # MemoryError: e.g. an oversized layout numpy refuses; OSError: outputs not written
    except (TransductError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        budget = isinstance(exc, (BudgetError, MemoryError))
        return 4 if budget else 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
