"""Command-line front end: run selection benchmarks, theory checkers, and
Markov-boundary computations.

Subcommands: run, theory, markov, ablate. Common flags: --config, --out,
--seeds, --preset, --jobs. Verbosity via the TRANSDUCT_LOG environment
variable. Exit codes: 0 success, 2 config error, 3 numeric error, 4 budget
error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np

from .config import PRESETS, RunConfig, build_domain, build_policy, load_config
from .data import persist_run, save_table
from .errors import BudgetError, DataError, InputError, NumericError
from .selection import run_loop
from .theory import (
    check_gamma_bound,
    check_variance_bound,
    check_within_S_bound,
    greedy_itl_trajectory,
    markov_boundary,
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


def _tag(entry: dict, index: int) -> str:
    name = entry.get("name", entry["rule"])
    return f"{index:02d}-" + re.sub(r"[^A-Za-z0-9_-]+", "-", str(name))


def _load(args) -> RunConfig:
    """The config named by ``--config``, with ``--seeds`` (validated there) applied."""
    seeds = args.seeds.split(",") if args.seeds else None
    return load_config(args.config, preset=args.preset, seeds=seeds)


def _single_run(config: RunConfig, entry: dict, seed: int, timings: bool):
    domain = build_domain(config, seed)
    policy = build_policy(entry, config, seed)
    snapshot = {"rule": entry["rule"], "seed": seed, "policy": asdict(policy),
                "hyper": config.hyper, "rounds": config.rounds}
    record = run_loop(
        domain.prior, domain.target_ids, domain.sample_ids, policy,
        domain.oracle, config.rounds,
        candidate_size=config.hyper["k"], relevant=domain.relevant,
        truth=domain.truth_map, config=snapshot, timings=timings)
    return record


def _stderr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))


def _aggregate(results: dict, tags: list[str], seeds, rounds: int):
    raw_rows = []
    agg_rows = []
    for tag in tags:
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
            for field in _AGG_FIELDS:
                values = samples[field]
                if values:
                    row.extend([float(np.mean(values)), _stderr(values)])
                else:
                    row.extend([None, None])
            agg_rows.append(row)
    return raw_rows, agg_rows


_RAW_HEADER = ["policy", "seed", "round", "mean_variance", "max_variance",
               "relevant_picks", "distinct_relevant", "objective_sum", "rmse",
               "wall_time"]
_AGG_HEADER = ["policy", "round", "n_seeds"] + [
    f"{field}_{stat}" for field in _AGG_FIELDS for stat in ("mean", "stderr")]


def cmd_run(args) -> int:
    config = _load(args)
    os.makedirs(os.path.join(args.out, "records"), exist_ok=True)
    tags = [_tag(entry, i) for i, entry in enumerate(config.policies)]
    jobs = []
    for i, entry in enumerate(config.policies):
        for seed in config.seeds:
            jobs.append((tags[i], entry, seed))
    results = {}
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = {
                (tag, seed): pool.submit(_single_run, config, entry, seed, args.timings)
                for tag, entry, seed in jobs}
            for key, future in futures.items():
                results[key] = future.result()
    else:
        for tag, entry, seed in jobs:
            log.info("running %s seed %d", tag, seed)
            results[(tag, seed)] = _single_run(config, entry, seed, args.timings)
    for (tag, seed), record in sorted(results.items()):
        persist_run(record, os.path.join(args.out, "records", f"{tag}_s{seed}.jsonl"))
    raw_rows, agg_rows = _aggregate(results, tags, config.seeds, config.rounds)
    save_table(os.path.join(args.out, "metrics_raw.tsv"), _RAW_HEADER, raw_rows)
    save_table(os.path.join(args.out, "metrics.tsv"), _AGG_HEADER, agg_rows)
    log.info("wrote %d records to %s", len(results), args.out)
    return 0


def _theory_instance(config: RunConfig):
    domain = build_domain(config, config.seeds[0])
    prior = domain.prior
    epsilon = config.epsilon
    if epsilon is None:
        epsilon = 0.05 * float(np.max(np.diag(prior.gram.values)))
    return domain, prior, epsilon


def cmd_theory(args) -> int:
    config = _load(args)
    domain, prior, epsilon = _theory_instance(config)
    if not set(domain.sample_ids) <= set(domain.target_ids):
        raise InputError("theory checks require the sample space inside the target space")
    trajectory = greedy_itl_trajectory(prior, domain.target_ids, domain.sample_ids,
                                       config.rounds)
    # the variance bound's size condition refuses an infeasible epsilon, so it
    # runs before the capacity enumeration of the step-gain check
    variance = check_variance_bound(trajectory, epsilon)
    checks = [check_gamma_bound(trajectory), check_within_S_bound(trajectory), variance]
    rows = [[c.name, c.status, c.detail] for c in checks]
    if len(domain.sample_ids) <= 10:
        kappa = submodularity_ratio(prior, domain.target_ids, domain.sample_ids,
                                    min(int(config.hyper["b"]), 4))
        rows.append(["submodularity-ratio",
                     "pass" if kappa >= 1.0 - 1e-9 else "info",
                     f"kappa={kappa!r}"])
    else:
        rows.append(["submodularity-ratio", "warn",
                     f"skipped: |S|={len(domain.sample_ids)} exceeds enumeration limit"])
    os.makedirs(args.out, exist_ok=True)
    save_table(os.path.join(args.out, "theory_diagnostics.tsv"),
               ["check", "status", "detail"], rows)
    detail = {c.name: list(c.rows) for c in checks}
    with open(os.path.join(args.out, "theory_rows.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, sort_keys=True, indent=1, default=float)
    for name, status, text in rows:
        print(f"{name}: {status} ({text})")
    return 0


def cmd_markov(args) -> int:
    config = _load(args)
    domain, prior, epsilon = _theory_instance(config)
    if args.epsilon is not None:
        epsilon = args.epsilon
    boundary = markov_boundary(prior, domain.sample_ids, args.x, epsilon)
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
    with open(os.path.join(args.out, "markov.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    print(f"markov boundary of {args.x}: size {len(boundary.members)} "
          f"(bound {boundary.size_bound}), achieved {boundary.achieved_variance:.6g}")
    return 0


_GRID_AXES = ("rho", "k", "m", "M", "batch_mode")


def cmd_ablate(args) -> int:
    config = _load(args)
    grid = config.grid
    unknown = set(grid) - set(_GRID_AXES)
    if unknown:
        raise InputError(f"unknown grid axes {sorted(unknown)}; allowed: {_GRID_AXES}")
    axes = [(axis, list(grid[axis])) for axis in _GRID_AXES if axis in grid]
    if not axes:
        raise InputError("config has no 'grid' section to ablate over")
    total_runs = math.prod(len(v) for _, v in axes) * len(config.policies) * len(config.seeds)
    if total_runs > 1000:
        raise BudgetError(f"ablation grid expands to {total_runs} runs (limit 1000)")
    cells = [[]]
    for axis, values in axes:
        cells = [cell + [(axis, value)] for cell in cells for value in values]
    rows = []
    for cell in cells:
        overrides = dict(cell)
        hyper = dict(config.hyper)
        hyper.update({k: v for k, v in overrides.items() if k != "batch_mode"})
        policies = []
        for entry in config.policies:
            entry = dict(entry)
            if "batch_mode" in overrides:
                entry["batch_mode"] = overrides["batch_mode"]
            policies.append(entry)
        variant = replace(config, hyper=hyper, policies=tuple(policies))
        for i, entry in enumerate(variant.policies):
            finals_var, finals_ret = [], []
            for seed in config.seeds:
                record = _single_run(variant, entry, seed, args.timings)
                finals_var.append(record.rounds[-1].mean_variance)
                finals_ret.append(float(record.rounds[-1].distinct_relevant))
            row = [overrides.get(axis) for axis, _ in axes]
            row += [_tag(entry, i), float(np.mean(finals_var)), _stderr(finals_var),
                    float(np.mean(finals_ret)), _stderr(finals_ret)]
            rows.append(row)
    header = [axis for axis, _ in axes] + [
        "policy", "final_mean_variance", "final_mean_variance_stderr",
        "final_distinct_relevant", "final_distinct_relevant_stderr"]
    os.makedirs(args.out, exist_ok=True)
    save_table(os.path.join(args.out, "ablation.tsv"), header, rows)
    print(f"wrote {len(rows)} ablation rows to {args.out}/ablation.tsv")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transduct",
        description="Transductive active data selection benchmarks and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seeds", default=None, help="comma-separated seed list override")
        p.add_argument("--preset", default=None, choices=sorted(PRESETS),
                       help="hyperparameter preset")
        p.add_argument("--jobs", type=int, default=1, help="parallel runs")
        p.add_argument("--timings", action="store_true",
                       help="record real wall times (breaks byte-determinism)")

    run_p = sub.add_parser("run", help="execute selection runs and write metrics")
    common(run_p)
    run_p.set_defaults(func=cmd_run)

    theory_p = sub.add_parser("theory", help="run the bound checkers")
    common(theory_p)
    theory_p.set_defaults(func=cmd_theory)

    markov_p = sub.add_parser("markov", help="compute an approximate Markov boundary")
    common(markov_p)
    markov_p.add_argument("--x", type=int, required=True, help="query index")
    markov_p.add_argument("--epsilon", type=float, default=None, help="tolerance")
    markov_p.set_defaults(func=cmd_markov)

    ablate_p = sub.add_parser("ablate", help="cross-product parameter study")
    common(ablate_p)
    ablate_p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
