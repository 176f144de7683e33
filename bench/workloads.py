"""Workload definitions shared by the benchmark's parent and worker processes.

A workload is a pinned `transduct` config plus the CLI commands that run it.
The benchmark seed picks one of ``INSTANCES`` pinned instances
(``seed % INSTANCES``); each instance has stored reference outputs under
``bench/refs``.  The program only ever sees the generated config files.

Standard library only: the parent process never imports numpy.
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import dataclass

INSTANCES = 4

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFS_DIR = os.path.join(BENCH_DIR, "refs")

# (name, unit) of every metric the benchmark emits, in BENCHMARK.json order.
END_TO_END = (
    ("wall_s", "s"),
    ("round_p50_ms", "ms"),
    ("round_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("reject_s", "s"),
    ("setup_s", "s"),
)
THEORY_FUNCTIONS = ("greedy_itl_trajectory", "check_gamma_bound", "check_within_S_bound",
                    "check_variance_bound", "submodularity_ratio", "markov_boundary")
PER_LAYER = (
    ("config.build_domain.calls", "count"),
    ("config.build_domain.s", "s"),
    ("kernels.gram.calls", "count"),
    ("kernels.gram.s", "s"),
    ("data.sample_gp_truth.s", "s"),
    ("data.output.s", "s"),
    ("data.output.bytes", "bytes"),
    ("selection.run_loop.self_s", "s"),
    ("selection.select_batch.calls", "count"),
    ("selection.select_batch.self_s", "s"),
    ("selection.bace_update.calls", "count"),
    ("selection.bace_update.s", "s"),
    ("selection.bace_update.useful_ratio", "ratio"),
    ("posterior.condition.calls", "count"),
    ("posterior.condition.s", "s"),
    ("posterior.state_mb", "MB"),
    ("posterior.information_capacity.calls", "count"),
    ("posterior.information_capacity.s", "s"),
    ("posterior.information_capacity.multisets", "count"),
) + tuple((f"theory.{fn}.s", "s") for fn in THEORY_FUNCTIONS) + (
    ("cli.self_s", "s"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "run" or "theory"; BENCHMARK.json says why each exists
    s_count: int
    rounds: int
    policies: tuple[str, ...] = ()
    seeds_per_instance: int = 1
    a_count: int = 20       # run: target points; theory: grid points past S
    twin_epsilon: float = 0.0
    listed: bool = True     # named in BENCHMARK.json; the others are the smoke
                            # test's tiny variants and run-n5020 (see NOTES.md)

    @property
    def preset(self) -> str | None:
        return "cifar-like" if self.kind == "run" else None

    def config(self, instance: int) -> dict:
        if self.kind == "run":
            first = instance * self.seeds_per_instance
            return {
                "domain": {"source": "synthetic",
                           "kernel": {"family": "gaussian", "lengthscale": 0.2},
                           "layout": {"kind": "uniform", "dim": 2,
                                      "s_count": self.s_count, "a_count": self.a_count,
                                      "box": [[0, 1], [0, 1]],
                                      "a_box": [[0.7, 1], [0.7, 1]]}},
                "policies": list(self.policies),
                "rounds": self.rounds,
                "seeds": list(range(first, first + self.seeds_per_instance)),
            }
        return {
            "domain": {"source": "synthetic",
                       "kernel": {"family": "gaussian", "lengthscale": 0.6},
                       "layout": {"kind": "grid", "s_count": self.s_count, "step": 2.0,
                                  "a_extra": self.a_count, "include_s_in_a": True}},
            "rounds": self.rounds,
            "seeds": [instance],
            "epsilon": 1.0,
            "hyper": {"rho": 0.5},
        }

    def twin_config(self, instance: int) -> dict:
        """The instance's infeasible twin; the CLI must refuse it with exit 4.

        A run workload's twin asks `transduct ablate` for a 15^4-cell grid over
        the same domain, far past the 1000-run limit; the CLI builds the whole
        cross product before it refuses.  A theory workload's twin lowers
        epsilon until the Markov size condition exceeds its cap.
        """
        config = self.config(instance)
        if self.kind == "theory":
            config["epsilon"] = self.twin_epsilon
            return config
        steps = range(15)
        config["grid"] = {"rho": [0.5 + 0.1 * i for i in steps],
                          "k": [100 * (i + 1) for i in steps],
                          "m": [i + 1 for i in steps], "M": [10 * (i + 1) for i in steps]}
        return config

    def commands(self, config: str, out: str) -> list[list[str]]:
        common = ["--config", config, "--out", out, "--jobs", "1"]
        if self.kind == "run":
            return [["run", *common, "--preset", "cifar-like", "--timings"]]
        return [["theory", *common], ["markov", *common, "--x", str(self.s_count)]]

    def twin_command(self, config: str, out: str) -> list[str]:
        command = "ablate" if self.kind == "run" else "theory"
        argv = [command, "--config", config, "--out", out, "--jobs", "1"]
        return argv + (["--preset", "cifar-like"] if self.kind == "run" else [])

    @property
    def twin_calls(self) -> int:
        # a run twin is refused in ~60 ms, a theory twin in ~1 s; both are
        # shorter than the speed swings of a shared host, so a process
        # averages several calls
        return 25 if self.kind == "run" else 3


WORKLOADS = {w.name: w for w in (
    Workload("run-n420", "run", s_count=400, rounds=50,
             policies=("itl", "ctl", "random", "cosine"), seeds_per_instance=3),
    Workload("run-n5020", "run", s_count=5000, rounds=1, policies=("itl", "random"),
             listed=False),
    Workload("theory-grid8", "theory", s_count=8, rounds=8, a_count=3, twin_epsilon=0.4),
    Workload("tiny-run", "run", s_count=40, rounds=3,
             policies=("itl", "ctl", "random", "cosine"), seeds_per_instance=2,
             a_count=5, listed=False),
    Workload("tiny-theory", "theory", s_count=4, rounds=4, a_count=2, twin_epsilon=0.01,
             listed=False),
)}


def ref_path(refs_dir: str, workload: str, instance: int) -> str:
    return os.path.join(refs_dir, workload, f"{instance}.json.gz")


def write_ref(path: str, payload) -> None:
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(gzip.compress(data, mtime=0))


def read_ref(path: str):
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
