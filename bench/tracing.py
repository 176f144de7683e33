"""Spans around the package's public functions, installed from outside.

Each wrapper replaces a function at the name its caller imports (for
example ``transduct.cli.run_loop``), so the program's source stays
untouched.  A span records name, start, end, parent span and trace id; one
trace is one ``cli.main`` call.  Spans stay in memory until the worker writes
them out.  Counts that follow from arguments or results (bytes
written, multisets enumerated, state size) are attached to the span.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import defaultdict

from workloads import THEORY_FUNCTIONS

MIB = 2 ** 20


def _capacity_multisets(args, kwargs, _result):
    # information_capacity(state, candidates, budget, mode="greedy", *, multiset=False)
    candidates, budget = len(args[1]), args[2]
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "greedy")
    multiset = kwargs.get("multiset", False)
    if mode != "brute" or budget <= 0 or candidates == 0:
        return {"multisets": 0}
    extra = 1 if multiset else 0
    return {"multisets": sum(math.comb(candidates + (size - 1) * extra, size)
                             for size in range(1, budget + 1))}


def _state_bytes(_args, _kwargs, state):
    arrays = (getattr(state, name) for name in state.__dataclass_fields__)
    return {"state_bytes": sum(a.nbytes for a in arrays if hasattr(a, "nbytes"))}


# span name -> (module.attribute patched, ...), optional count hook
TARGETS = {
    "config.build_domain": (("transduct.cli", "build_domain"),),
    "kernels.gram": (("transduct.config", "gram"), ("transduct.data", "gram")),
    "data.sample_gp_truth": (("transduct.config", "sample_gp_truth"),),
    "data.output": (("transduct.cli", "persist_run"), ("transduct.cli", "save_table")),
    "selection.run_loop": (("transduct.cli", "run_loop"),),
    "selection.select_batch": (("transduct.selection", "select_batch"),),
    "selection.bace_update": (("transduct.selection", "bace_update"),),
    "posterior.condition": (("transduct.selection", "condition"),
                            ("transduct.theory", "condition")),
    "posterior.information_capacity": (("transduct.theory", "information_capacity"),),
    **{f"theory.{fn}": (("transduct.cli", fn),) for fn in THEORY_FUNCTIONS},
}
HOOKS = {
    # persist_run(record, path) and save_table(path, header, rows)
    ("transduct.cli", "persist_run"): lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    ("transduct.cli", "save_table"): lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    ("transduct.theory", "information_capacity"): _capacity_multisets,
    ("transduct.selection", "condition"): _state_bytes,
    ("transduct.theory", "condition"): _state_bytes,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._traces = 0

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            if not self._stack:
                self._traces += 1
            span = {"id": len(self.spans), "name": name, "trace": self._traces,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.update(hook(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        for name, targets in TARGETS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                setattr(module, attr, self.wrap(name, getattr(module, attr),
                                                HOOKS.get((module_name, attr))))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics (named as in BENCHMARK.json) from a list of spans."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    downdating_batches = set()
    extra = defaultdict(int)
    state_bytes = 0
    for span in spans:
        duration = span["end"] - span["start"]
        total[span["name"]] += duration
        calls[span["name"]] += 1
        if span["parent"] is not None:
            child_time[span["parent"]] += duration
            if span["name"] == "selection.bace_update":
                downdating_batches.add(span["parent"])
        for key in ("bytes", "multisets"):
            extra[f"{span['name']}.{key}"] += span.get(key, 0)
        state_bytes = max(state_bytes, span.get("state_bytes", 0))

    def self_time(name):
        return sum(s["end"] - s["start"] - child_time[s["id"]]
                   for s in spans if s["name"] == name)

    downdates = calls["selection.bace_update"]
    metrics = {
        "config.build_domain.calls": calls["config.build_domain"],
        "config.build_domain.s": total["config.build_domain"],
        "kernels.gram.calls": calls["kernels.gram"],
        "kernels.gram.s": total["kernels.gram"],
        "data.sample_gp_truth.s": total["data.sample_gp_truth"],
        "data.output.s": total["data.output"],
        "data.output.bytes": extra["data.output.bytes"],
        "selection.run_loop.self_s": self_time("selection.run_loop"),
        "selection.select_batch.calls": calls["selection.select_batch"],
        "selection.select_batch.self_s": self_time("selection.select_batch"),
        "selection.bace_update.calls": downdates,
        "selection.bace_update.s": total["selection.bace_update"],
        # the downdate after a batch's last pick is never read
        "selection.bace_update.useful_ratio":
            (downdates - len(downdating_batches)) / downdates if downdates else 0.0,
        "posterior.condition.calls": calls["posterior.condition"],
        "posterior.condition.s": total["posterior.condition"],
        "posterior.state_mb": state_bytes / MIB,
        "posterior.information_capacity.calls": calls["posterior.information_capacity"],
        "posterior.information_capacity.s": total["posterior.information_capacity"],
        "posterior.information_capacity.multisets":
            extra["posterior.information_capacity.multisets"],
        "cli.self_s": self_time("cli"),
    }
    for fn in THEORY_FUNCTIONS:
        metrics[f"theory.{fn}.s"] = total[f"theory.{fn}"]
    return metrics
