"""Smoke test of the benchmark at tiny sizes.

Usage: python3 bench/smoke_test.py

Records references for the tiny workloads into a scratch directory, then
checks that every named metric is emitted with its unit, that a corrupted
reference makes error_rate positive, and that the benchmark refuses to run
without the program's sources.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

from run import OUT_DIR
from workloads import (BENCH_DIR, END_TO_END, INSTANCES, PER_LAYER, REFS_DIR, ROOT,
                       WORKLOADS, read_json, read_ref, ref_path, write_ref)

TINY = ("tiny-run", "tiny-theory")


def _script(name: str) -> str:
    return os.path.join(BENCH_DIR, name)


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(OUT_DIR, exist_ok=True)
        cls.scratch = tempfile.mkdtemp(prefix="smoke-", dir=OUT_DIR)
        cls.refs = os.path.join(cls.scratch, "refs")
        subprocess.run([sys.executable, _script("make_refs.py"), *TINY,
                        "--refs", cls.refs, "--instances", "1"],
                       check=True, capture_output=True, timeout=170)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def bench(self, workload: str, trace: int, refs: str) -> dict:
        proc = subprocess.run(
            [sys.executable, _script("run.py"), "--workload", workload, "--seed", "0",
             "--seconds", "0", "--trace", str(trace), "--refs", refs],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_benchmark_json_matches_the_harness(self):
        spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [name for name, w in WORKLOADS.items() if w.listed])
        for workload in spec["workloads"]:
            for instance in range(INSTANCES):
                self.assertTrue(os.path.isfile(ref_path(REFS_DIR, workload["name"], instance)))

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in TINY:
            for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = self.bench(workload, trace, self.refs)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, dict(expected))
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_corrupted_reference_trips_error_rate(self):
        corrupted = os.path.join(self.scratch, "corrupted")
        shutil.copytree(self.refs, corrupted)

        def corrupt(workload, edit):
            path = ref_path(corrupted, workload, 0)
            ref = read_ref(path)
            edit(ref)
            write_ref(path, ref)

        first_record = "records/00-itl_s0.jsonl"
        corrupt("tiny-run", lambda ref: ref[first_record]["rounds"][1]["chosen"].reverse())
        corrupt("tiny-theory", lambda ref: ref["theory"]["capacities"].__setitem__(
            0, ref["theory"]["capacities"][0] * (1 + 1e-9)))
        for workload in TINY:
            with self.subTest(workload=workload):
                result = self.bench(workload, 0, corrupted)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                record = read_json(os.path.join(
                    OUT_DIR, "results", f"{workload}-seed0-trace0.json"))
                self.assertGreater(record["error_rate"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(self.scratch, "bare")
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "run-n420", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
