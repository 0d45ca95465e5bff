#!/usr/bin/env python3
"""Tests of the repository benchmark itself, at seconds scale.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py with --tiny inputs, so the whole file runs
in about a minute after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep", "swarm", "serve"]

# Self times along a root span's thread, plus the wall its off-thread
# children cover, must add up to the root's duration within this slack.
SLACK_FRACTION = 0.01
SLACK_US = 50.0


def run(workload, trace=0, extra=(), cwd=ROOT, seconds=1):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds",
               str(seconds), "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def union_us(intervals):
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def expect_metrics(self, result, declared):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {k: v["unit"] for k, v in result["metrics"].items()})
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                proc = run(workload, trace=0)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                result = result_of(proc)
                self.expect_metrics(result, self.spec["end_to_end"])
                for metric in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]
                                       ["value"], 0)
            with self.subTest(workload=workload, trace=1):
                proc = run(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.expect_metrics(result_of(proc), self.spec["per_layer"])

    def test_span_self_times_sum_to_the_traced_wall(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                path = os.path.join(ROOT, ".bench_runs",
                                    "spans-%s.jsonl" % workload)
                with open(path) as f:
                    header, *lines = f.read().splitlines()
                self.assertEqual(json.loads(header)["workload"], workload)
                spans = [json.loads(line) for line in lines]
                self.assertTrue(spans)
                children = defaultdict(list)
                for span in spans:
                    self.assertGreaterEqual(span["end_us"], span["start_us"])
                    self.assertGreaterEqual(span["self_us"], -1e-6)
                    children[span["parent"]].append(span)
                for root in children[0]:
                    self.check_root(root, children)

    def check_root(self, root, children):
        """Sum of self times on the root's thread, plus the union of the
        intervals its pool-thread children cover, equals the root's wall."""
        thread = root["thread"]
        covered, stack = 0.0, [root]
        on_thread = 0.0
        while stack:
            span = stack.pop()
            on_thread += span["self_us"]
            kids = children[span["id"]]
            off = [(max(k["start_us"], span["start_us"]),
                    min(k["end_us"], span["end_us"]))
                   for k in kids if k["thread"] != thread]
            covered += union_us(off)
            stack.extend(k for k in kids if k["thread"] == thread)
        wall = root["end_us"] - root["start_us"]
        self.assertLessEqual(abs(on_thread + covered - wall),
                             SLACK_FRACTION * wall + SLACK_US,
                             "root span %s" % root["name"])

    def test_a_corrupted_answer_counts_as_a_failure(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace=trace, extra=["--corrupt"])
                    kept = "run directory kept at "
                    for line in proc.stderr.splitlines():
                        if line.startswith("perfbench: " + kept):
                            shutil.rmtree(line.split(kept, 1)[1],
                                          ignore_errors=True)
                    self.assertNotEqual(proc.returncode, 0)
                    result = result_of(proc)
                    self.assertIsNotNone(result, proc.stdout + proc.stderr)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)

    def test_fails_without_printing_a_result_when_sources_are_absent(self):
        alone = os.path.join(ROOT, ".bench_runs",
                             "alone-%d-%d" % (os.getpid(), time.time_ns()))
        try:
            shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            proc = run("sweep", cwd=alone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result_of(proc))
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
