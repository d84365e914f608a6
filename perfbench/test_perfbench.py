#!/usr/bin/env python3
"""Tests of the emdpa benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

from the repository root.  The first two classes need no build; the last
builds the program (as run.py does) and runs every workload briefly.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class PercentileRule(unittest.TestCase):
    def test_nominal_percentile_when_ten_samples_lie_beyond(self):
        samples = list(range(200))
        value, used = run.tail_percentile(samples, 0.95)
        self.assertEqual(value, 189)
        self.assertEqual(used, 0.95)
        self.assertEqual(sum(s > value for s in samples), 10)

    def test_lowered_to_the_highest_percentile_with_ten_beyond(self):
        samples = list(range(100))
        value, used = run.tail_percentile(samples, 0.95)
        self.assertEqual(value, 89)
        self.assertEqual(used, 0.90)
        self.assertEqual(sum(s > value for s in samples), 10)

    def test_twenty_samples_report_the_upper_median(self):
        value, used = run.tail_percentile(list(range(20)), 0.95)
        self.assertEqual((value, used), (10, 0.55))

    def test_never_below_the_median(self):
        value, used = run.tail_percentile(list(range(15)), 0.9)
        self.assertEqual(value, 7)
        self.assertGreaterEqual(used, 0.5)
        for n in range(1, 60):
            samples = [float((13 * i) % n) for i in range(n)]
            value, _ = run.tail_percentile(samples, 0.95)
            self.assertGreaterEqual(value, statistics.median(samples), n)

    def test_order_of_samples_does_not_matter(self):
        samples = [float((7 * i) % 1000) for i in range(1000)]
        self.assertEqual(run.tail_percentile(samples, 0.9),
                         run.tail_percentile(sorted(samples), 0.9))

    def test_sample_counts_are_stated(self):
        raw = {"atom_steps": 10.0, "timed_wall_s": 1.0, "peak_rss_mb": 1.0,
               "failed": 0, "attempted": 5,
               "samples": {"step_ms": [1.0] * 300,
                           "restore_ms": [3.0] * 40, "setup_s": [0.1] * 9}}
        values, stated = run.end_to_end(raw)
        self.assertEqual(stated["step_ms"], {"n": 300, "step_ms_p90": "p90"})
        self.assertEqual(stated["restore_ms"],
                         {"n": 40, "restore_ms_p95": "p75"})
        self.assertEqual(stated["setup_s"], {"n": 9})
        self.assertEqual(values["success_rate"], 1.0)


class BenchmarkSpec(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = []
        for group in ("end_to_end", "per_layer"):
            for metric in SPEC[group]:
                self.assertTrue(NAME.fullmatch(metric["name"]), metric)
                self.assertTrue(UNIT.fullmatch(metric["unit"]), metric)
                self.assertIn(metric["better"], ("higher", "lower"))
                names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_bounds_and_setup_metric(self):
        for metric in SPEC["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25, metric)
            self.assertGreater(metric["bound"], 0, metric)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"]
                                               for m in SPEC["end_to_end"])}])

    def test_workloads_match_the_runner(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         run.WORKLOADS)
        prefixes = {m["name"].split(".")[0] for m in SPEC["per_layer"]}
        for workload, layers in run.EXERCISED.items():
            self.assertTrue(set(layers) <= prefixes, workload)


def run_benchmark(cwd, workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class Workloads(unittest.TestCase):
    """Runs every workload for one second in both modes and two seeds."""

    def result(self, workload, seed, trace):
        proc = run_benchmark(ROOT, workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        line = json.loads(lines[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        digest = re.search(r"input_digest: (\d+)", proc.stdout).group(1)
        return line, digest

    def test_every_workload_emits_exactly_the_listed_metrics(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        layers = [m["name"] for m in SPEC["per_layer"]]
        units = {m["name"]: m["unit"]
                 for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, digest1 = self.result(workload, 1, 0)
                second, digest2 = self.result(workload, 2, 0)
                traced, _ = self.result(workload, 1, 1)
                for line, names in ((first, e2e), (second, e2e),
                                    (traced, layers)):
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(list(line["metrics"]), names)
                    for name, metric in line["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                        self.assertIsInstance(metric["value"], (int, float))
                for name in e2e:
                    self.assertGreater(first["metrics"][name]["value"], 0,
                                       name)
                # Another seed: other inputs, the same metrics.
                self.assertNotEqual(digest1, digest2)
                self.assertEqual(list(first["metrics"]),
                                 list(second["metrics"]))

    def test_fails_without_the_engine_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark(bare, "liquid-2k", 1, 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
