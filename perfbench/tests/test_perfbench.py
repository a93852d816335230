#!/usr/bin/env python3
"""Tests of the repository benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ["python3", str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SpecTest(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [w["name"] for w in SPEC["workloads"]]
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        every = names + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(every), len(set(every)))
        for name in every:
            self.assertRegex(name, NAME)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))


class WorkloadTest(unittest.TestCase):
    """A tiny run of each workload, untraced and traced."""

    measured_layers = set()

    @classmethod
    def tearDownClass(cls):
        # Every per-layer metric is measured by at least one workload.
        missing = {m["name"] for m in SPEC["per_layer"]} - cls.measured_layers
        if missing:
            raise AssertionError(f"no workload measures {sorted(missing)}")

    def check_workload(self, workload):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
            result = result_of(proc)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            spec = {m["name"]: m["unit"] for m in SPEC[section]}
            self.assertEqual(set(result["metrics"]), set(spec))
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], spec[name], name)
            # Every measured metric is named in BENCHMARK.json, and each
            # prints with its unit.
            printed = {}
            for line in proc.stdout.splitlines():
                if line.startswith("metric "):
                    _, name, value, unit = line.split(" ")
                    printed[name] = (float(value), unit)
            known = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
            self.assertLessEqual(set(printed), known | {"failed_share"})
            self.assertEqual(printed["failed_share"], (0.0, "ratio"))
            if trace == 0:
                for name in spec:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)
            else:
                self.assertGreaterEqual(result["metrics"]["trace.coverage"]["value"], 0.95)
                self.assertIn("trace.overhead_share", printed)
                WorkloadTest.measured_layers |= set(printed) & set(spec)

    def test_scale_stream(self):
        self.check_workload("scale_stream")

    def test_full_study(self):
        self.check_workload("full_study")

    def test_serve_rotated(self):
        self.check_workload("serve_rotated")

    def test_all_prints_every_end_to_end_metric_and_failed_share(self):
        proc = run("--all", "--seed", "4", "--seconds", "1", "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        table = proc.stdout.split("\n\nworkload", 1)[1]
        for workload in (w["name"] for w in SPEC["workloads"]):
            for metric in SPEC["end_to_end"]:
                self.assertRegex(table, rf"{workload} +{metric['name']} +\S+ +{re.escape(metric['unit'])}")
            self.assertRegex(table, rf"{workload} +failed_share +0 +ratio")


class IncompleteCheckoutTest(unittest.TestCase):
    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(["python3", "perfbench/run.py", "--workload",
                                   "scale_stream", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=tmp, capture_output=True,
                                  text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
