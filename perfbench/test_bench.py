#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py            # from the repository root

They build the benchmark through run.py (into $CARGO_TARGET_DIR, default
.bench_build) and check that:
  * the seed changes the generated inputs but no metric name;
  * two back-to-back runs of one workload agree within the bounds recorded
    in BENCHMARK.json;
  * tracing leaves every simulated output unchanged, and the benchmark's
    spliceable copy of each measurement equals core::measure_*;
  * without the simulator's sources the benchmark fails without a result.
The whole file takes about four minutes.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, seconds, trace=0, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=env)
    return proc


def result(workload, seed, seconds, trace=0):
    proc = run(workload, seed, seconds, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def driver(*args):
    return subprocess.run([os.path.join(BUILD, "perfbench"), *args], cwd=ROOT,
                          capture_output=True, text=True)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds the driver once (the first run of a checkout compiles it).
        result("clean_transfer", 1, 0)

    def test_seed_changes_inputs_not_metric_names(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            a = driver("--list-inputs", w, "--seed", "1").stdout
            b = driver("--list-inputs", w, "--seed", "2").stdout
            self.assertTrue(a.strip(), w)
            self.assertNotEqual(a, b, f"{w}: seed does not change the inputs")
            names = [set(result(w, seed, 0)["metrics"]) for seed in (1, 2)]
            self.assertEqual(names[0], names[1], w)
            self.assertEqual(names[0], e2e, w)

    def test_back_to_back_runs_agree_within_bounds(self):
        # The bounds hold for runs of the benchmark's own length.
        first = result("clean_transfer", 1, SPEC["run_seconds"])
        second = result("clean_transfer", 1, SPEC["run_seconds"])
        for m in SPEC["end_to_end"]:
            a = first["metrics"][m["name"]]["value"]
            b = second["metrics"][m["name"]]["value"]
            self.assertLessEqual(abs(b - a) / a, m["bound"], f"{m['name']}: {a} vs {b}")

    def test_tracing_leaves_outputs_identical(self):
        layer = {m["name"] for m in SPEC["per_layer"]}
        for w in ("flood_collapse", "clean_transfer"):
            r = result(w, 1, 0, trace=1)
            self.assertTrue(r["correct"], f"{w}: traced run failed its checks")
            self.assertEqual(r["failed"], 0)
            self.assertEqual(set(r["metrics"]), layer)
            self.assertLess(r["metrics"]["trace.reconcile_error"]["value"], 0.03)
            check = driver("--check-measure", w, "--seed", "5")
            self.assertEqual(check.returncode, 0, check.stdout)

    def test_default_seed_is_correct(self):
        for w in WORKLOADS:
            r = result(w, 1, 0)
            self.assertTrue(r["correct"], w)
            self.assertEqual(r["failed"], 0, w)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            # With the default build directory, inside the copy.
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            proc = run("clean_transfer", 1, 1, cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
