#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/test_run.py

They build perfbench (as run.py does), check the span arithmetic on a
synthetic span tree, check that a clean run of every workload is correct and
prints exactly the metrics BENCHMARK.json declares, that a wrong agent result
fails the run, and that the benchmark refuses to run without the kernel
sources.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    done = subprocess.run([str(run.BUILD / "perfbench"), *args], capture_output=True,
                          text=True, timeout=120, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("perfbench does not build")

    def test_span_arithmetic(self):
        done = subprocess.run([str(run.BUILD / "perfbench_spans_test")],
                              capture_output=True, text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_clean_runs_are_correct(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench("--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", "0")
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), END_TO_END)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        code, result = bench("--workload", "walk-sim", "--seed", "3", "--seconds", "2",
                             "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), PER_LAYER)

    def test_wrong_result_fails_the_run(self):
        code, result = bench("--workload", "carry-sim", "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--corrupt-cabinet")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_refuses_without_sources(self):
        lonely = run.BUILD / "lonely"
        shutil.rmtree(lonely, ignore_errors=True)
        shutil.copytree(HERE, lonely / HERE.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", lonely)
        done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "walk-sim", "--seed", "1", "--seconds", "1", "--trace",
                               "0"], cwd=lonely, capture_output=True, text=True,
                              timeout=170, check=False)
        shutil.rmtree(lonely, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
