#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not part of the repository's ctest):

    python3 perfbench/test_perfbench.py

They run the small `selftest` configuration list, which covers every config
kind the real workloads use (registry apps, an out-of-order queue, an FPGA
pipe design and fig-grid cells), and build the driver first if needed.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    p = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "selftest",
                        *args], capture_output=True, text=True, cwd=run.ROOT)
    return p, json.loads(p.stdout.strip().splitlines()[-1]) if p.returncode == 0 else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def assert_metrics(self, result, declared):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for k, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)

    def test_every_named_metric_is_printed_with_its_unit(self):
        p, r = bench("--trace", "0")
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertTrue(r["correct"])
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assert_metrics(r, BENCHMARK["end_to_end"])
        p, r = bench("--trace", "1")
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assert_metrics(r, BENCHMARK["per_layer"])
        self.assertEqual(r["metrics"]["failed_share"]["value"], 0.0)

    def test_failed_share_counts_a_thrown_config(self):
        p, r = bench("--trace", "1", "--fail-throw", "where")
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertFalse(r["correct"])
        # One config of ten fails in each of the three driver runs.
        self.assertEqual(r["failed"], 3)
        self.assertAlmostEqual(r["metrics"]["failed_share"]["value"], 3 / r["attempted"])
        self.assertIn("injected wrong result", p.stderr)

    def test_failed_share_counts_a_perturbed_simulated_row(self):
        p, r = bench("--trace", "1", "--fail-perturb", "dwt2d")
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 3)
        self.assertAlmostEqual(r["metrics"]["failed_share"]["value"], 3 / r["attempted"])
        self.assertIn("digest mismatch", p.stderr)

    def test_two_seeds_give_identical_digests(self):
        driver = run.Driver(time.monotonic() + 120)
        a = driver.workload("selftest", 1, "--lists", "1")["configs"]
        b = driver.workload("selftest", 2, "--lists", "1")["configs"]
        self.assertNotEqual([c["key"] for c in a], [c["key"] for c in b],
                            "the seed should permute the configuration order")
        digests = {c["key"]: c["digest"] for c in a}
        self.assertEqual(digests, {c["key"]: c["digest"] for c in b})
        self.assertEqual(digests, run.load_reference("selftest")["configs"])

    def test_fails_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(run.ROOT / "BENCHMARK.json", d)
            shutil.copytree(run.HERE, Path(d) / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                                "suite_s2", "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=d, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
