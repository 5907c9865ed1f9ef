#!/usr/bin/env python3
"""Self-tests of the perf-regression gate, on reports built in memory:

    python3 bench/test_compare_bench.py
"""

import contextlib
import io
import unittest

import compare_bench


def report(real_time, num_cpus=4, build_type="Release"):
    context = {"num_cpus": num_cpus, "library_build_type": "debug"}
    if build_type is not None:
        context["altis_build_type"] = build_type
    return {"context": context,
            "benchmarks": [{"name": "BM_ParallelFor/4096",
                            "run_type": "iteration",
                            "real_time": real_time}]}


def run_gate(old, new):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = compare_bench.gate(old, new)
    return code, out.getvalue()


class CompareBenchTest(unittest.TestCase):
    def test_same_context_gates_a_regression_above_25_percent(self):
        self.assertEqual(run_gate(report(100.0), report(120.0))[0], 0)
        code, out = run_gate(report(100.0), report(130.0))
        self.assertEqual(code, 1)
        self.assertNotIn("not comparable", out)

    def test_different_num_cpus_skips_with_a_note(self):
        code, out = run_gate(report(100.0, num_cpus=1), report(300.0))
        self.assertEqual(code, 0)
        self.assertIn("not comparable: num_cpus 1 vs 4", out)

    def test_different_build_type_skips_with_a_note(self):
        code, out = run_gate(report(100.0, build_type="Debug"), report(300.0))
        self.assertEqual(code, 0)
        self.assertIn("not comparable: altis_build_type Debug vs Release",
                      out)

    def test_baseline_without_build_type_still_gates(self):
        code, out = run_gate(report(100.0, build_type=None), report(130.0))
        self.assertEqual(code, 1)
        self.assertNotIn("not comparable", out)


if __name__ == "__main__":
    unittest.main()
