#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

- Runs every workload at the tiny scale, untraced and traced, and checks
  that each prints exactly the metrics BENCHMARK.json names, with their
  units, and passes its correctness gate.
- Checks that a corrupted copy of a report, or of a check-matrix line,
  fails the gate and is counted against the success rate.
- Checks that a directory holding only BENCHMARK.json and the benchmark
  exits nonzero without printing a result.

Takes a few minutes, most of it the first build.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=run.ROOT, script=run.BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class Metrics(unittest.TestCase):
    def check_result(self, workload, trace):
        done = bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [s["name"] for s in specs])
        for s in specs:
            metric = result["metrics"][s["name"]]
            self.assertEqual(metric["unit"], s["unit"], s["name"])
            self.assertTrue(math.isfinite(metric["value"]), s["name"])
        if trace:
            self.assertIn("residual", done.stdout)
        else:
            self.assertEqual(result["metrics"]["success_rate"]["value"], 1.0)
        return result

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 0)

    def test_every_workload_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 1)


class Gate(unittest.TestCase):
    def setUp(self):
        run.build()
        run.WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_corrupted_report_fails_the_gate(self):
        pins = json.loads(run.EXPECTED_PATH.read_text())["suite"]["tiny"]
        env = run.process_env(run.rf_env("suite_cold", pins["commits"], self.work / "store"))
        rc, _, _, _ = run.run_child([str(run.binaries()["all"])], self.work, env,
                                    self.work / "stdout.txt")
        results = self.work / "results"
        clean = run.Gate()
        run.gate_suite(clean, rc, results, pins, "suite_cold")
        self.assertEqual(clean.failed, 0, clean.problems)
        self.assertEqual(clean.success_rate(), 1.0)

        copy = self.work / "corrupted"
        shutil.copytree(results, copy)
        report = copy / "fig3.txt"
        data = bytearray(report.read_bytes())
        data[len(data) // 2] ^= 0x01
        report.write_bytes(bytes(data))
        gate = run.Gate()
        run.gate_suite(gate, rc, copy, pins, "suite_cold", reference=results)
        self.assertEqual(gate.failed, 2, gate.problems)  # the pin and the cold copy
        self.assertTrue(any("fig3" in p for p in gate.problems))
        self.assertEqual(gate.attempted, clean.attempted + len(run.HARNESSES))
        self.assertLess(gate.success_rate(), 1.0)

    def test_corrupted_check_line_fails_the_gate(self):
        pins = json.loads(run.EXPECTED_PATH.read_text())["check"]
        expected = run.check_lines(1000, 7, pins["benchmarks"])
        clean = run.Gate()
        run.gate_check(clean, 0, "\n".join(expected) + "\n", expected)
        self.assertEqual(clean.failed, 0, clean.problems)
        bad = list(expected)
        bad[5] = bad[5].replace("PASS", "FAIL")
        gate = run.Gate()
        run.gate_check(gate, 0, "\n".join(bad) + "\n", expected)
        self.assertEqual(gate.failed, 2, gate.problems)  # the line and the failed config
        self.assertLess(gate.success_rate(), 1.0)


class Standalone(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_result(self):
        run.WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="standalone-", dir=run.WORK_ROOT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("suite_cold", 0, cwd=tmp,
                         script=Path(tmp) / run.BENCH_DIR.name / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
