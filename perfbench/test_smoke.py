"""Smoke test of the benchmark at tiny sizes; not a timing gate.

    python3 -m unittest perfbench/test_smoke.py     (from the repository root)

Checks that every metric BENCHMARK.json names is emitted with its unit, that
fail_ratio is 0 and every traced boundary is reached, that the seed shuffles
the work without changing it, and that the benchmark refuses to run without
the library's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class TinyRuns(unittest.TestCase):
    def check(self, trace: int):
        section = SPEC["per_layer" if trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in section}
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                proc = bench(ROOT, workload["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertRegex(proc.stdout, r"\n  fail_ratio +0 ratio ")
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)

    def test_end_to_end_metrics(self):
        self.check(0)

    def test_per_layer_metrics(self):
        self.check(1)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench(Path(tmp), "triangle-det", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Inputs(unittest.TestCase):
    def test_seed_shuffles_order_not_work(self):
        for build in (workloads.build_triangle, workloads.build_crosscheck):
            first, second = build(1, "full"), build(2, "full")
            self.assertEqual(build(1, "full"), first)
            self.assertNotEqual(first, second)
            self.assertEqual(sorted(first), sorted(second))

    def test_wrong_and_raising_operations_count_as_failed(self):
        good = workloads.build_triangle(0, "tiny")[0]
        inputs = [good, (good[0], "0" * 32), (("P", 2, 5), good[1])]
        self.assertEqual(workloads.run_triangle(inputs), (3, 2))


if __name__ == "__main__":
    unittest.main()
