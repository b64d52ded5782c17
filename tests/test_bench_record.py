"""Smoke test of bench/record.py at tiny sizes: the keys of its record."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
END_TO_END = {"wall_s", "setup_s", "peak_rss_mb"}


def test_record_keys(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run(
        [sys.executable, "bench/record.py", "--pr", "smoke", "--seeds", "1",
         "--size", "tiny", "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert {"pr", "argv", "python", "cpu_count", "size", "seeds", "loop_steps",
            "trees"} <= set(record)
    assert record["pr"] == "smoke" and record["seeds"] == [1] and record["size"] == "tiny"
    assert list(record["trees"]) == ["this"]
    tree = record["trees"]["this"]
    assert {"commit", "src_sha256", "correct", "calibration_s", "medians", "runs"} <= set(tree)
    assert tree["correct"] and tree["calibration_s"] > 0 and len(tree["src_sha256"]) == 1
    assert set(tree["medians"]) == WORKLOADS
    for metrics in tree["medians"].values():
        assert set(metrics) == END_TO_END
        assert all(value > 0 for value in metrics.values())
    (run,) = tree["runs"]
    assert run["seed"] == 1 and run["exit"] == 0 and run["result"]["correct"]
