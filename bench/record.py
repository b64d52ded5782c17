"""Record the benchmark's end-to-end figures for one PR as BENCH_<pr>.json.

    python3 bench/record.py --pr 35 --seeds 1 2 3 4 5 --seconds 6
    python3 bench/record.py --pr 35 --baseline ../parent-checkout

For each seed, `perfbench/run.py --workload all --trace 0` runs as a
subprocess and its last stdout line, one JSON object, is kept.  Next to each
run a fixed 100,000-step loop is timed in this process (`calibrate`), so a
figure can be read against the host's speed at that moment: the host's
speed drifts between runs.  With --baseline, the same runs are made on a
second checkout, alternating with this one, the side that runs first
changing from seed to seed, as a before/after comparison needs.  The file holds the argv, the Python version, the cpu
count and, per checkout, its commit and source digest, each run, and the
median of every end-to-end metric per workload over the seeds.  Stdlib only;
perfbench/ is read, not changed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOOP_STEPS = 100_000


def calibrate() -> float:
    """Seconds for a fixed loop of LOOP_STEPS integer steps."""
    start = time.perf_counter()
    x = 0
    for i in range(LOOP_STEPS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def commit(root: Path) -> str:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(root: Path, seed: int, seconds: int, size: str) -> dict:
    """One `perfbench/run.py --workload all` run on the checkout at root."""
    calibration_s = calibrate()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--size", size, "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"perfbench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    environment = next((json.loads(line.split(" ", 1)[1]) for line in lines
                        if line.startswith("environment ")), {})
    return {"seed": seed, "exit": proc.returncode, "calibration_s": calibration_s,
            "src_sha256": environment.get("src_sha256"), "result": json.loads(lines[-1])}


def medians(runs: list[dict]) -> dict:
    """workload -> metric -> median value over the runs."""
    values: dict[str, dict[str, list]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            workload, metric_name = name.split(".", 1)
            values.setdefault(workload, {}).setdefault(metric_name, []).append(metric["value"])
    return {w: {m: statistics.median(v) for m, v in ms.items()} for w, ms in values.items()}


def summary(root: Path, runs: list[dict]) -> dict:
    return {
        "commit": commit(root),
        "src_sha256": sorted({run["src_sha256"] for run in runs if run["src_sha256"]}),
        "correct": all(run["exit"] == 0 and run["result"]["correct"] for run in runs),
        "calibration_s": statistics.median(run["calibration_s"] for run in runs),
        "medians": medians(runs),
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--baseline", type=Path,
                        help="a second checkout, run alternately with this one")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repo root")
    args = parser.parse_args(argv)
    trees = {"this": ROOT}
    if args.baseline:
        trees["baseline"] = args.baseline.resolve()
    runs: dict[str, list] = {name: [] for name in trees}
    try:
        for i, seed in enumerate(args.seeds):
            # the side that runs first alternates from seed to seed
            for name, root in list(trees.items())[::(-1) ** i]:
                runs[name].append(run_once(root, seed, args.seconds, args.size))
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "pr": args.pr,
        "argv": sys.argv[1:] if argv is None else list(argv),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "size": args.size,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "loop_steps": LOOP_STEPS,
        "trees": {name: summary(root, runs[name]) for name, root in trees.items()},
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, tree in record["trees"].items():
        print(name, json.dumps({w: round(m["wall_s"], 4) for w, m in tree["medians"].items()}))
    return 0 if all(tree["correct"] for tree in record["trees"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
