"""Run the benchmark once per seed 1-10 and report each metric's run-to-run spread.

    python3 perfbench/spread.py [--out FILE]

For every workload and end-to-end metric this prints the median of the runs,
the quartiles from statistics.quantiles(values, n=4), and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  --out writes the same figures, every
run's values and the environment record as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the figures as JSON to this file")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            env = next(json.loads(line[len("environment "):]) for line in lines
                       if line.startswith("environment "))
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bound}
            print(f"  {workload} {name}: median {median:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {(q3 - q1) / median:.4f} bound {bound}", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        report["environment"] = env
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
