"""qfaulhaber benchmark: time verified results from outside the library.

    python3 perfbench/run.py --workload triangle-det --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Workloads: triangle-det, route-crosscheck, verify-all (see workloads.py),
or `all` for each in turn.  Every iteration is a fresh interpreter
(worker.py) pinned to one CPU, so the `_family_det` memo starts cold as it
does for a CLI user, and nothing is reused between iterations.
QFAUL_THREADS is removed from the workers' environment, so `verify` uses its
default pool of min(8, cpu_count) threads, all on that CPU.

With --trace 0 a run reports the end-to-end metrics, each the median over
the run's iterations: wall_s (first library call to last checked result),
setup_s (interpreter start, `import qfaulhaber`, building the inputs),
peak_rss_mb (the worker's ru_maxrss).  fail_ratio is failed / attempted.
With --trace 1 the run alternates untraced and traced iterations and
reports the per-layer metrics of tracing.py, their medians over the traced
iterations, and the tracing overhead.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Spans and a full
record of each run go to .perfbench_out/ at the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import worker_cpu
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_ITERATIONS = 3
RUN_LIMIT_S = 170  # a run must end well inside three minutes


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("QFAUL_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, size: str, deadline: float, *flags: str) -> dict:
    """Run one worker to completion and return its result object."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, *flags]
    started = time.monotonic()
    if started >= deadline:
        raise BenchError(f"{workload}: out of time after {RUN_LIMIT_S} s")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)], cwd=ROOT,
                              env=worker_env(), capture_output=True, text=True,
                              timeout=deadline - started)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker timed out") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, size: str, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced, laps = [], [], []
    OUT.mkdir(exist_ok=True)
    while True:
        lap = time.monotonic()
        plain.append(spawn(workload, seed, size, deadline))
        if trace:
            traced.append(spawn(workload, seed, size, deadline, "--trace",
                                "--spans", str(OUT / f"spans-{workload}.csv.gz")))
        laps.append(time.monotonic() - lap)
        elapsed = time.monotonic() - start
        enough = len(laps) >= (1 if trace else MIN_ITERATIONS)
        if enough and elapsed + statistics.median(laps) > seconds:
            break
    iterations = plain + traced
    record = {
        "workload": workload,
        "seed": seed,
        "seed_applies": WORKLOADS[workload][2],
        "size": size,
        "trace": trace,
        "attempted": sum(it["attempted"] for it in iterations),
        "failed": sum(it["failed"] for it in iterations),
        "samples": {"wall_s": len(plain), "setup_s": len(plain),
                    "peak_rss_mb": len(plain), "traced": len(traced)},
        "iterations": plain,
        "traced_iterations": [{k: v for k, v in it.items() if k != "layers"}
                              for it in traced],
    }
    wall = statistics.median(it["wall_s"] for it in plain)
    if not trace:
        record["metrics"] = {
            "wall_s": wall,
            "setup_s": statistics.median(it["setup_s"] for it in plain),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
        }
        record["coverage_failures"] = []
        return record
    # median_low keeps each count a count that some traced iteration made
    layers = {name: statistics.median_low(it["layers"][name] for it in traced)
              for name in traced[0]["layers"]}
    traced_wall = statistics.median(it["wall_s"] for it in traced)
    layers["trace.untraced_wall_s"] = wall
    layers["trace.traced_wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - wall
    record["metrics"] = layers
    record["coverage_failures"] = sorted({f for it in traced for f in it["coverage_failures"]})
    return record


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qfaulhaber").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "worker_cpu": worker_cpu(),
        "QFAUL_THREADS": "unset",
        "QFAUL_THREADS_inherited": os.environ.get("QFAUL_THREADS"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summary(record: dict, unit_of: dict) -> list[str]:
    ratio = record["failed"] / record["attempted"]
    lines = [f"workload {record['workload']} seed {record['seed']}"
             f"{'' if record['seed_applies'] else ' (ignored)'}"
             f" trace {int(record['trace'])} samples {record['samples']}"]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:<34} {value:.6g} {unit_of.get(name, '')}")
    lines.append(f"  {'fail_ratio':<34} {ratio:.6g} ratio "
                 f"({record['failed']}/{record['attempted']})")
    lines += [f"  COVERAGE FAILURE: {f}" for f in record["coverage_failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny checks the plumbing only; its figures mean nothing")
    args = parser.parse_args(argv)
    if not (SRC / "qfaulhaber" / "__init__.py").is_file():
        print(f"error: no qfaulhaber sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        unit_of = units(trace)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [measure(w, args.seed, args.seconds, args.size, trace) for w in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [f"{r['workload']}: {sorted(set(unit_of) ^ set(r['metrics']))}"
               for r in records if set(r["metrics"]) != set(unit_of)]
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {missing}", file=sys.stderr)
        return 1
    env = environment()
    for record in records:
        record["environment"] = env
        path = OUT / f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print("\n".join(summary(record, unit_of)))
    print("environment " + json.dumps(env))
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit_of[name]}
        for r in records for name, value in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r["coverage_failures"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
