"""One benchmark iteration in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --size full
        --spawned-at T [--trace --spans PATH]

The worker pins itself to one CPU.  T is the parent's time.monotonic() just
before it started this process; on Linux that clock is system-wide, so T to
"inputs built" is the set-up time (interpreter start, `import qfaulhaber`,
building the inputs).  The last line of stdout is one JSON object with the
iteration's figures.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def worker_cpu() -> int:
    """The CPU every worker is pinned to: the lowest one this process may use."""
    return min(os.sched_getaffinity(0))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    # One core per run, so the verify pool's threads trade the GIL on one CPU.
    os.sched_setaffinity(0, {worker_cpu()})

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qfaulhaber
    from workloads import WORKLOADS

    if not Path(qfaulhaber.__file__).resolve().is_relative_to(SRC):
        print(f"qfaulhaber imported from {qfaulhaber.__file__}, not {SRC}", file=sys.stderr)
        return 2
    build, run, _ = WORKLOADS[args.workload]
    inputs = build(args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    attempted, failed = run(inputs)
    result["wall_s"] = time.perf_counter() - t0
    # CPU seconds of the same span; kept in the record to tell a slower CPU
    # (cpu_s rises with wall_s) from time taken away from it (cpu_s does not).
    result["cpu_s"] = time.process_time() - c0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = attempted
    result["failed"] = failed
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["coverage_failures"] = tracer.coverage_failures(args.workload)
        if args.spans:
            result["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
