"""The benchmark's workloads: inputs built from a seed, operations, checks.

Each workload is a `build(seed, size)` that makes the inputs (part of set-up)
and a `run(inputs)` that performs and checks every operation (the timed
part) and returns (attempted, failed).  An operation that raises counts as
failed; it never aborts the run.  The library is reached only through the
module attributes of its public layers, so a traced run sees every call.

- triangle-det: det_route over the full P/Q/G/H triangles, each polynomial
  computed once.  Large-operand multiplies; no Fraction, lgv or identity work.
- route-crosscheck: one invert_route_row per family plus lgv_det_route for
  every k of one row, each checked equal to det_route.  Fraction arithmetic
  and path enumeration; small multiplies.
- verify-all: the `verify --suite all` command in process.  Tiny operands,
  heavy _family_det reuse, brute lattice paths and the CLI thread pool.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

FAMILIES = ("P", "Q", "G", "H")
DIGESTS = Path(__file__).with_name("digests.json")

# "full" is what the benchmark measures; "tiny" only proves the plumbing.
SIZES = {
    "full": {
        "triangle_max_m": 20,
        "invert_m": 10,
        "lgv_m": 11,
        "verify_argv": ["verify", "--suite", "all"],
        "verify_cases": 679,
    },
    "tiny": {
        "triangle_max_m": 4,
        "invert_m": 3,
        "lgv_m": 4,
        "verify_argv": ["verify", "--suite", "all", "--max-m", "3", "--max-n", "2",
                        "--max-l", "2", "--n", "2"],
        "verify_cases": 132,
    },
}


def poly_digest(poly) -> str:
    """Digest of a polynomial's lowest exponent and coefficients."""
    text = f"{poly.min_exp}:" + ",".join(map(str, poly.coeffs))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _guarded(check) -> bool:
    try:
        return bool(check())
    except Exception:  # a raising operation is a failed operation
        return False


# -- triangle-det --------------------------------------------------------------

def build_triangle(seed: int, size: str):
    max_m = SIZES[size]["triangle_max_m"]
    expected = json.loads(DIGESTS.read_text())["digests"]
    ops = [(f, m, k) for f in FAMILIES for m in range(1, max_m + 1) for k in range(m)]
    random.Random(seed).shuffle(ops)
    return [(op, expected[f"{op[0]}({op[1]},{op[2]})"]) for op in ops]


def run_triangle(inputs):
    from qfaulhaber import coeffs

    failed = sum(
        not _guarded(lambda: poly_digest(coeffs.det_route(*op)) == digest)
        for op, digest in inputs
    )
    return len(inputs), failed


# -- route-crosscheck ----------------------------------------------------------

def build_crosscheck(seed: int, size: str):
    invert_m, lgv_m = SIZES[size]["invert_m"], SIZES[size]["lgv_m"]
    ops = [("invert", f, invert_m) for f in FAMILIES]
    ops += [("lgv", f, lgv_m, k) for f in FAMILIES for k in range(lgv_m)]
    random.Random(seed).shuffle(ops)
    return ops


def run_crosscheck(inputs):
    from qfaulhaber import coeffs, lgv

    attempted = failed = 0
    for op in inputs:
        if op[0] == "lgv":
            _, f, m, k = op
            attempted += 1
            failed += not _guarded(lambda: lgv.lgv_det_route(f, m, k) == coeffs.det_route(f, m, k))
            continue
        _, f, m = op
        attempted += m
        try:
            row = coeffs.invert_route_row(f, m)
        except Exception:
            failed += m
            continue
        failed += sum(
            not _guarded(lambda: row[k] == coeffs.det_route(f, m, k)) for k in range(m)
        )
    return attempted, failed


# -- verify-all ----------------------------------------------------------------

def build_verify(seed: int, size: str):
    # The CLI fixes the case order, so the seed changes nothing here.
    return SIZES[size]["verify_argv"], SIZES[size]["verify_cases"]


def run_verify(inputs):
    from qfaulhaber import cli

    argv, expected = inputs
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    except Exception:
        return expected, expected
    lines = out.getvalue().splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    ok = code == 0 and passed == expected == len(lines)
    return expected, 0 if ok else max(1, expected - passed)


WORKLOADS = {
    "triangle-det": (build_triangle, run_triangle, True),
    "route-crosscheck": (build_crosscheck, run_crosscheck, True),
    "verify-all": (build_verify, run_verify, False),
}
"""name -> (build, run, whether the seed changes the inputs)"""
