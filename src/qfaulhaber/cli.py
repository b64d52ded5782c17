"""Command-line front end: compute coefficients, print tables, run suites.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
index error.  A size flag below 1, a `verify` size flag that no selected suite
reads, or a `verify --max-m` above the cap of a suite it selects (theorem1: 5,
classical: 4), is refused with exit 2.  So are requests that would enumerate
more than 1,000,000 objects: a `compute --method lgv` case with that many
path families, a `compute --method lgv-det` case for Q, G or H with that many
lattice paths over its start/end pairs (P's pair sums are a column DP and
list no path), and a `verify --suite lgv --max-m` whose cases together hold
that many path families.
Verification output is sorted by case key.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

from . import coeffs, identities, lgv
from .laurent import FAMILIES, CoeffRecord, shape_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_TABLE_DEFAULT = {"P": 5, "Q": 4, "G": 5, "H": 4}

# Most path families one `compute --method lgv` case, or one `verify --suite
# lgv` run in all, enumerates, and most lattice paths one Q/G/H `compute
# --method lgv-det` case lists.  P(8,4) has 1,531,152 families and takes
# 8.6-9.8 s with a 144 MB peak RSS; Q(19,7) lists 973,752 paths in 10.8 s
# with a 16 MB peak (one core of a 2-vCPU host, Python 3.11).
_LGV_FAMILY_LIMIT = 1_000_000


def compute_record(family: str, m: int, k: int, method: str = "det") -> CoeffRecord:
    if method == "det":
        poly = coeffs.det_route(family, m, k)
    elif method == "invert":
        poly = coeffs.invert_route(family, m, k)
    elif method == "lgv":
        poly = lgv.brute_route(family, m, k)
    elif method == "lgv-det":
        poly = lgv.lgv_det_route(family, m, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    route = {"lgv": "lgv-brute"}.get(method, method)
    return CoeffRecord(family=family, m=m, k=k, route=route, poly=poly)


def record_to_json_dict(record: CoeffRecord) -> dict:
    return {
        "family": record.family,
        "m": record.m,
        "k": record.k,
        "variable": "q",
        "route": record.route,
        "min_exp": 0,
        "coefficients": [str(c) for c in record.coefficients()],
    }


def dumps(obj) -> str:
    """Canonical JSON serialization (stable byte-for-byte round trips)."""
    return json.dumps(obj, separators=(",", ":"))


def record_to_csv_rows(record: CoeffRecord) -> list[str]:
    rows = ["family,m,k,exp,coefficient"]
    for e, c in enumerate(record.coefficients()):
        rows.append(f"{record.family},{record.m},{record.k},{e},{c}")
    return rows


def _emit_record(record: CoeffRecord, fmt: str, out) -> None:
    if fmt == "pretty":
        print(record.poly.to_string("q") if not record.poly.is_zero else "0", file=out)
    elif fmt == "json":
        print(dumps(record_to_json_dict(record)), file=out)
    elif fmt == "csv":
        print("\n".join(record_to_csv_rows(record)), file=out)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _run_cases(cases: list[tuple[str, object]], out) -> bool:
    """Run (key, thunk) verification cases in order, print sorted pass/fail lines."""
    results = [(key, bool(thunk())) for key, thunk in cases]
    all_ok = True
    for key, ok in sorted(results):
        print(f"{'PASS' if ok else 'FAIL'} {key}", file=out)
        all_ok = all_ok and ok
    return all_ok


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_theorem1(max_m: int, max_n: int) -> list:
    cases = []
    for n in range(1, max_n + 1):
        cases.append((f"theorem1 which=p m=0 n={n}",
                      lambda m=0, n=n: identities.verify_theorem1("p", m, n)))
    for which in ("p", "qmn", "t2mnq", "t2m1"):
        for m in range(1, max_m + 1):
            for n in range(1, max_n + 1):
                cases.append(
                    (f"theorem1 which={which} m={m} n={n}",
                     lambda w=which, m=m, n=n: identities.verify_theorem1(w, m, n))
                )
    return cases


def _suite_lemma2(max_m: int, max_l: int) -> list:
    return [
        (f"lemma2 which={which} m={m} l={l}",
         lambda w=which, m=m, l=l: identities.verify_lemma2(w, m, l))
        for which in ("diff1", "inverseq", "diff", "sumd")
        for m in range(1, max_m + 1)
        for l in range(1, max_l + 1)
    ]


def _suite_lemma1(max_l: int) -> list:
    return [
        (f"lemma1 a={a} b={b} q0={q0} l={l}",
         lambda a=a, b=b, q0=q0, l=l: identities.verify_lemma1(a, b, q0, l, 12))
        for (a, b) in ((1, 1), (1, 0), (0, 1))
        for q0 in (Fraction(2), Fraction(1, 2), Fraction(3))
        for l in range(1, max_l + 1)
    ]


def _suite_inverse(n: int) -> list:
    cases = [
        (f"inverse family={family} n={n}",
         lambda f=family: coeffs.verify_inverse_pair(f, n))
        for family in ("P", "Q", "G", "H")
    ]
    for m in range(2, 7):
        for t0 in (Fraction(2), Fraction(1, 2), Fraction(3)):
            cases.append(
                (f"inverse dstr-vanishing m={m} t0={t0}",
                 lambda m=m, t0=t0: coeffs.verify_dstr_vanishing(m, t0))
            )
    return cases


def _suite_lgv(max_m: int) -> list:
    def agree(family, m, k):
        det = coeffs.det_route(family, m, k)
        return det == lgv.brute_route(family, m, k) == lgv.lgv_det_route(family, m, k)

    return [
        (f"lgv family={family} m={m} k={k}",
         lambda f=family, m=m, k=k: agree(f, m, k))
        for family in ("P", "Q", "G", "H")
        for m in range(2, max_m + 1)
        for k in range(1, m)
    ]


def _suite_symmetry(max_m: int) -> list:
    def structural(family, m, k):
        p = coeffs.det_route(family, m, k)
        return p.is_palindromic() and all(c >= 0 for c in p.coeffs) and (
            p.is_zero or p.min_exp == 0
        )

    def boundary(family, m):
        factor = 1 if family in ("P", "Q") else 2
        return coeffs.det_route(family, m, m - 1) == factor * coeffs.det_route(
            family, m, m - 2
        )

    cases = [
        (f"symmetry family={family} m={m} k={k}",
         lambda f=family, m=m, k=k: structural(f, m, k))
        for family in ("P", "Q", "G", "H")
        for m in range(1, max_m + 1)
        for k in range(0, m)
    ]
    cases += [
        (f"symmetry boundary family={family} m={m}",
         lambda f=family, m=m: boundary(f, m))
        for family in ("P", "Q", "G", "H")
        for m in range(2, max_m + 1)
    ]
    return cases


def _suite_classical(max_m: int, max_n: int) -> list:
    return [
        (f"classical max_m={max_m} max_n={max_n}",
         lambda: identities.classical_check(max_m, max_n))
    ]


class _Suite(NamedTuple):
    """A verify suite: its case builder, the size flags (argparse dests) it
    reads with their defaults, in the order the builder takes them, and the
    largest `--max-m` it accepts (larger values cost too much)."""
    build: Callable[..., list]
    sizes: dict[str, int]
    max_m_cap: int | None = None


_SUITES = {
    "theorem1": _Suite(_suite_theorem1, {"max_m": 5, "max_n": 6}, max_m_cap=5),
    "lemma1": _Suite(_suite_lemma1, {"max_l": 5}),
    "lemma2": _Suite(_suite_lemma2, {"max_m": 8, "max_l": 8}),
    "inverse": _Suite(_suite_inverse, {"n": 6}),
    "lgv": _Suite(_suite_lgv, {"max_m": 6}),
    "symmetry": _Suite(_suite_symmetry, {"max_m": 8}),
    "classical": _Suite(_suite_classical, {"max_m": 4, "max_n": 20}, max_m_cap=4),
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _family_count(family: str, m: int, k: int) -> int:
    """Path families `lgv.brute_route(family, m, k)` would enumerate: with
    unit weights the LGV determinant counts the disjoint families."""
    return lgv.lgv_determinant(*lgv.family_config(family, m, k), {})[0]


def _path_count(family: str, m: int, k: int) -> int:
    """Lattice paths a Q/G/H `lgv.lgv_det_route(family, m, k)` lists: each
    start/end pair's paths once, C(east + north, north) of them."""
    starts, ends = lgv.family_config(family, m, k)
    return sum(
        comb(b.x - a.x + b.y - a.y, b.y - a.y)
        for a in starts for b in ends if b.x >= a.x and b.y >= a.y
    )


def cmd_compute(args, out) -> int:
    try:
        if args.method == "lgv":
            count = _family_count(args.family, args.m, args.k)
            if count > _LGV_FAMILY_LIMIT:
                print(f"error: --method lgv would enumerate {count} path families "
                      f"(limit {_LGV_FAMILY_LIMIT}); use --method lgv-det",
                      file=sys.stderr)
                return EXIT_USAGE
        if args.method == "lgv-det" and args.family != "P":
            count = _path_count(args.family, args.m, args.k)
            if count > _LGV_FAMILY_LIMIT:
                print(f"error: --method lgv-det would list {count} lattice paths "
                      f"(limit {_LGV_FAMILY_LIMIT}); use --method det",
                      file=sys.stderr)
                return EXIT_USAGE
        record = compute_record(args.family, args.m, args.k, args.method)
    except (coeffs.BadIndexError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit_record(record, args.format, out)
    return EXIT_OK


def cmd_table(args, out) -> int:
    max_m = args.max_m or _TABLE_DEFAULT[args.family]
    for m in range(1, max_m + 1):
        for k in range(0, m):
            record = compute_record(args.family, m, k, "det")
            if args.format == "pretty":
                print(f"{args.family}({m},{k}) = {record.poly.to_string('q')}", file=out)
            else:
                _emit_record(record, args.format, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    names = tuple(_SUITES) if args.suite == "all" else (args.suite,)
    for flag in ("max_m", "max_n", "max_l", "n"):
        if getattr(args, flag) is not None and not any(
            flag in _SUITES[name].sizes for name in names
        ):
            option = "--" + flag.replace("_", "-")
            print(f"error: {option} is not read by the {args.suite} suite",
                  file=sys.stderr)
            return EXIT_USAGE
    for name in names:
        cap = _SUITES[name].max_m_cap
        if cap is not None and args.max_m is not None and args.max_m > cap:
            print(f"error: --max-m {args.max_m} exceeds the {name} suite's cap of {cap}",
                  file=sys.stderr)
            return EXIT_USAGE
    if "lgv" in names and args.max_m is not None:
        # The budget is the whole run's.  Stopping at the first m that takes
        # the running total over the limit keeps this check cheap however
        # large --max-m is.
        total = 0
        for m in range(2, args.max_m + 1):
            total += sum(_family_count(f, m, k) for f in FAMILIES for k in range(1, m))
            if total > _LGV_FAMILY_LIMIT:
                least = "at least " if m < args.max_m else ""
                print(f"error: --max-m {args.max_m} would make the lgv suite enumerate "
                      f"{least}{total} path families in all (limit {_LGV_FAMILY_LIMIT})",
                      file=sys.stderr)
                return EXIT_USAGE
    cases = []
    for name in names:
        suite = _SUITES[name]
        # Size flags are at least 1 (see positive_int), so `or` only fills in absent ones.
        cases += suite.build(*(getattr(args, flag) or default
                               for flag, default in suite.sizes.items()))
    return EXIT_OK if _run_cases(cases, out) else EXIT_FAIL


def cmd_shape(args, out) -> int:
    max_m = args.max_m or 8
    for m in range(1, max_m + 1):
        for k in range(0, m):
            poly = coeffs.det_route(args.family, m, k)
            report = shape_report(poly)
            print(
                f"{args.family}({m},{k}) unimodal={report.unimodal} "
                f"log_concave={report.log_concave}",
                file=out,
            )
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 (got {value})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfaulhaber",
        description="Exact q-Faulhaber and q-Salie coefficient polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one coefficient polynomial")
    p_compute.add_argument("--family", required=True, choices=("P", "Q", "G", "H"))
    p_compute.add_argument("--m", type=int, required=True)
    p_compute.add_argument("--k", type=int, required=True)
    p_compute.add_argument(
        "--method", default="det", choices=("det", "invert", "lgv", "lgv-det")
    )
    p_compute.add_argument("--format", default="pretty", choices=("pretty", "json", "csv"))

    p_table = sub.add_parser("table", help="print a triangular family table")
    p_table.add_argument("--family", required=True, choices=("P", "Q", "G", "H"))
    p_table.add_argument("--max-m", dest="max_m", type=positive_int, default=None)
    p_table.add_argument("--format", default="pretty", choices=("pretty", "json", "csv"))

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=(*_SUITES, "all"),
    )
    p_verify.add_argument("--max-m", dest="max_m", type=positive_int, default=None)
    p_verify.add_argument("--max-n", dest="max_n", type=positive_int, default=None)
    p_verify.add_argument("--max-l", dest="max_l", type=positive_int, default=None)
    p_verify.add_argument("--n", dest="n", type=positive_int, default=None)

    p_shape = sub.add_parser("shape", help="report unimodality and log-concavity")
    p_shape.add_argument("--family", required=True, choices=("P", "Q", "G", "H"))
    p_shape.add_argument("--max-m", dest="max_m", type=positive_int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {
        "compute": cmd_compute,
        "table": cmd_table,
        "verify": cmd_verify,
        "shape": cmd_shape,
    }
    return handlers[args.command](args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
