"""Command-line front end: compute coefficients, print tables, run suites.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
index error.  One table, `_SIZES`, has a row for every suite, command or
compute method that reads a size flag, and gives each flag it reads a
default, a least value (the least that leaves it something to do: lgv
`--max-m` 2, every other flag 1) and a cap: the largest value at which it
alone, its other flags at their caps, runs in about 10 s.  Before any work,
`main` refuses with exit 2 a size flag that no selected row reads (`verify
--suite all` selects every suite) and one outside the range of a selected row
that reads it.  `table` and `shape` compute the det-route rows m = 1..--max-m
of one family; their caps and the `compute` caps are measured on Q, the
costliest family.  For k >= 2 the det route builds the whole row m, so its
cap holds there; k <= 1 reads one matrix of size k, yet the cap refuses it
too.  Invert's cap is measured at its costliest k, m - 1.  Cold
single-process runs at the caps, one core of a 2-vCPU host, Python 3.11 (the
host's speed varied by about a third between runs):

    verify --suite theorem1   --max-m 11, --max-n 30     8.5-11.0 s  (12: 12.9-14.8 s)
    verify --suite lemma1     --max-l 130                7.8-10.3 s  (140: 9.6-10.9 s)
    verify --suite lemma2     --max-m 20, --max-l 20     7.3-8.7 s   (21: 9.1-13.2 s)
    verify --suite inverse    --n 17                     6.1-7.8 s   (18: 11.8-14.4 s)
    verify --suite lgv        --max-m 14                 7.0-7.6 s   (15: 15.2-15.8 s)
    verify --suite symmetry   --max-m 37                 7.5-9.6 s   (38: 10.2-10.6 s)
    verify --suite classical  --max-m 40, --max-n 2500   6.9-9.2 s   (42: 10.3-11.5 s)
    table                     --max-m 41                 8.2-10.0 s  (42: 11.6 s)
    shape                     --max-m 42                 9.6-10.6 s  (43: 13.4 s)
    compute --method det      --m 54                     8.8-9.5 s   (55: 10.8-10.9 s)
    compute --method invert   --m 42                     8.8-11.4 s  (43: 10.7-11.7 s)

`compute` refuses a request that would test or list more than 1,000,000
objects: a `--method lgv` case whose chain sum tests that many adjacent path
pairs (C(i - 1) C(i) over i = 1..k - 1, C(i) the paths of start/end pair i),
or a `--method lgv-det` case for Q, G or H with that many lattice paths over
its start/end pairs (P's pair sums are a column DP and list no path).
Verification output is sorted by case key; a case that raises prints a FAIL
line naming the exception, and the remaining cases still run.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import coeffs, identities, lgv
from .laurent import FAMILIES, CoeffRecord, shape_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Most adjacent path pairs one `compute --method lgv` case tests, and most
# lattice paths one Q/G/H `compute --method lgv-det` case lists.  P(16,8)
# would test 1,024,344 pairs and takes 0.9-1.2 s with a 41 MB peak RSS,
# P(15,8) tests 653,624 in 0.45-0.62 s with a 33 MB peak; Q(19,7) lists
# 973,752 paths in 3.7-5.8 s with a 16 MB peak, tallying each by two
# statistics (cold processes, one core of a 2-vCPU host, Python 3.11).
_LGV_OBJECT_LIMIT = 1_000_000


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


CSV_HEADER = "family,m,k,exp,coefficient"


def record_to_csv_rows(record: CoeffRecord) -> list[str]:
    """The record's rows under `CSV_HEADER`, one per coefficient."""
    return [f"{record.family},{record.m},{record.k},{e},{c}"
            for e, c in enumerate(record.coefficients())]


def _emit_records(records, fmt: str, out) -> None:
    """Print each record in fmt; csv rows share one header line."""
    if fmt == "csv":
        print(CSV_HEADER, file=out)
    for record in records:
        if fmt == "pretty":
            print(record.poly.to_string("q") if not record.poly.is_zero else "0", file=out)
        elif fmt == "json":
            print(dumps(record_to_json_dict(record)), file=out)
        elif fmt == "csv":
            print("\n".join(record_to_csv_rows(record)), file=out)
        else:
            raise ValueError(f"unknown format {fmt!r}")


def _run_cases(cases: list[tuple[str, object]], out) -> bool:
    """Run (key, thunk) verification cases in order, print sorted pass/fail
    lines.  A case that raises fails with the exception named on its line and
    its traceback on stderr, and the other cases still run."""
    lines = []
    for key, thunk in cases:
        try:
            line = f"{'PASS' if thunk() else 'FAIL'} {key}"
        except Exception as exc:
            import traceback  # only on this path: it adds ~3 ms to every start

            traceback.print_exc()
            line = f"FAIL {key}: {type(exc).__name__}: {exc}"
        lines.append((key, line))
    for _, line in sorted(lines):
        print(line, file=out)
    return all(line.startswith("PASS") for _, line in lines)


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
    # Lemma 1 is proved for every q, so each (a, b, l) is proved once and its
    # keys at q0 = 2, 1/2 and 3, where [l] and [2l] do not vanish, share it.
    proofs = {(a, b, l): cache(lambda a=a, b=b, l=l: identities.verify_lemma1(a, b, l, 12))
              for (a, b) in ((1, 1), (1, 0), (0, 1)) for l in range(1, max_l + 1)}
    return [(f"lemma1 a={a} b={b} q0={q0} l={l}", proof)
            for (a, b, l), proof in proofs.items() for q0 in ("2", "1/2", "3")]


def _suite_inverse(n: int) -> list:
    cases = [
        (f"inverse family={family} n={n}",
         lambda f=family: coeffs.verify_inverse_pair(f, n))
        for family in ("P", "Q", "G", "H")
    ]
    # the boundary sum is proved for every t, so each m = 2..max(6, n) is
    # proved once and its keys at t0 = 2, 1/2 and 3 share it
    proofs = {m: cache(lambda m=m: coeffs.verify_dstr_vanishing(m))
              for m in range(2, max(6, n) + 1)}
    return cases + [(f"inverse dstr-vanishing m={m} t0={t0}", proof)
                    for m, proof in proofs.items() for t0 in ("2", "1/2", "3")]


def _suite_lgv(max_m: int) -> list:
    # one invert-route row per (family, m), shared by its k
    rows = {(family, m): cache(lambda f=family, m=m: coeffs.invert_route_row(f, m))
            for family in ("P", "Q", "G", "H") for m in range(2, max_m + 1)}

    def agree(family, m, k):
        det = coeffs.det_route(family, m, k)
        return (det == rows[family, m]()[k] == lgv.brute_route(family, m, k)
                == lgv.lgv_det_route(family, m, k))

    return [
        (f"lgv family={family} m={m} k={k}",
         lambda f=family, m=m, k=k: agree(f, m, k))
        for family, m in rows
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


_SUITES = {
    "theorem1": _suite_theorem1,
    "lemma1": _suite_lemma1,
    "lemma2": _suite_lemma2,
    "inverse": _suite_inverse,
    "lgv": _suite_lgv,
    "symmetry": _suite_symmetry,
    "classical": _suite_classical,
}

# Each row: the argv that selects it, then, for each size flag (argparse dest)
# it reads, in the order a suite's builder takes them, the flag's (default,
# least, cap); see the module docstring for what a cap costs.  A required
# flag, or one whose default depends on the family, has default None.
_SIZES = {
    "verify --suite theorem1": {"max_m": (5, 1, 11), "max_n": (6, 1, 30)},
    "verify --suite lemma1": {"max_l": (5, 1, 130)},
    "verify --suite lemma2": {"max_m": (8, 1, 20), "max_l": (8, 1, 20)},
    "verify --suite inverse": {"n": (6, 1, 17)},
    "verify --suite lgv": {"max_m": (6, 2, 14)},
    "verify --suite symmetry": {"max_m": (8, 1, 37)},
    "verify --suite classical": {"max_m": (4, 1, 40), "max_n": (20, 1, 2500)},
    "table": {"max_m": (None, 1, 41)},
    "shape": {"max_m": (8, 1, 42)},
    "compute --method det": {"m": (None, 1, 54)},
    "compute --method invert": {"m": (None, 1, 42)},
}
_TABLE_DEFAULT = {"P": 5, "Q": 4, "G": 5, "H": 4}


def _size_refusal(args) -> str | None:
    """Why `main` refuses args' size flags, or None: a flag that no selected
    row of `_SIZES` reads, or one outside the range of a selected row that
    reads it (the first such row, in table order)."""
    if args.command == "verify":
        chosen = f"verify --suite {args.suite}"
        rows = [f"verify --suite {name}" for name in _SUITES] if args.suite == "all" else [chosen]
    else:
        chosen = f"compute --method {args.method}" if args.command == "compute" else args.command
        if chosen not in _SIZES:
            return None  # compute --method lgv and lgv-det refuse by object counts instead
        rows = [chosen]
    for flag in dict.fromkeys(flag for sizes in _SIZES.values() for flag in sizes):
        value = getattr(args, flag, None)
        if value is None:
            continue
        option = "--" + flag.replace("_", "-")
        readers = [row for row in rows if flag in _SIZES[row]]
        if not readers:
            return f"{option} is not read by {chosen}"
        for row in readers:
            _, least, cap = _SIZES[row][flag]
            if not least <= value <= cap:
                return f"{row} takes {option} {least}..{cap} (got {value})"
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _tested_pairs(family: str, m: int, k: int) -> int:
    """Adjacent path pairs `lgv.brute_route(family, m, k)` tests: C(i - 1) C(i)
    over i = 1..k - 1, with C(i) = C(east + north, north) the paths of
    start/end pair i.  Exact for one call in a fresh process; an upper bound
    once the process has listed some of its levels, since the route lists
    only the levels its memo lacks."""
    starts, ends = lgv.family_config(family, m, k)
    counts = [lgv.path_count(a, b) for a, b in zip(starts, ends)]
    return sum(a * b for a, b in zip(counts, counts[1:]))


def _path_count(family: str, m: int, k: int) -> int:
    """Lattice paths a Q/G/H `lgv.lgv_det_route(family, m, k)` lists: each
    start/end pair's paths once, C(east + north, north) of them.  Exact for
    one call in a fresh process (the k*k pairs of one case have distinct
    displacements); an upper bound once the process has tallied some
    displacements, for this family or, for G and H, the other, since the
    route lists only the displacements its memo lacks."""
    starts, ends = lgv.family_config(family, m, k)
    return sum(lgv.path_count(a, b) for a in starts for b in ends)


def cmd_compute(args, out) -> int:
    try:
        if args.method == "lgv":
            count = _tested_pairs(args.family, args.m, args.k)
            if count > _LGV_OBJECT_LIMIT:
                print(f"error: --method lgv would test {count} adjacent path pairs "
                      f"(limit {_LGV_OBJECT_LIMIT}); use --method lgv-det",
                      file=sys.stderr)
                return EXIT_USAGE
        if args.method == "lgv-det" and args.family != "P":
            count = _path_count(args.family, args.m, args.k)
            if count > _LGV_OBJECT_LIMIT:
                print(f"error: --method lgv-det would list {count} lattice paths "
                      f"(limit {_LGV_OBJECT_LIMIT}); use --method det",
                      file=sys.stderr)
                return EXIT_USAGE
        record = compute_record(args.family, args.m, args.k, args.method)
    except (coeffs.BadIndexError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit_records([record], args.format, out)
    return EXIT_OK


def _det_records(family: str, max_m: int):
    """The det-route records of family's rows m = 1..max_m, k < m, in order."""
    return (compute_record(family, m, k) for m in range(1, max_m + 1) for k in range(m))


def cmd_table(args, out) -> int:
    records = _det_records(args.family, args.max_m or _TABLE_DEFAULT[args.family])
    if args.format == "pretty":
        for record in records:
            print(f"{record.family}({record.m},{record.k}) = {record.poly.to_string('q')}",
                  file=out)
    else:
        _emit_records(records, args.format, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    cases = []
    for name in _SUITES if args.suite == "all" else (args.suite,):
        # `main` refused every size below its least, so `or` only fills in absent ones
        cases += _SUITES[name](*(getattr(args, flag) or default for flag, (default, _, _)
                                 in _SIZES[f"verify --suite {name}"].items()))
    return EXIT_OK if _run_cases(cases, out) else EXIT_FAIL


def cmd_shape(args, out) -> int:
    for record in _det_records(args.family, args.max_m or _SIZES["shape"]["max_m"][0]):
        report = shape_report(record.poly)
        print(f"{record.family}({record.m},{record.k}) unimodal={report.unimodal} "
              f"log_concave={report.log_concave}", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfaulhaber",
        description="Exact q-Faulhaber and q-Salie coefficient polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one coefficient polynomial")
    p_compute.add_argument("--family", required=True, choices=FAMILIES)
    p_compute.add_argument("--m", type=int, required=True)
    p_compute.add_argument("--k", type=int, required=True)
    p_compute.add_argument(
        "--method", default="det", choices=("det", "invert", "lgv", "lgv-det")
    )
    p_compute.add_argument("--format", default="pretty", choices=("pretty", "json", "csv"))

    p_table = sub.add_parser("table", help="print a triangular family table")
    p_table.add_argument("--family", required=True, choices=FAMILIES)
    p_table.add_argument("--max-m", dest="max_m", type=int)
    p_table.add_argument("--format", default="pretty", choices=("pretty", "json", "csv"))

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=(*_SUITES, "all"),
    )
    p_verify.add_argument("--max-m", dest="max_m", type=int)
    p_verify.add_argument("--max-n", dest="max_n", type=int)
    p_verify.add_argument("--max-l", dest="max_l", type=int)
    p_verify.add_argument("--n", dest="n", type=int)

    p_shape = sub.add_parser("shape", help="report unimodality and log-concavity")
    p_shape.add_argument("--family", required=True, choices=FAMILIES)
    p_shape.add_argument("--max-m", dest="max_m", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    refusal = _size_refusal(args)
    if refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "compute": cmd_compute,
        "table": cmd_table,
        "verify": cmd_verify,
        "shape": cmd_shape,
    }
    return handlers[args.command](args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
