"""End-to-end acceptance gate: nine exact criteria, one line of output each.

Every comparison is exact (tolerance zero); the stated runtime budgets are
asserted with wall-clock measurements.  Run with ``pytest -s`` to see the
per-criterion PASS/FAIL lines as they are produced.
"""
import sys
import time
from collections import Counter

from qfaulhaber.coeffs import (
    det_route,
    invert_route_row,
    verify_dstr_vanishing,
    verify_inverse_pair,
)
from qfaulhaber.identities import (
    classical_check,
    verify_lemma1,
    verify_lemma2,
    verify_theorem1,
)
from qfaulhaber.laurent import LaurentPoly, shape_report
from qfaulhaber.lgv import (
    brute_route,
    enumerate_nonintersecting,
    family_config,
    family_weight,
    lgv_det_route,
)
from oracles import C, H_4_2_PANELS, TABLES


def report(criterion: int, label: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {label}",
          file=sys.stderr)
    assert ok, f"criterion {criterion} failed: {label}"


def test_criterion_1_table_reproduction():
    start = time.monotonic()
    ok = all(
        det_route(family, m, k) == expected
        for family, table in TABLES.items()
        for (m, k), expected in table.items()
    )
    # 32 tabled cells with k >= 1; 25 of them are distinct nontrivial values
    assert sum(len(t) for t in TABLES.values()) == 32
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(1, f"tabled entries match, {elapsed:.3f}s < 1s", ok)


def test_criterion_2_panel_reproduction():
    start = time.monotonic()
    starts, ends = family_config("G", 4, 2)
    fams = enumerate_nonintersecting(starts, ends)
    got = Counter(family_weight("G", f) for f in fams)
    sample_panels = [C(1, 1, 1, 1), C(2, 2, 0), C(4, 0)]
    total = sum((w * n for w, n in got.items()), LaurentPoly())
    ok = (
        len(fams) == 17
        and all(got[p] >= 1 for p in sample_panels)
        and total == C(10, 24, 24, 10)
    )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(2, f"17 panel weights sum to G(4,2), {elapsed:.3f}s < 1s", ok)


def test_criterion_3_h_panel_reproduction():
    starts, ends = family_config("H", 4, 2)
    fams = enumerate_nonintersecting(starts, ends)
    got = Counter(family_weight("H", f) for f in fams)
    total = sum((w * n for w, n in got.items()), LaurentPoly())
    ok = got == H_4_2_PANELS and total == C(10, 15, 30, 26, 30, 15, 10)
    ok = ok and total == det_route("H", 4, 2)
    report(3, "17 cell weights match and sum to H(4,2)", ok)


def test_criterion_4_route_agreement():
    start = time.monotonic()
    ok = True
    for family in "PQGH":
        for m in range(2, 7):
            for k in range(1, m):
                expected = det_route(family, m, k)
                ok = ok and brute_route(family, m, k) == expected
                ok = ok and lgv_det_route(family, m, k) == expected
        for m in range(2, 9):
            row = invert_route_row(family, m)
            ok = ok and all(row[k] == det_route(family, m, k) for k in range(1, m))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    report(4, f"four routes agree, {elapsed:.1f}s < 120s", ok)


def test_criterion_5_inverse_pairs():
    ok = all(verify_inverse_pair(family, 6) for family in "PQGH")
    ok = ok and all(verify_dstr_vanishing(m) for m in range(2, 7))
    report(5, "inverse pairs at n=6 and boundary sums vanish", ok)


def test_criterion_6_summation_identities():
    ok = all(
        verify_theorem1(which, m, n)
        for which in ("p", "qmn", "t2mnq", "t2m1")
        for m in range(1, 6)
        for n in range(1, 7)
    )
    ok = ok and all(
        verify_lemma2(which, m, l)
        for which in ("diff1", "inverseq", "diff", "sumd")
        for m in range(1, 9)
        for l in range(1, 9)
    )
    ok = ok and all(
        verify_lemma1(a, b, l, 12)
        for (a, b) in ((1, 1), (1, 0), (0, 1))
        for l in range(1, 6)
    )
    report(6, "all summation and difference identities hold", ok)


def test_criterion_7_structural_invariants():
    ok = True
    for family in "PQGH":
        for m in range(1, 9):
            for k in range(0, m):
                p = det_route(family, m, k)
                ok = ok and p.is_palindromic()
                ok = ok and all(c >= 0 for c in p.coeffs)
        factor = 1 if family in "PQ" else 2
        for m in range(2, 9):
            ok = ok and det_route(family, m, m - 1) == factor * det_route(
                family, m, m - 2
            )
    report(7, "palindromic, nonnegative, boundary doubling", ok)


def test_criterion_8_classical_specialization():
    ok = classical_check(4, 20)
    report(8, "q=1 reproduces integer power sums for m<=4, n<=20", ok)


def test_criterion_9_shape_observations():
    reports = {
        (family, m, k): shape_report(det_route(family, m, k))
        for family in "PQGH"
        for m in range(1, 9)
        for k in range(0, m)
    }
    ok = all(r.log_concave for (f, _, _), r in reports.items() if f in "PG")
    ok = ok and not reports[("Q", 4, 1)].unimodal
    ok = ok and not reports[("H", 4, 2)].unimodal
    report(9, "P and G log-concave; Q(4,1), H(4,2) break unimodality", ok)
