"""Command-line interface: formats, exit codes and route consistency."""
import csv
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qfaulhaber import cli, coeffs, homog, identities, lgv
from qfaulhaber.coeffs import det_route, verify_dstr_vanishing, verify_inverse_pair
from qfaulhaber.laurent import LaurentPoly
from oracles import all_families


def run_cli(*argv):
    out = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


class TestCompute:
    def test_pretty_output(self):
        code, out = run_cli("compute", "--family", "G", "--m", "4", "--k", "2")
        assert code == 0
        assert out.strip() == "10 + 24q + 24q^2 + 10q^3"

    def test_json_output(self):
        code, out = run_cli(
            "compute", "--family", "G", "--m", "4", "--k", "2", "--format", "json"
        )
        assert code == 0
        assert out.strip() == (
            '{"family":"G","m":4,"k":2,"variable":"q","route":"det",'
            '"min_exp":0,"coefficients":["10","24","24","10"]}'
        )

    def test_json_roundtrip_byte_identical(self):
        _, out = run_cli(
            "compute", "--family", "H", "--m", "4", "--k", "2", "--format", "json"
        )
        parsed = json.loads(out)
        assert cli.dumps(parsed) == out.strip()

    def test_csv_output(self):
        code, out = run_cli(
            "compute", "--family", "P", "--m", "3", "--k", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == [
            "family,m,k,exp,coefficient",
            "P,3,1,0,2",
            "P,3,1,1,2",
        ]

    def test_csv_and_json_agree(self):
        _, jout = run_cli(
            "compute", "--family", "Q", "--m", "4", "--k", "2", "--format", "json"
        )
        _, cout = run_cli(
            "compute", "--family", "Q", "--m", "4", "--k", "2", "--format", "csv"
        )
        coeffs_json = json.loads(jout)["coefficients"]
        coeffs_csv = [line.split(",")[-1] for line in cout.splitlines()[1:]]
        assert coeffs_json == coeffs_csv

    @pytest.mark.parametrize("method", ["det", "invert", "lgv", "lgv-det"])
    def test_methods_byte_equal(self, method):
        _, base = run_cli(
            "compute", "--family", "G", "--m", "5", "--k", "3", "--format", "csv"
        )
        _, out = run_cli(
            "compute", "--family", "G", "--m", "5", "--k", "3",
            "--method", method, "--format", "csv",
        )
        assert out == base

    def test_route_field_follows_method(self):
        _, out = run_cli(
            "compute", "--family", "P", "--m", "3", "--k", "1",
            "--method", "lgv", "--format", "json",
        )
        assert json.loads(out)["route"] == "lgv-brute"

    def test_bad_index_exits_2(self):
        code, _ = run_cli("compute", "--family", "P", "--m", "2", "--k", "5")
        assert code == 2

    def test_bad_flag_exits_2(self):
        code, _ = run_cli("compute", "--family", "X", "--m", "2", "--k", "1")
        assert code == 2

    def test_lgv_refuses_runaway_enumeration(self, capsys):
        # The chain sum of P(16,8) would test 1,024,344 adjacent path pairs;
        # the count is read from binomials first and the request refused.
        # P(9,5) tests 17,444 and runs.
        start = time.perf_counter()
        code, out = run_cli(
            "compute", "--family", "P", "--m", "16", "--k", "8", "--method", "lgv"
        )
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.strip() == (
            "error: --method lgv would test 1024344 adjacent path pairs "
            "(limit 1000000); use --method lgv-det"
        )
        counts = [len(list(lgv.paths_between(a, b)))
                  for a, b in zip(*lgv.family_config("P", 9, 5))]
        assert cli._tested_pairs("P", 9, 5) == sum(
            a * b for a, b in zip(counts, counts[1:])) == 17444
        assert run_cli("compute", "--family", "P", "--m", "9", "--k", "5",
                       "--method", "lgv") == (0, det_route("P", 9, 5).to_string("q") + "\n")

    def test_lgv_count_checks_the_requested_index(self, capsys):
        # k = 0 lists no family; a bad (m, k) is named as given, not as the
        # (m - 1, k - 1) whose families the route would list
        assert run_cli("compute", "--family", "H", "--m", "3", "--k", "0",
                       "--method", "lgv") == (0, "1\n")
        assert run_cli("compute", "--family", "P", "--m", "2", "--k", "5",
                       "--method", "lgv") == (2, "")
        assert capsys.readouterr().err.strip() == (
            "error: k must satisfy 0 <= k < m (got m=2, k=5)")

    def test_lgv_det_refuses_runaway_path_listing(self, capsys):
        # Q(30,29) has 2,147,483,613 paths over its 841 start/end pairs; the
        # pair sums would list them for hours, so the count comes first.
        start = time.perf_counter()
        code, out = run_cli(
            "compute", "--family", "Q", "--m", "30", "--k", "29", "--method", "lgv-det"
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.strip() == (
            "error: --method lgv-det would list 2147483613 lattice paths "
            "(limit 1000000); use --method det"
        )

    @pytest.mark.usefixtures("cold_memos")
    def test_lgv_det_for_p_lists_no_path(self, monkeypatch):
        # P's pair sums are a column DP, so no size is refused and no path listed
        monkeypatch.setattr(lgv, "paths_between", None)
        code, out = run_cli(
            "compute", "--family", "P", "--m", "26", "--k", "16",
            "--method", "lgv-det", "--format", "json",
        )
        assert code == 0
        expected = [str(c) for c in det_route("P", 26, 16).coeffs]
        assert json.loads(out)["coefficients"] == expected

    @pytest.mark.parametrize("family", "QGH")
    @pytest.mark.usefixtures("cold_memos")
    def test_path_count_is_what_lgv_det_lists(self, family, monkeypatch):
        # exact for one call on a cold pair-sum memo; a repeated call lists
        # nothing
        listed = []
        paths_between = lgv.paths_between

        def counting_paths_between(a, b):
            for path in paths_between(a, b):
                listed.append(path)
                yield path

        monkeypatch.setattr(lgv, "paths_between", counting_paths_between)
        for m in range(2, 8):
            for k in range(1, m):
                lgv._pair_sum.cache_clear()
                listed.clear()
                lgv.lgv_det_route(family, m, k)
                assert cli._path_count(family, m, k) == len(listed), (family, m, k)
                lgv.lgv_det_route(family, m, k)
                assert cli._path_count(family, m, k) == len(listed), (family, m, k)

    @pytest.mark.parametrize("method", ["det", "invert", "lgv", "lgv-det"])
    def test_negative_m_at_k_zero_exits_2(self, method, capsys):
        code, out = run_cli(
            "compute", "--family", "P", "--m", "-3", "--k", "0", "--method", method
        )
        assert code == 2
        assert out == ""
        assert "error:" in capsys.readouterr().err

    def test_lgv_below_limit_runs(self):
        code, out = run_cli(
            "compute", "--family", "P", "--m", "6", "--k", "3", "--method", "lgv"
        )
        assert code == 0
        assert out.strip() == (
            "28 + 145q + 407q^2 + 760q^3 + 1020q^4 + 1020q^5 + 760q^6 + 407q^7"
            " + 145q^8 + 28q^9"
        )


class TestTable:
    def test_pretty_table(self):
        code, out = run_cli("table", "--family", "G", "--max-m", "3")
        assert code == 0
        assert out.splitlines() == [
            "G(1,0) = 1",
            "G(2,0) = 1",
            "G(2,1) = 2",
            "G(3,0) = 1",
            "G(3,1) = 3 + 3q",
            "G(3,2) = 6 + 6q",
        ]

    def test_json_table_lines_parse(self):
        code, out = run_cli(
            "table", "--family", "H", "--max-m", "3", "--format", "json"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["m"], r["k"]) for r in records] == [
            (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)
        ]

    def test_csv_table_has_one_header(self):
        # every row a CSV reader takes for data is a record's coefficient,
        # and the rows are those `compute` prints for each (m, k) in turn
        code, out = run_cli("table", "--family", "P", "--max-m", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["family"] for row in rows} == {"P"}
        assert all(row[field].lstrip("-").isdigit() for row in rows
                   for field in ("m", "k", "exp", "coefficient"))
        expected = []
        for m in range(1, 4):
            for k in range(m):
                _, single = run_cli("compute", "--family", "P", "--m", str(m), "--k", str(k),
                                    "--format", "csv")
                expected += csv.DictReader(io.StringIO(single))
        assert rows == expected


# Every row of the size table and, for each flag a suite reads, `verify --suite
# all`, which selects every suite: (the argv that selects it, the flag, the
# rows that read the flag there).
VERIFY_ROWS = [row for row in cli._SIZES if row.startswith("verify ")]
SIZE_CASES = [
    pytest.param(row, flag, [row], id=f"{row.split()[-1]}-{flag}")
    for row, sizes in cli._SIZES.items() for flag in sizes
] + [
    pytest.param("verify --suite all", flag,
                 [row for row in VERIFY_ROWS if flag in cli._SIZES[row]], id=f"all-{flag}")
    for flag in dict.fromkeys(flag for row in VERIFY_ROWS for flag in cli._SIZES[row])
]


class TestVerify:
    def test_lemma1_keys_share_one_proof(self, monkeypatch):
        # the default suite's 45 keys, three q0 per (a, b, l), read one
        # proof per (a, b, l): 15 calls, none repeated
        proof = identities.verify_lemma1
        calls = []
        monkeypatch.setattr(identities, "verify_lemma1",
                            lambda *args: calls.append(args) or proof(*args))
        code, out = run_cli("verify", "--suite", "lemma1")
        assert code == 0
        assert len(out.splitlines()) == 45
        assert all(line.startswith("PASS lemma1 ") for line in out.splitlines())
        assert sorted(calls) == sorted({(a, b, l, 12) for a, b in ((1, 1), (1, 0), (0, 1))
                                        for l in range(1, 6)})

    def test_suite_passes_and_is_sorted(self):
        code, out = run_cli("verify", "--suite", "lgv", "--max-m", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert all(line.startswith("PASS ") for line in lines)

    @pytest.mark.parametrize("max_m", ["13", "50"])
    def test_lgv_refuses_runaway_enumeration(self, max_m, monkeypatch, capsys):
        # The cases up to m = 13 take about 15 s; the cap refuses the run
        # at once, before any case runs.
        monkeypatch.setattr(cli, "_run_cases", None)
        code, out = run_cli("verify", "--suite", "lgv", "--max-m", max_m)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.strip() == (
            f"error: verify --suite lgv takes --max-m 2..12 (got {max_m})")

    def test_lgv_at_max_m_6_runs_every_case(self):
        # the default size: 60 cases
        code, out = run_cli("verify", "--suite", "lgv", "--max-m", "6")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 60 and all(line.startswith("PASS ") for line in lines)

    def test_lgv_without_max_m_counts_nothing(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("the default lgv suite was counted")

        monkeypatch.setattr(cli, "_tested_pairs", no_count)
        code, out = run_cli("verify", "--suite", "lgv")
        assert code == 0
        assert len(out.splitlines()) == 60

    def test_classical_suite(self):
        code, out = run_cli("verify", "--suite", "classical", "--max-n", "10")
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("argv", [
        ("--suite", "theorem1", "--max-m", "12"),
        ("--suite", "classical", "--max-m", "41"),
        ("--suite", "all", "--max-m", "12"),
        ("--suite", "lgv", "--max-m", "0"),
        ("--suite", "lgv", "--max-m", "-1"),
        ("--suite", "lemma1", "--max-l", "0"),
        ("--suite", "inverse", "--n", "0"),
    ])
    def test_out_of_range_size_exits_2(self, argv, capsys):
        code, out = run_cli("verify", *argv)
        assert code == 2
        assert out == ""
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--suite", "classical", "--max-l", "3"),
        ("--suite", "classical", "--n", "99"),
        ("--suite", "lemma1", "--max-m", "2"),
        ("--suite", "lemma2", "--max-n", "2"),
        ("--suite", "inverse", "--max-m", "2"),
        ("--suite", "lgv", "--max-l", "2"),
        ("--suite", "symmetry", "--n", "2"),
        ("--suite", "theorem1", "--max-m", "1", "--max-l", "2"),
    ])
    def test_unread_size_flag_exits_2(self, argv, capsys):
        code, out = run_cli("verify", *argv)
        assert code == 2
        assert out == ""
        assert "is not read by" in capsys.readouterr().err

    def test_all_reads_every_size_flag(self):
        code, out = run_cli("verify", "--suite", "all", "--max-m", "2",
                            "--max-n", "1", "--max-l", "1", "--n", "1")
        assert code == 0
        assert all(line.startswith("PASS ") for line in out.splitlines())

    @pytest.mark.parametrize("chosen, flag, readers", SIZE_CASES)
    def test_size_table_refuses_before_any_case(self, chosen, flag, readers, monkeypatch,
                                                capsys):
        # the cap runs; cap + 1, a far value 4 * cap, and least - 1 where
        # least > 1, exit 2 in under 2 s before any case or route runs, naming
        # the first row, in table order, whose range the value leaves.  Under
        # `all` a flag's least is the largest and its cap the smallest over the
        # suites that read it (the lgv suite starts at m = 2: at --max-m 1 it
        # would pass vacuously; the inverse-pair cases cost about n^5.5: --n 40
        # would run for hours; so would `compute --method det` at --m 100).
        ranges = {row: cli._SIZES[row][flag] for row in readers}
        assert all(default is None or least <= default <= cap
                   for default, least, cap in ranges.values())
        least = max(least for _, least, _ in ranges.values())
        cap = min(cap for _, _, cap in ranges.values())
        assert 1 <= least <= cap
        ran = []
        monkeypatch.setattr(cli, "_run_cases", lambda cases, out: ran.append(cases) or True)
        for route in ("det_route", "invert_route"):
            monkeypatch.setattr(coeffs, route,
                                lambda family, m, k: ran.append((m, k)) or LaurentPoly([m, k]))
        command = chosen.split()
        argv = command + {"verify": [], "compute": ["--family", "Q", "--k", "1"]}.get(
            command[0], ["--family", "Q"])
        option = "--" + flag.replace("_", "-")
        assert run_cli(*argv, option, str(cap))[0] == 0
        assert ran and all(ran)
        ran.clear()
        for value in (cap + 1, 4 * cap, *([least - 1] if least > 1 else [])):
            start = time.perf_counter()
            assert run_cli(*argv, option, str(value)) == (2, "")
            assert time.perf_counter() - start < 2
            row, (_, lo, hi) = next((row, size) for row, size in ranges.items()
                                    if not size[1] <= value <= size[2])
            assert capsys.readouterr().err.strip() == (
                f"error: {row} takes {option} {lo}..{hi} (got {value})")
        assert ran == []

    def test_docs_state_the_size_table(self):
        # README's size table and its `all` --max-m cap, and the caps in the
        # cli module's docstring, say what `_SIZES` and `_TABLE_DEFAULT` hold
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table, reader = {}, None
        for row in re.finditer(
                r"^\| (?:`([\w -]+)`)? *\| `--([\w-]+)` \| ([^|]*?) \| (\d+) \| (\d+) \|",
                readme, re.M):
            reader = row[1] or reader
            default = int(row[3]) if row[3].isdigit() else None
            table.setdefault(reader, {})[row[2].replace("-", "_")] = (
                default, int(row[4]), int(row[5]))
        assert table == cli._SIZES
        by_default = {}
        for family, default in cli._TABLE_DEFAULT.items():
            by_default.setdefault(default, []).append(family)
        assert re.findall(r"^\| `table` \| `--max-m` \| ([^|]*?) \|", readme, re.M) == [
            " or ".join(f"{d} ({', '.join(fs)})" for d, fs in by_default.items())]
        all_cap = min(sizes["max_m"][2] for row, sizes in cli._SIZES.items()
                      if row in VERIFY_ROWS and "max_m" in sizes)
        assert re.findall(r"`all`[^.]*`--max-m` cap is (\d+)", readme) == [str(all_cap)]
        documented = {line[1]: {flag.replace("-", "_"): int(cap)
                                for flag, cap in re.findall(r"--([\w-]+) (\d+)", line[2])}
                      for line in re.finditer(r"^    (\w+(?: --\w+ \w+)?) +((?:--[\w-]+ \d+,? )+)",
                                              cli.__doc__, re.M)}
        assert documented == {row: {flag: cap for flag, (_, _, cap) in sizes.items()}
                              for row, sizes in cli._SIZES.items()}

    def test_size_at_cap_runs(self):
        code, out = run_cli("verify", "--suite", "theorem1", "--max-m", "11",
                            "--max-n", "1")
        assert code == 0
        assert "PASS theorem1 which=p m=11 n=1" in out.splitlines()

    def test_failure_exits_1(self, monkeypatch):
        monkeypatch.setitem(cli._SUITES, "classical", lambda m, n: [("forced", lambda: False)])
        code, out = run_cli("verify", "--suite", "classical")
        assert code == 1
        assert out.splitlines() == ["FAIL forced"]

    def test_case_that_raises_fails_and_the_rest_run(self, monkeypatch, capsys):
        from qfaulhaber import identities

        checker = identities.verify_theorem1

        def raises_at_qmn_1_1(which, m, n):
            if (which, m, n) == ("qmn", 1, 1):
                raise AssertionError("cleared left side is not polynomial")
            return checker(which, m, n)

        monkeypatch.setattr(identities, "verify_theorem1", raises_at_qmn_1_1)
        code, out = run_cli("verify", "--suite", "theorem1", "--max-m", "1",
                            "--max-n", "1")
        assert code == 1
        assert out.splitlines() == [
            "PASS theorem1 which=p m=0 n=1",
            "PASS theorem1 which=p m=1 n=1",
            "FAIL theorem1 which=qmn m=1 n=1: AssertionError: "
            "cleared left side is not polynomial",
            "PASS theorem1 which=t2m1 m=1 n=1",
            "PASS theorem1 which=t2mnq m=1 n=1",
        ]
        assert "raises_at_qmn_1_1" in capsys.readouterr().err  # the traceback


# Each suite at a size that runs in well under a second.
SMALL_SUITES = {
    "theorem1": ("--max-m", "2", "--max-n", "2"),
    "lemma1": ("--max-l", "2"),
    "lemma2": ("--max-m", "3", "--max-l", "3"),
    "inverse": ("--n", "3"),
    "lgv": ("--max-m", "4"),
    "symmetry": ("--max-m", "4"),
    "classical": ("--max-m", "2", "--max-n", "4"),
}


def failing_suites() -> set[str]:
    """The suites that exit 1 at their small size; every other one must pass."""
    codes = {suite: run_cli("verify", "--suite", suite, *argv)[0]
             for suite, argv in SMALL_SUITES.items()}
    assert set(codes.values()) <= {0, 1}, codes
    return {suite for suite, code in codes.items() if code == 1}


@pytest.mark.usefixtures("cold_memos")
class TestFaultMatrix:
    """Fault-matrix rows: one deliberate fault in one layer, and the suites
    that fail and pass under it.  A suite that passes names what it does not
    read; a fault that no suite could fail would name an unchecked layer."""

    def test_suites_pass_without_a_fault(self):
        assert failing_suites() == set()

    def test_forward_entry_fault(self, monkeypatch):
        # +1 on the off-diagonal entry (lo + 2, lo + 1), lo the first index
        entry = coeffs.forward_entry

        def faulty(family, i, j):
            lo = 0 if family == "P" else 1
            value = entry(family, i, j)
            return value + 1 if (i, j) == (lo + 2, lo + 1) else value

        monkeypatch.setattr(coeffs, "forward_entry", faulty)
        # Blind spot: the claimed inverse is built by Cramer's rule from the
        # same faulty minors (D(k, k - m) = det of forward entries), so the
        # pair A B = I still holds and the inverse-pair cases cannot fail.
        for family in "PQGH":
            for n in range(1, 7):
                assert verify_inverse_pair(family, n), (family, n)
        # the lgv-det route reads no forward entry
        for family, first in (("P", (2, 1)), ("Q", (3, 1)), ("G", (3, 1)), ("H", (3, 1))):
            differ = [(m, k) for m in range(2, 5) for k in range(1, m)
                      if lgv.lgv_det_route(family, m, k) != det_route(family, m, k)]
            assert differ[0] == first, family
        # the boundary sum weighs d_poly's row, which carries no fault,
        # against the claimed inverse's column, whose minors do
        assert not verify_dstr_vanishing(3, 2)
        assert run_cli("verify", "--suite", "lgv", "--max-m", "4")[0] == 1
        # lemma1 and lemma2 read the generators and the series alone
        assert failing_suites() == {"theorem1", "inverse", "lgv", "symmetry", "classical"}

    @pytest.mark.parametrize("family", "PQGH")
    def test_brute_weight_fault(self, family, monkeypatch):
        # every link of brute_route's chain for one scheme weighs q times too
        # much (its value at q = 2^B shifted by B): the per-path value for P
        # and Q, the pair factor, which G and H share, for G and H; only the
        # lgv suite reads them
        if family in "PQ":
            path_value = lgv._path_value

            def faulty(name, path, bits):
                value = path_value(name, path, bits)
                return value << bits if name == family else value

            monkeypatch.setattr(lgv, "_path_value", faulty)
        else:
            pair_factor = lgv._pair_factor
            monkeypatch.setattr(lgv, "_pair_factor", lambda *args: pair_factor(*args) << args[-1])
        assert failing_suites() == {"lgv"}

    def test_adjacent_pair_mask_fault(self, monkeypatch):
        # brute_route's adjacent pairs skip their mask test, so every path i
        # fits every path i - 1; only the lgv suite reads brute_route
        monkeypatch.setattr(lgv, "enumerate_nonintersecting", all_families)
        assert failing_suites() == {"lgv"}

    def test_h_spec_fault(self, monkeypatch):
        # +1 on the constant coefficient of every nonzero h_spec value, in
        # every namespace that binds it: the c/g/d generators (homog), P's
        # forward entries (coeffs) and lemma1 and lemma2 (identities).
        h_spec = homog.h_spec

        def faulty(n, r, s):
            value = h_spec(n, r, s)
            return value if value.is_zero else value + 1

        for module in (homog, coeffs, identities):
            monkeypatch.setattr(module, "h_spec", faulty)
        # No suite stays PASS: lemma1 and lemma2 read h_spec (or c/g/d)
        # directly, and theorem1, inverse, lgv, symmetry and classical read
        # det_route or the forward entries, which every family builds from it.
        assert failing_suites() == set(SMALL_SUITES)

    def test_minus_point_fault(self, monkeypatch):
        # +1 on the value at q = -X of every nonzero entry that the minors
        # recurrence reads, the value at +X left alone
        pack_pm = coeffs.pack_pm

        def faulty(e, shift, bits):
            plus, minus = pack_pm(e, shift, bits)
            return plus, minus + 1 if e else minus

        monkeypatch.setattr(coeffs, "pack_pm", faulty)
        # every suite that reads det_route fails; lemma1 and lemma2 read the
        # generators and the series alone
        assert failing_suites() == {"theorem1", "inverse", "lgv", "symmetry", "classical"}

    def test_long_operand_multiply_fault(self, monkeypatch):
        # +1 on every product of two polynomials of 8 or more terms.  The det
        # and lgv-det routes read their minors on integers, theorem1 and
        # lemma2 prove their identities at one point on integers, and at
        # these sizes the brute weights, lemma1 and classical multiply no
        # operands that long, so only the inverse pairs fail.  The one-point
        # proofs' own fault row is `TestOnePointProof` in test_identities.py.
        mul = LaurentPoly.__mul__

        def faulty(self, other):
            product = mul(self, other)
            long = isinstance(other, LaurentPoly) and min(len(self.coeffs),
                                                          len(other.coeffs)) >= 8
            return product + 1 if long else product

        monkeypatch.setattr(LaurentPoly, "__mul__", faulty)
        assert failing_suites() == {"inverse"}


class TestShape:
    def test_shape_lines(self):
        code, out = run_cli("shape", "--family", "Q", "--max-m", "4")
        assert code == 0
        lines = out.splitlines()
        assert "Q(4,1) unimodal=False log_concave=False" in lines
        assert "Q(2,1) unimodal=True log_concave=True" in lines


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qfaulhaber.cli",
             "compute", "--family", "P", "--m", "2", "--k", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"

    def test_no_arguments_exits_2(self):
        code, _ = run_cli()
        assert code == 2
