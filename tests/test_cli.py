"""Command-line interface: formats, exit codes and route consistency."""
import io
import json
import subprocess
import sys
import time

import pytest

from qfaulhaber import cli, lgv
from qfaulhaber.coeffs import det_route
from qfaulhaber.laurent import LaurentPoly


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
        # P(8,5) has 12,468,960 disjoint path families; brute force would run
        # for minutes, so the count is taken first and the request refused.
        start = time.perf_counter()
        code, out = run_cli(
            "compute", "--family", "P", "--m", "8", "--k", "5", "--method", "lgv"
        )
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.strip() == (
            "error: --method lgv would enumerate 12468960 path families "
            "(limit 1000000); use --method lgv-det"
        )

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
    def test_path_count_is_what_lgv_det_lists(self, family, monkeypatch):
        listed = []
        paths_between = lgv.paths_between

        def counting_paths_between(a, b):
            for path in paths_between(a, b):
                listed.append(path)
                yield path

        monkeypatch.setattr(lgv, "paths_between", counting_paths_between)
        for m in range(2, 8):
            for k in range(1, m):
                listed.clear()
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


class TestVerify:
    def test_suite_passes_and_is_sorted(self):
        code, out = run_cli("verify", "--suite", "lgv", "--max-m", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert all(line.startswith("PASS ") for line in lines)

    @pytest.mark.parametrize("max_m", ["8", "50"])
    def test_lgv_refuses_runaway_enumeration(self, max_m, capsys):
        # The cases up to m = 7 already hold 3,553,512 families in all; the
        # counts are taken first, m by m, and the run refused at m = 7.
        start = time.perf_counter()
        code, out = run_cli("verify", "--suite", "lgv", "--max-m", max_m)
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.strip() == (
            f"error: --max-m {max_m} would make the lgv suite enumerate at least "
            "3553512 path families in all (limit 1000000)"
        )

    def test_lgv_budget_is_the_whole_run(self, capsys):
        # No case of m = 7 reaches the limit (the largest has 705,600
        # families), but together the run's cases hold 3,553,512.
        code, out = run_cli("verify", "--suite", "lgv", "--max-m", "7")
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.strip() == (
            "error: --max-m 7 would make the lgv suite enumerate 3553512 "
            "path families in all (limit 1000000)"
        )
        assert max(cli._family_count(f, 7, k) for f in "PQGH" for k in range(1, 7)) \
            < cli._LGV_FAMILY_LIMIT

    def test_lgv_at_max_m_6_runs_every_case(self):
        # 90,864 families in all, under the limit
        code, out = run_cli("verify", "--suite", "lgv", "--max-m", "6")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 60 and all(line.startswith("PASS ") for line in lines)

    def test_lgv_without_max_m_counts_nothing(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("the default lgv suite was counted")

        monkeypatch.setattr(cli, "_family_count", no_count)
        code, out = run_cli("verify", "--suite", "lgv")
        assert code == 0
        assert len(out.splitlines()) == 60

    def test_classical_suite(self):
        code, out = run_cli("verify", "--suite", "classical", "--max-n", "10")
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("argv", [
        ("--suite", "theorem1", "--max-m", "9"),
        ("--suite", "classical", "--max-m", "5"),
        ("--suite", "all", "--max-m", "5"),
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

    def test_size_at_cap_runs(self):
        code, out = run_cli("verify", "--suite", "theorem1", "--max-m", "5",
                            "--max-n", "1")
        assert code == 0
        assert "PASS theorem1 which=p m=5 n=1" in out.splitlines()

    def test_failure_exits_1(self, monkeypatch):
        forced = cli._SUITES["classical"]._replace(
            build=lambda m, n: [("forced", lambda: False)]
        )
        monkeypatch.setitem(cli._SUITES, "classical", forced)
        code, out = run_cli("verify", "--suite", "classical")
        assert code == 1
        assert out.splitlines() == ["FAIL forced"]


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
