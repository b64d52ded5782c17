"""Machine verification of the summation identities and specializations."""
import contextlib
import io
from fractions import Fraction

import pytest

from qfaulhaber import cli, coeffs, identities, kron
from qfaulhaber.identities import (
    classical_check,
    s_sum,
    t_sum,
    verify_lemma1,
    verify_lemma2,
    verify_theorem1,
)
from qfaulhaber.laurent import LaurentPoly, ONE, Q, q_int
from oracles import (
    inverse_pair_sides,
    laurent_s_sum,
    laurent_t_sum,
    lemma1_at_point,
    lemma1_sides,
    lemma2_sides,
    theorem1_sides,
    x_poly,
)

THEOREM1 = ("p", "qmn", "t2mnq", "t2m1")
LEMMA2 = ("diff1", "inverseq", "diff", "sumd")


def norm(p: LaurentPoly) -> int:
    return sum(map(abs, p.coeffs))


class TestPowerSumSeries:
    def test_s_sum_small_values(self):
        # m=1, n=2: 1 + t^2 + t^4
        assert s_sum(1, 2) == LaurentPoly([1, 0, 1, 0, 1])
        assert s_sum(1, 1) == ONE
        assert s_sum(2, 1) == ONE

    def test_s_sum_specializes_to_power_sums(self):
        one = Fraction(1)
        for m in range(1, 6):
            for n in range(1, 8):
                assert s_sum(m, n)(one) == sum(j ** m for j in range(1, n + 1))

    def test_t_sum_small_values(self):
        # m=1, n=2: [2] in t^2 shifted: -1*t^1*[1] + [2], i.e. 1 + t^2 - t
        assert t_sum(1, 2) == LaurentPoly([1, -1, 1])
        assert t_sum(1, 1) == ONE

    def test_t_sum_specializes_to_alternating_sums(self):
        one = Fraction(1)
        for m in range(1, 6):
            for n in range(1, 8):
                expected = sum(
                    (-1) ** (n - j) * j ** m for j in range(1, n + 1)
                )
                assert t_sum(m, n)(one) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            s_sum(0, 3)
        with pytest.raises(ValueError):
            t_sum(2, 0)

    def test_x_poly_values(self):
        assert x_poly(3, 0) == ONE
        expected = q_int(2, 2) * q_int(3, 2) * LaurentPoly.term(1, -4)
        assert x_poly(2, 1) == expected
        assert x_poly(2, 3) == expected ** 3
        with pytest.raises(ValueError):
            x_poly(2, -1)

    @pytest.mark.parametrize("series, oracle", [(s_sum, laurent_s_sum),
                                                (t_sum, laurent_t_sum)])
    def test_one_read_back_within_its_digits(self, series, oracle, monkeypatch):
        # one int and one read-back per call, and every coefficient of the
        # oracle's polynomial below 2^(B-1) at the B the call chose
        read = identities.read_back
        seen = []
        monkeypatch.setattr(identities, "read_back",
                            lambda value, shift, bits: seen.append(bits)
                            or read(value, shift, bits))
        for m in range(1, 14):
            for n in range(1, 9):
                seen.clear()
                expected = oracle(m, n)
                assert series(m, n) == expected, (m, n)
                assert len(seen) == 1
                assert max(map(abs, expected.coeffs)) < 2 ** (seen[0] - 1)

    @pytest.mark.parametrize("series, oracle", [(s_sum, laurent_s_sum),
                                                (t_sum, laurent_t_sum)])
    def test_narrow_digits_differ_exactly_where_they_wrap(self, series, oracle,
                                                          monkeypatch):
        # 8-bit digits read back c in [-2^7, 2^7) and nothing else: the
        # series differs from the oracle exactly where a coefficient leaves
        # that range, so the sizing is load-bearing
        monkeypatch.setattr(identities, "digit_bits", lambda bound: 8)
        cases = [(m, n) for m in range(1, 14) for n in range(1, 9)]
        wraps = {(m, n) for m, n in cases
                 if any(not -2 ** 7 <= c < 2 ** 7 for c in oracle(m, n).coeffs)}
        assert wraps and len(wraps) < len(cases)
        assert {(m, n) for m, n in cases if series(m, n) != oracle(m, n)} == wraps


class TestSummationIdentities:
    @pytest.mark.parametrize("which", ["p", "qmn", "t2mnq", "t2m1"])
    def test_identities_hold(self, which):
        # m up to 8 runs the factor lists past the CLI's default of 5
        for m in range(1, 9):
            for n in range(1, 7):
                assert verify_theorem1(which, m, n), (which, m, n)

    def test_side_with_negative_exponent_raises(self, monkeypatch):
        monkeypatch.setattr(identities, "s_sum", lambda m, n: LaurentPoly.term(1, -1))
        with pytest.raises(AssertionError, match="cleared left side is not polynomial"):
            verify_theorem1("p", 1, 1)

    def test_odd_identity_at_m_zero(self):
        for n in range(1, 7):
            assert verify_theorem1("p", 0, n)

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem1("nope", 2, 2)
        with pytest.raises(ValueError):
            verify_theorem1("qmn", 0, 2)

    def test_detects_perturbation(self, monkeypatch):
        # sanity: the checker is not vacuously true
        bad = s_sum(3, 2) + ONE
        with monkeypatch.context() as patch:
            patch.setattr(identities, "s_sum", lambda m, n: bad)
            assert not identities.verify_theorem1("p", 1, 2)
        # a +1 fault in the family each right side reads fails every case
        for which, source in (("p", "_family_det"), ("qmn", "_family_det"),
                              ("t2mnq", "det_route"), ("t2m1", "det_route")):
            family = getattr(identities, source)
            with monkeypatch.context() as patch:
                patch.setattr(identities, source,
                              lambda *index, family=family: family(*index) + ONE)
                for m in range(1, 4):
                    for n in range(1, 4):
                        assert not verify_theorem1(which, m, n), (which, m, n)


class TestDifferenceIdentities:
    @pytest.mark.parametrize("which", ["diff1", "inverseq", "diff", "sumd"])
    def test_identities_hold(self, which):
        for m in range(1, 9):
            for l in range(1, 9):
                assert verify_lemma2(which, m, l), (which, m, l)

    @pytest.mark.usefixtures("cold_memos")  # generator rows are memoised per (which, m)
    def test_detects_perturbation(self, monkeypatch):
        # +1 on every nonzero generator value fails every case; a zero value
        # stays zero, so no j = 0 term of a y^(2j - 1) series appears
        for which, source in (("diff1", "h_spec"), ("inverseq", "c_poly"),
                              ("diff", "g_poly"), ("sumd", "d_poly")):
            gen = getattr(identities, source)

            def faulty(*args, gen=gen):
                value = gen(*args)
                return value if value.is_zero else value + ONE

            with monkeypatch.context() as patch:
                patch.setattr(identities, source, faulty)
                for m in range(1, 4):
                    for l in range(1, 4):
                        assert not verify_lemma2(which, m, l), (which, m, l)

    @pytest.mark.usefixtures("cold_memos")
    @pytest.mark.parametrize("which, source", [("inverseq", "c_poly"),
                                               ("sumd", "d_poly")])
    def test_term_needing_inverse_y_raises(self, monkeypatch, which, source):
        # c_{m,0} = d_{m,0} = 0 for m >= 1; a nonzero one would need y^(-1)
        gen = getattr(identities, source)
        monkeypatch.setattr(identities, source, lambda m, j: gen(m, j) if j else ONE)
        with pytest.raises(AssertionError, match="y\\^\\(-1\\)"):
            verify_lemma2(which, 2, 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_lemma2("diff", 0, 1)
        with pytest.raises(ValueError):
            verify_lemma2("nope", 1, 1)


def theorem1_cases(max_m, max_n):
    """(which, m, n) of `verify --suite theorem1` at these sizes."""
    return [("p", 0, n) for n in range(1, max_n + 1)] + [
        (which, m, n) for which in THEOREM1
        for m in range(1, max_m + 1) for n in range(1, max_n + 1)]


def lemma2_cases(max_m, max_l):
    return [(which, m, l) for which in LEMMA2
            for m in range(1, max_m + 1) for l in range(1, max_l + 1)]


def lemma1_cases(max_l):
    """(a, b, l, order) of `verify --suite lemma1` at this size."""
    return [(a, b, l, 12) for a, b in ((1, 1), (1, 0), (0, 1)) for l in range(1, max_l + 1)]


def one_proof(sides):
    """An oracle of one identity as the list of its single (lhs, rhs)."""
    return lambda *case: [sides(*case)]


def agrees_with_oracle(check, sides, cases):
    """The one-point check's verdict equals the Laurent oracle's on every case."""
    for case in cases:
        lhs, rhs = sides(*case)
        if check(*case) != (lhs == rhs):
            return False
    return True


def plus_one(source):
    """`source` from the identities namespace with +1 on every nonzero value."""
    leaf = getattr(identities, source)

    def faulty(*args):
        value = leaf(*args)
        return value if value.is_zero else value + ONE
    return faulty


@pytest.mark.usefixtures("cold_memos")
class TestOnePointProof:
    """The one-point proofs of Theorem 1 and Lemma 2 against the Laurent
    oracle of `tests/oracles.py`, which reads the same leaves."""

    def test_theorem1_matches_the_oracle(self):
        assert agrees_with_oracle(verify_theorem1, theorem1_sides, theorem1_cases(8, 6))

    def test_lemma2_matches_the_oracle(self):
        assert agrees_with_oracle(verify_lemma2, lemma2_sides, lemma2_cases(8, 8))

    @pytest.mark.parametrize("which, source", [
        ("p", "s_sum"), ("p", "_family_det"), ("qmn", "_family_det"),
        ("t2mnq", "det_route"), ("t2m1", "det_route")])
    def test_theorem1_matches_the_oracle_under_a_fault(self, which, source, monkeypatch):
        monkeypatch.setattr(identities, source, plus_one(source))
        cases = [(which, m, n) for m in range(1, 4) for n in range(1, 4)]
        assert not any(verify_theorem1(*case) for case in cases)
        assert agrees_with_oracle(verify_theorem1, theorem1_sides, cases)

    @pytest.mark.parametrize("which, source", [
        ("diff1", "h_spec"), ("inverseq", "c_poly"), ("diff", "g_poly"), ("sumd", "d_poly")])
    def test_lemma2_matches_the_oracle_under_a_fault(self, which, source, monkeypatch):
        monkeypatch.setattr(identities, source, plus_one(source))
        cases = [(which, m, l) for m in range(1, 4) for l in range(1, 4)]
        assert not any(verify_lemma2(*case) for case in cases)
        assert agrees_with_oracle(verify_lemma2, lemma2_sides, cases)

    @pytest.mark.parametrize("check, proofs, cases", [
        (verify_theorem1, one_proof(theorem1_sides), theorem1_cases(5, 6)),
        (verify_lemma2, one_proof(lemma2_sides), lemma2_cases(8, 8)),
        (verify_lemma1, lemma1_sides, lemma1_cases(5)),
        (coeffs.verify_inverse_pair, inverse_pair_sides, [(f, 6) for f in "PQGH"])],
        ids=["theorem1", "lemma2", "lemma1", "inverse_pair"])
    def test_norm_pass_bounds_both_sides(self, check, proofs, cases, monkeypatch):
        # on every default case of the suite, proved at one point (lemma1's
        # series coefficients, and the inverse pair's entries, all at the
        # same one): the norm pass's N bounds
        # ||lhs||_1 + ||rhs||_1 of every identity of the oracle (so 2N does,
        # and N bounds ||lhs - rhs||_1), and the point X = 2^B exceeds 2N;
        # `prove` sizes its one point by kron's own `digit_bits`
        digit_bits = kron.digit_bits
        seen = []
        monkeypatch.setattr(kron, "digit_bits",
                            lambda n: seen.append((n, digit_bits(n))) or seen[-1][1])
        for case in cases:
            seen.clear()
            assert check(*case)
            (bound, bits), = seen
            assert 2 ** bits > 2 * bound, case
            for lhs, rhs in proofs(*case):
                assert bound >= norm(lhs) + norm(rhs), case

    @pytest.mark.parametrize("check, source, cases", [
        (verify_theorem1, "_family_det",
         [("qmn", m, n) for m in range(1, 4) for n in range(1, 4)]),
        (verify_lemma2, "c_poly", [("inverseq", m, l) for m in range(1, 4) for l in range(1, 4)]),
        (verify_lemma1, "h_spec", lemma1_cases(3))],
        ids=["verify_theorem1-qmn-_family_det", "verify_lemma2-inverseq-c_poly",
             "verify_lemma1-h_spec"])
    def test_too_small_a_point_proves_nothing(self, check, source, cases, monkeypatch):
        # (t - 2) t^j added to every nonzero value of a leaf read unstretched
        # (Q for qmn and c in t, h in q for lemma1) vanishes at X = 2, so
        # pinned there the check passes the fault; at the proven X it fails
        # on every case.  Zero values stay zero (a j = 0 c-term needs y^(-1)).
        leaf = getattr(identities, source)
        fault = (Q - 2) * Q ** 2
        monkeypatch.setattr(identities, source,
                            lambda *args: value + fault if (value := leaf(*args)) else value)
        assert not any(check(*case) for case in cases)
        # only the proof's value pass is pinned; s_sum reads back as before
        value_pass = kron._ValuePass
        monkeypatch.setattr(kron, "_ValuePass", lambda bits: value_pass(1))
        assert all(check(*case) for case in cases)


class TestSeriesIdentity:
    @pytest.mark.parametrize("ab", [(1, 1), (1, 0), (0, 1)])
    def test_partial_fraction_form(self, ab):
        for l in range(1, 6):
            assert verify_lemma1(*ab, l, 12)

    def test_matches_the_point_oracle(self):
        # the proof for every q against the rational check at each point the
        # suite names
        for a, b, l, order in lemma1_cases(12):
            proved = verify_lemma1(a, b, l, order)
            for q0 in (Fraction(2), Fraction(1, 2), Fraction(3)):
                assert proved == lemma1_at_point(a, b, q0, l, order), (a, b, q0, l)

    def test_fault_vanishing_at_the_points(self, monkeypatch):
        # q^2 (q - 2)(2q - 1)(q - 3) added to h(2, 2, 2), which coefficient 4
        # of the (1, 1) series reads, vanishes at q0 = 2, 1/2 and 3: the
        # three-point check passes it, the proof fails every (1, 1) case
        h_spec = identities.h_spec
        fault = Q ** 2 * (Q - 2) * (2 * Q - 1) * (Q - 3)
        monkeypatch.setattr(identities, "h_spec", lambda n, r, s: (
            h_spec(n, r, s) + fault if (n, r, s) == (2, 2, 2) else h_spec(n, r, s)))
        for l in range(1, 6):
            assert all(lemma1_at_point(1, 1, q0, l, 12)
                       for q0 in (Fraction(2), Fraction(1, 2), Fraction(3)))
            assert not verify_lemma1(1, 1, l, 12), l
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["verify", "--suite", "lemma1"]) == 1
        assert sorted(line.split(" l=")[0] for line in out.getvalue().splitlines()
                      if line.startswith("FAIL")) == sorted(
            f"FAIL lemma1 a=1 b=1 q0={q0}" for q0 in ("2", "1/2", "3") for _ in range(5))

    def test_rejects_unsupported_case(self):
        with pytest.raises(ValueError):
            verify_lemma1(2, 2, 1, 4)

    def test_rejects_l_zero(self):
        with pytest.raises(ValueError):
            verify_lemma1(1, 1, 0, 4)


class TestClassicalSpecialization:
    def test_classical_check(self):
        assert classical_check(4, 20)
        assert classical_check(10, 200)  # past the CLI cap, on ints

    @pytest.mark.parametrize("family", "PG")
    def test_classical_check_reads_each_family(self, family, monkeypatch):
        # one more unit in the family's (3, 1) polynomial fails m = 3 only
        det_route = identities.det_route
        monkeypatch.setattr(identities, "det_route", lambda f, m, k: (
            det_route(f, m, k) + int(f == family and (m, k) == (3, 1))))
        assert classical_check(2, 20)
        assert not classical_check(3, 20)

    def test_direct_faulhaber_examples(self):
        # independent pin: sum of cubes is the square of the triangular number
        n = 7
        assert sum(j ** 3 for j in range(1, n + 1)) == (n * (n + 1) // 2) ** 2
