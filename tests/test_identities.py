"""Machine verification of the summation identities and specializations."""
from fractions import Fraction

import pytest

from qfaulhaber import identities
from qfaulhaber.identities import (
    SingularSampleError,
    classical_check,
    s_sum,
    t_sum,
    verify_lemma1,
    verify_lemma2,
    verify_theorem1,
    x_poly,
)
from qfaulhaber.laurent import LaurentPoly, ONE, q_int


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


class TestSummationIdentities:
    @pytest.mark.parametrize("which", ["p", "qmn", "t2mnq", "t2m1"])
    def test_identities_hold(self, which):
        # m up to 8 runs the factor lists well past the CLI's cap of 5
        for m in range(1, 9):
            for n in range(1, 7):
                assert verify_theorem1(which, m, n), (which, m, n)

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


class TestSeriesIdentity:
    @pytest.mark.parametrize("ab", [(1, 1), (1, 0), (0, 1)])
    def test_partial_fraction_form(self, ab):
        for q0 in (Fraction(2), Fraction(1, 2), Fraction(3)):
            for l in range(1, 6):
                assert verify_lemma1(*ab, q0, l, 12)

    def test_rejects_unsupported_case(self):
        with pytest.raises(ValueError):
            verify_lemma1(2, 2, Fraction(2), 1, 4)

    def test_rejects_singular_point(self):
        with pytest.raises(SingularSampleError):
            verify_lemma1(1, 1, Fraction(1), 1, 4)
        with pytest.raises(SingularSampleError):
            verify_lemma1(1, 1, Fraction(-1), 1, 4)  # [2] vanishes at -1


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
