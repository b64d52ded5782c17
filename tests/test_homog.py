"""Specialized complete homogeneous functions: recurrences, generating
functions, and the derived c/g/d families."""
from fractions import Fraction

import pytest

from qfaulhaber.homog import c_poly, d_poly, g_poly, h_spec
from qfaulhaber.laurent import LaurentPoly, ONE, Q, ZERO, q_int

BOUND = 8


def truncated_series_coeff(n, r, s, qexp, x):
    """Coefficient of z^n in 1/((1-z)^r (1-x^qexp z)^s) at a rational x,
    by convolving truncated geometric series, one factor at a time; 0 for
    negative n."""
    if n < 0:
        return Fraction(0)
    g = Fraction(x) ** qexp
    series = [Fraction(1)] + [Fraction(0)] * n
    for ratio in [Fraction(1)] * r + [g] * s:
        geometric = [ratio ** j for j in range(n + 1)]
        series = [
            sum(series[i] * geometric[d - i] for i in range(d + 1))
            for d in range(n + 1)
        ]
    return series[n]


class TestHSpec:
    def test_base_cases(self):
        assert h_spec(0, 0, 0) == ONE
        assert h_spec(3, 0, 0) == ZERO
        assert h_spec(-1, 2, 2) == ZERO
        assert h_spec(2, -1, 3) == ZERO
        assert h_spec(2, 3, -1) == ZERO
        assert h_spec(0, 4, 5) == ONE

    def test_single_alphabet(self):
        # r ones only: h_n is the multiset count, constant in q
        from math import comb

        for n in range(5):
            for r in range(1, 5):
                assert h_spec(n, r, 0) == LaurentPoly([comb(n + r - 1, r - 1)])
        # s copies of q only: pure power of q times the multiset count
        for n in range(5):
            for s in range(1, 5):
                expected = LaurentPoly.term(comb(n + s - 1, s - 1), n)
                assert h_spec(n, 0, s) == expected

    def test_removal_recurrence_in_r(self):
        # 1/(1-z) factor removal: h_n(r,s) = h_{n-1}(r,s) + h_n(r-1,s)
        for n in range(BOUND + 1):
            for r in range(1, 5):
                for s in range(0, 4):
                    assert h_spec(n, r, s) == h_spec(n - 1, r, s) + h_spec(
                        n, r - 1, s
                    )

    def test_removal_recurrence_in_s(self):
        # 1/(1-qz) factor removal: h_n(r,s) = q*h_{n-1}(r,s) + h_n(r,s-1)
        for n in range(BOUND + 1):
            for r in range(0, 4):
                for s in range(1, 5):
                    assert h_spec(n, r, s) == Q * h_spec(n - 1, r, s) + h_spec(
                        n, r, s - 1
                    )

    def test_generating_function_evaluation(self):
        for x in (Fraction(2), Fraction(1, 3), Fraction(-2, 5)):
            for n in range(6):
                for r in range(4):
                    for s in range(4):
                        assert h_spec(n, r, s)(x) == (
                            truncated_series_coeff(n, r, s, 1, x)
                        )

    def test_degree_and_palindromicity(self):
        for n in range(1, BOUND + 1):
            for r in range(1, 5):
                p = h_spec(n, r, r)
                assert p.min_exp == 0 and p.max_exp == n
                assert p.is_palindromic()

    def test_monotone_nonnegative(self):
        for n in range(BOUND + 1):
            for r in range(5):
                for s in range(5):
                    assert all(c >= 0 for c in h_spec(n, r, s).coeffs)


class TestDerivedFamilies:
    def test_c_small_values(self):
        assert c_poly(0, 0) == ONE
        assert c_poly(1, 1) == q_int(3)
        for k in range(1, 6):
            # top entry telescopes to the odd q-integer [2k+1]
            assert c_poly(k, k) == q_int(2 * k + 1)

    def test_c_is_h_of_the_q_squared_alphabet(self):
        # c_{k,m} = h_{2m-k}({1,q^2}^r) + q h_{2m-k-1}({1,q^2}^r), r = k-m+1,
        # read off the generating function at q^2
        for x in (Fraction(2), Fraction(1, 3), Fraction(-2, 5)):
            for k in range(6):
                for m in range(k + 1):
                    r, n = k - m + 1, 2 * m - k
                    expected = truncated_series_coeff(n, r, r, 2, x) + x * (
                        truncated_series_coeff(n - 1, r, r, 2, x)
                    )
                    assert c_poly(k, m)(x) == expected, (x, k, m)

    def test_c_vanishing(self):
        for m in range(1, 6):
            assert c_poly(m, 0) == ZERO
        assert c_poly(1, 3) == ZERO

    def test_g_small_values(self):
        assert g_poly(0, 0) == LaurentPoly([2])
        assert g_poly(1, 1) == ONE + Q
        assert g_poly(2, 2) == ONE + Q * Q
        for m in range(1, 6):
            assert g_poly(m, 0) == ZERO

    def test_g_palindromic(self):
        for k in range(7):
            for m in range(k + 1):
                g = g_poly(k, m)
                assert g.is_palindromic()

    def test_d_small_values(self):
        assert d_poly(0, 0) == LaurentPoly([2])
        assert d_poly(1, 1) == (ONE + Q) ** 2
        for m in range(1, 6):
            assert d_poly(m, 0) == ZERO

    def test_d_from_g(self):
        for k in range(7):
            for m in range(k + 1):
                expected = g_poly(k, m).stretch(2) + Q * g_poly(k - 1, m - 1).stretch(2)
                assert d_poly(k, m) == expected

    def test_families_nonnegative_palindromic(self):
        for k in range(7):
            for m in range(k + 1):
                for p in (c_poly(k, m), g_poly(k, m), d_poly(k, m)):
                    assert all(c >= 0 for c in p.coeffs)
                    assert p.is_palindromic()
