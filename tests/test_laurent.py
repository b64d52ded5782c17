"""Ring axioms and core operations of the Laurent polynomial type."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qfaulhaber.laurent import (
    CoeffRecord,
    LaurentPoly,
    NotDivisibleError,
    ONE,
    Q,
    ZERO,
    q_fact,
    q_int,
    shape_report,
)
from oracles import from_terms, term_sum

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
polys = st.builds(
    LaurentPoly, coeff_lists, st.integers(min_value=-6, max_value=6)
)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
points = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7
).filter(lambda x: x != 0)


class TestConstruction:
    def test_zero_is_canonical(self):
        assert LaurentPoly([]) == LaurentPoly([0, 0], 5) == ZERO
        assert ZERO.is_zero
        assert ZERO.coeffs == ()

    def test_normalization_strips_edges(self):
        p = LaurentPoly([0, 3, 0, 1, 0], -1)
        assert p.min_exp == 0
        assert p.coeffs == (3, 0, 1)
        assert p.max_exp == 2

    def test_term_and_from_terms(self):
        assert LaurentPoly.term(4, -2) == LaurentPoly([4], -2)
        p = from_terms({2: 1, -1: 3})
        assert p.min_exp == -1
        assert p.coeffs == (3, 0, 0, 1)
        assert from_terms({3: 0}) == ZERO

    def test_immutability(self):
        with pytest.raises(AttributeError):
            ONE.min_exp = 3

    def test_hash_consistent_with_eq(self):
        assert hash(LaurentPoly([2, 1], 1)) == hash(LaurentPoly([0, 2, 1], 0))
        for poly, value in ((LaurentPoly([5]), 5), (ZERO, 0), (ONE, 1),
                            (LaurentPoly([-3]), -3)):
            assert poly == value
            assert hash(poly) == hash(value)
            assert len({poly, value}) == 1


class TestRingAxioms:
    @given(polys, polys)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polys)
    def test_additive_identity_and_inverse(self, a):
        assert a + ZERO == a
        assert a + (-a) == ZERO
        assert a - a == ZERO

    @given(polys, polys)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys, polys, polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_multiplicative_identity_and_annihilator(self, a):
        assert a * ONE == a
        assert a * ZERO == ZERO

    @given(polys, st.integers(min_value=-9, max_value=9))
    def test_int_scaling_matches_poly_product(self, a, n):
        assert n * a == LaurentPoly([n]) * a
        assert a * n == n * a

    @given(nonzero_polys, nonzero_polys)
    def test_product_degree_and_no_zero_divisors(self, a, b):
        p = a * b
        assert not p.is_zero
        assert p.min_exp == a.min_exp + b.min_exp
        assert p.max_exp == a.max_exp + b.max_exp

    @given(polys, st.integers(min_value=0, max_value=6))
    def test_power_is_repeated_product(self, a, n):
        expected = ONE
        for _ in range(n):
            expected = expected * a
        assert a ** n == expected


# Small polynomials for high powers: the zero polynomial, constants and
# polynomials with negative lowest exponent are all drawn.
small_polys = st.one_of(
    st.just(ZERO),
    st.builds(LaurentPoly.term, st.integers(min_value=-3, max_value=3)),
    st.builds(
        LaurentPoly,
        st.lists(st.integers(min_value=-3, max_value=3), max_size=4),
        st.integers(min_value=-4, max_value=2),
    ),
)


class TestPower:
    @given(small_polys, st.integers(min_value=0, max_value=40))
    def test_high_power_is_repeated_product(self, a, n):
        expected = ONE
        for _ in range(n):
            expected = expected * a
        assert a ** n == expected

    def test_zero_exponent_and_negative_exponent(self):
        for a in (ZERO, ONE, LaurentPoly.term(-2), LaurentPoly([1, -1, 2], -3)):
            assert a ** 0 == ONE
            with pytest.raises(ValueError):
                a ** -1

    @pytest.mark.parametrize("base", [LaurentPoly([1, 1, 1]), LaurentPoly([2, 0, -1], -2)])
    def test_no_product_wider_than_the_result(self, monkeypatch, base):
        # Squaring once more after the exponent's last bit would build a
        # product of about 2^bitlen(n) * deg(base), wider than base ** n.
        widths = []
        mul = LaurentPoly.__mul__

        def counting_mul(self, other):
            product = mul(self, other)
            widths.append(len(product.coeffs))
            return product

        monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
        for n in range(1, 41):
            widths.clear()
            result = base ** n
            assert widths, n
            assert max(widths) <= len(result.coeffs), n


class TestDivisionEvaluationShift:
    @given(nonzero_polys, polys)
    def test_divexact_inverts_multiplication(self, d, q):
        assert (q * d).divexact(d) == q

    def test_divexact_monomials_give_laurent_quotients(self):
        assert (Q + ONE).divexact(Q) == LaurentPoly([1, 1], -1)

    def test_divexact_rejects_inexact(self):
        with pytest.raises(NotDivisibleError):
            LaurentPoly([1, 1]).divexact(LaurentPoly([1, 1, 1]))
        with pytest.raises(NotDivisibleError):
            LaurentPoly([1, 1, 1]).divexact(LaurentPoly([2]))
        with pytest.raises(ZeroDivisionError):
            ONE.divexact(ZERO)

    @given(polys, polys, points)
    def test_evaluation_is_ring_homomorphism(self, a, b, x):
        assert term_sum(a + b, x) == term_sum(a, x) + term_sum(b, x)
        assert term_sum(a * b, x) == term_sum(a, x) * term_sum(b, x)

    def test_evaluation_at_zero(self):
        assert LaurentPoly([1, 2])(0) == 1
        with pytest.raises(ValueError):
            LaurentPoly([1], -1)(0)

    @given(polys, st.integers(min_value=-5, max_value=5))
    def test_evaluation_matches_term_sum(self, a, x):
        # x may be 0 or negative; a may be zero or start at a negative exponent
        if a.min_exp < 0:
            with pytest.raises(ValueError):
                a(x)
            return
        value = a(x)
        assert type(value) is int
        assert value == term_sum(a, x)

    def test_evaluation_examples(self):
        p = LaurentPoly([3, 0, -1, 2])  # 3 - t^2 + 2t^3
        assert p(-2) == 3 - 4 - 16
        assert p(2) == 3 - 4 + 16
        assert LaurentPoly([3, 0, -1, 2], 2)(2) == 4 * (3 - 4 + 16)
        assert p(2**70) == 3 - 2**140 + 2**211
        with pytest.raises(ValueError):  # 3t^-2 - 1 + 2t is not an integer at 2
            LaurentPoly([3, 0, -1, 2], -2)(2)
        assert ZERO(0) == 0 and type(ZERO(3)) is int
        assert LaurentPoly([5], 2)(0) == 0
        assert LaurentPoly([4, 1])(0) == 4

    @given(polys, st.integers(min_value=1, max_value=4), points)
    def test_stretch_matches_power_substitution(self, a, s, x):
        assert term_sum(a.stretch(s), x) == term_sum(a, x ** s)

    @given(polys)
    def test_stretch_one_is_identity(self, a):
        assert a.stretch(1) == a


class TestPalindromicity:
    def test_examples(self):
        assert LaurentPoly([5, 13, 13, 5]).is_palindromic()
        assert not LaurentPoly([1, 2]).is_palindromic()
        assert ZERO.is_palindromic()

    @given(nonzero_polys, nonzero_polys)
    def test_products_of_palindromes_are_palindromic(self, a, b):
        a = LaurentPoly(a.coeffs)
        b = LaurentPoly(b.coeffs)
        pa = a * LaurentPoly(a.coeffs[::-1])
        pb = b * LaurentPoly(b.coeffs[::-1])
        assert pa.is_palindromic() and pb.is_palindromic()
        assert (pa * pb).is_palindromic()


class TestQAnalogues:
    def test_q_int_values(self):
        assert q_int(0) == ZERO
        assert q_int(1) == ONE
        assert q_int(3) == LaurentPoly([1, 1, 1])
        assert q_int(3, 2) == LaurentPoly([1, 0, 1, 0, 1])

    @given(st.integers(min_value=0, max_value=12), points)
    def test_q_int_closed_form(self, k, x):
        if x == 1:
            assert term_sum(q_int(k), x) == k
        else:
            assert term_sum(q_int(k), x) == (x ** k - 1) / (x - 1)

    def test_q_fact_recurrence(self):
        assert q_fact(0) == ONE
        for k in range(1, 7):
            assert q_fact(k) == q_fact(k - 1) * q_int(k)

    def test_q_fact_stride(self):
        # the [k]_{q^2}! of the identities is q_fact stretched by 2
        for k in range(6):
            product = ONE
            for i in range(1, k + 1):
                product = product * q_int(i, 2)
            assert product == q_fact(k).stretch(2), k


class TestShapeReport:
    def test_unimodal_and_log_concave(self):
        r = shape_report(LaurentPoly([1, 3, 3, 1]))
        assert r.unimodal and r.log_concave

    def test_non_unimodal(self):
        r = shape_report(LaurentPoly([3, 2, 4, 2, 3]))
        assert not r.unimodal and not r.log_concave

    def test_log_concave_implies_unimodal(self):
        for coeffs in ([1, 2, 2, 1], [2, 3, 4, 3, 2], [1], [5, 5]):
            r = shape_report(LaurentPoly(coeffs))
            assert not r.log_concave or r.unimodal

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            shape_report(LaurentPoly([1, -1, 1]))

    def test_internal_zero_breaks_log_concavity(self):
        r = shape_report(LaurentPoly([1, 0, 1]))
        assert not r.log_concave


class TestFormatting:
    def test_to_string_ascending(self):
        assert LaurentPoly([10, 24, 24, 10]).to_string() == "10 + 24q + 24q^2 + 10q^3"
        assert LaurentPoly([1], -2).to_string("t") == "t^-2"
        assert ZERO.to_string() == "0"
        assert ONE.to_string() == "1"


class TestCoeffRecord:
    def test_coefficients_dense_from_zero(self):
        rec = CoeffRecord(family="G", m=4, k=2, route="det",
                          poly=LaurentPoly([10, 24, 24, 10]))
        assert list(rec.coefficients()) == [10, 24, 24, 10]

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            CoeffRecord(family="P", m=2, k=1, route="det",
                        poly=LaurentPoly([1], -1))

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            CoeffRecord(family="P", m=2, k=1, route="det",
                        poly=LaurentPoly([1, -2]))
