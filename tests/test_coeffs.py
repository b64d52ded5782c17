"""Determinant and inversion routes: reference values, matrix machinery,
inverse-pair proofs and the interpolation-based recovery."""
import random
from fractions import Fraction

import pytest

from qfaulhaber import coeffs
from qfaulhaber.coeffs import (
    BadIndexError,
    PolyMatrix,
    _family_det,
    _index_range,
    _inverse_entry,
    _inverse_factors,
    _invert_degree_bound,
    _pair_degree_bound,
    det_route,
    family_matrix,
    forward_entry,
    interpolate_poly,
    inverse_last_row,
    invert_route,
    invert_route_row,
    sample_points,
    verify_dstr_vanishing,
    verify_inverse_pair,
)
from qfaulhaber.laurent import LaurentPoly, ONE, Q, ZERO, q_int
from oracles import (
    C, TABLES, detsum_expansion, fraction_det, laplace_det, verify_detinv_consistency,
)


class TestReferenceTables:
    @pytest.mark.parametrize("family", "PQGH")
    def test_determinant_route_matches_tables(self, family):
        for (m, k), expected in TABLES[family].items():
            assert det_route(family, m, k) == expected, (family, m, k)

    def test_top_entries_duplicate(self):
        # the last two columns of every row agree up to the family factor
        for family in "PQGH":
            factor = 1 if family in "PQ" else 2
            for m in range(2, 9):
                assert det_route(family, m, m - 1) == factor * det_route(
                    family, m, m - 2
                )

    def test_index_validation(self):
        for family in "PQGH":
            with pytest.raises(BadIndexError):
                det_route(family, 3, 3)
            with pytest.raises(BadIndexError):
                det_route(family, 3, 5)
            with pytest.raises(BadIndexError):
                det_route(family, -1, 0)
            with pytest.raises(BadIndexError):
                det_route(family, 3, -1)

    def test_k_zero_is_one(self):
        for family in "PQGH":
            for m in range(1, 9):
                assert det_route(family, m, 0) == ONE

    def test_row_recurrence_matches_matrix_determinant(self):
        # _family_det reads a row off the trailing minors of one Hessenberg
        # matrix; compare with an independent dense Laplace expansion.
        _family_det.cache_clear()
        for family in "PQGH":
            for m in range(0, 13):
                for k in range(0, m + 1):
                    assert _family_det(family, m, k) == laplace_det(
                        family_matrix(family, m, k).entries
                    ), (family, m, k)


class TestPolyMatrix:
    def test_det_small(self):
        m = PolyMatrix.from_rows([[ONE, Q], [Q, ONE]])
        assert m.det() == ONE - Q * Q
        assert PolyMatrix.from_rows([]).det() == ONE
        assert PolyMatrix.from_rows([[C(3, 1)]]).det() == C(3, 1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            PolyMatrix.from_rows([[ONE, Q]])

    def test_rejects_non_hessenberg(self):
        m = PolyMatrix.from_rows([[ONE, ZERO, Q], [ONE, ONE, ZERO], [ONE, ONE, ONE]])
        with pytest.raises(ValueError, match="Hessenberg"):
            m.det()

    @staticmethod
    def random_hessenberg(rng, n, width, spread):
        return PolyMatrix.from_rows(
            [
                LaurentPoly([rng.randint(-spread, spread) for _ in range(width)])
                if j <= i + 1 else ZERO
                for j in range(n)
            ]
            for i in range(n)
        )

    def test_det_matches_rational_determinant(self):
        # every trailing minor, the last of which is det()
        rng = random.Random(7)
        for n in range(1, 7):
            m = self.random_hessenberg(rng, n, 3, 3)
            minors = m.minors()
            assert len(minors) == n + 1 and minors[-1] == m.det()
            for q0 in (Fraction(2), Fraction(-1, 2), Fraction(3, 7)):
                a = [[e(q0) for e in row] for row in m.entries]
                for s, minor in enumerate(minors):
                    assert minor(q0) == fraction_det([row[n - s:] for row in a[n - s:]])

    def test_detsum_equals_det_of_sum(self):
        rng = random.Random(11)
        for n in range(1, 5):
            a = self.random_hessenberg(rng, n, 2, 2)
            b = self.random_hessenberg(rng, n, 2, 2)
            total = PolyMatrix.from_rows(
                [x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)
            )
            assert detsum_expansion(a, b) == total.det()


class TestForwardMatrices:
    def test_lower_triangular(self):
        for family in "PQGH":
            idx = list(_index_range(family, 6))
            for i in idx:
                for j in idx:
                    if j > i:
                        assert forward_entry(family, i, j) == ZERO

    def test_diagonals(self):
        for k in range(7):
            assert forward_entry("P", k, k) == q_int(k + 1)
        for k in range(1, 7):
            assert forward_entry("Q", k, k) == q_int(2 * k + 1)
            assert forward_entry("G", k, k) == ONE + LaurentPoly.term(1, k)
            assert forward_entry("H", k, k) == (ONE + Q) * (
                ONE + LaurentPoly.term(1, 2 * k - 1)
            )

    def test_first_rows(self):
        assert forward_entry("P", 0, 0) == ONE
        assert forward_entry("G", 1, 1) == ONE + Q
        assert forward_entry("H", 1, 1) == (ONE + Q) ** 2


class TestInversePairs:
    @pytest.mark.parametrize("family", "PQGH")
    def test_inverse_pair_proven(self, family):
        assert verify_inverse_pair(family, 6)

    @pytest.mark.parametrize("family", "PQGH")
    def test_detinv_consistency(self, family):
        for m in range(2, 7):
            for k in range(1, m):
                assert verify_detinv_consistency(family, m, k)

    @pytest.mark.parametrize("family", "PQGH")
    def test_factors_match_forward_diagonal(self, family):
        # prefactor * A[m][m] ... A[k][k] == denominator, exactly
        for k in _index_range(family, 9):
            for m in _index_range(family, k):
                prefactor, denominator = _inverse_factors(family, k, m)
                diagonal = ONE
                for j in range(m, k + 1):
                    diagonal = diagonal * forward_entry(family, j, j)
                assert prefactor * diagonal == denominator, (family, k, m)

    @pytest.mark.parametrize("family", "PQGH")
    def test_pair_degree_bound_covers_cleared_terms(self, family):
        # Clearing sum_t A[i][t] B[t][j] = delta_ij by the product of den(t, j)
        # over t = j..i gives summands A[i][t] num(t, j) prod_{mid != t} den(mid, j);
        # verify_inverse_pair is a proof only while the bound covers them all.
        for n in range(1, 5):
            bound = _pair_degree_bound(family, n)
            idx = list(_index_range(family, n))
            entries = {(k, m): _inverse_entry(family, k, m)
                       for k in idx for m in idx if m <= k}
            for i in idx:
                for j in idx:
                    for t in idx:
                        if not j <= t <= i:
                            continue
                        term = forward_entry(family, i, t) * entries[t, j][0]
                        for mid in range(j, i + 1):
                            if mid != t:
                                term = term * entries[mid, j][1]
                        assert term.is_zero or term.max_exp <= bound, (n, i, j, t)

    @pytest.mark.parametrize("family", "PQGH")
    def test_pair_degree_bound_is_largest_cleared_term(self, family):
        # Over Z a product's degree is the sum of its factors' degrees, so the
        # bound can be exact: it equals the largest cleared-summand degree,
        # and any loosening of it fails here.
        for n in range(1, 5):
            idx = list(_index_range(family, n))
            largest = 0
            for j in idx:
                for i in idx:
                    for t in range(j, i + 1):
                        term = forward_entry(family, i, t) * _inverse_entry(family, t, j)[0]
                        for mid in range(j, i + 1):
                            if mid != t:
                                term = term * _inverse_entry(family, mid, j)[1]
                        if not term.is_zero:
                            largest = max(largest, term.max_exp)
            assert _pair_degree_bound(family, n) == largest, (family, n)

    def test_dstr_vanishing(self):
        for m in range(2, 7):
            for t0 in (Fraction(2), Fraction(1, 2), Fraction(3)):
                assert verify_dstr_vanishing(m, t0)

    def test_dstr_rejects_bad_point(self):
        with pytest.raises(ValueError):
            verify_dstr_vanishing(3, Fraction(1))


class TestSamplePoints:
    def test_distinct_and_regular(self):
        pts = sample_points(40)
        assert len(set(pts)) == 40
        assert all(p > 0 and p != 1 for p in pts)

    def test_prefix_stability(self):
        assert sample_points(5) == sample_points(10)[:5]


class TestRationalLinearAlgebra:
    def test_inverse_last_row(self):
        rng = random.Random(3)
        for n in range(1, 6):
            a = [
                [
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    if j < i
                    else (Fraction(rng.randint(1, 5)) if j == i else Fraction(0))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            x = inverse_last_row(a)
            for j in range(n):
                assert sum(x[t] * a[t][j] for t in range(n)) == (j == n - 1)

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            inverse_last_row([[Fraction(0)]])

    def test_fraction_det_values(self):
        assert fraction_det([[Fraction(2)]]) == 2
        assert fraction_det(
            [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        ) == -2
        assert fraction_det(
            [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]]
        ) == 0

    def test_interpolation_roundtrip(self):
        rng = random.Random(17)
        for length in (1, 2, 3, 6, 11, 17, 25, 32, 39, 40):
            coeffs = [rng.randint(-99, 99) for _ in range(length)]
            p = LaurentPoly(coeffs)
            pts = sample_points(len(coeffs))
            vals = [p(x) for x in pts]
            assert interpolate_poly(pts, vals) == p

    def test_interpolation_rejects_non_integer(self):
        pts = sample_points(2)
        with pytest.raises(ArithmeticError):
            interpolate_poly(pts, [Fraction(1, 2), Fraction(1, 3)])


class TestInvertRoute:
    @pytest.mark.parametrize("family", "PQGH")
    def test_matches_determinant_route(self, family):
        for m in range(1, 8):
            row = invert_route_row(family, m)
            for k in range(m):
                assert row[k] == det_route(family, m, k), (family, m, k)

    @pytest.mark.parametrize("family", "PQGH")
    def test_degree_bound_covers_polynomial(self, family):
        # The route interpolates on bound + 1 points, so the recovered
        # polynomial is proven only while the bound covers the true degree.
        for m in range(1, 13):
            for k in range(m):
                bound = _invert_degree_bound(family, m, k)
                degree = det_route(family, m, k).max_exp
                assert bound >= degree, (family, m, k)
                # tight: a looser bound would only add sample points
                assert bound == degree, (family, m, k)

    @pytest.mark.parametrize("family", "PQGH")
    def test_each_k_interpolates_on_its_bound(self, family, monkeypatch):
        calls = []

        def spy(points, values):
            calls.append(list(points))
            return interpolate_poly(points, values)

        monkeypatch.setattr(coeffs, "interpolate_poly", spy)
        invert_route_row(family, 8)
        assert len(calls) == 8
        for k, points in enumerate(calls):
            assert len(points) == _invert_degree_bound(family, 8, k) + 1, (family, k)
            assert points == sample_points(len(points))

    def test_single_entry(self):
        assert invert_route("G", 4, 2) == C(10, 24, 24, 10)

    def test_index_validation(self):
        with pytest.raises(BadIndexError):
            invert_route("P", 3, 3)
