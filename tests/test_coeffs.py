"""Determinant and inversion routes: reference values, matrix machinery,
inverse-pair proofs and the interpolation-based recovery."""
import random
from fractions import Fraction
from math import isqrt, prod

import pytest

from qfaulhaber import coeffs, kron
from qfaulhaber.coeffs import (
    BadIndexError,
    PolyMatrix,
    _family_det,
    _index_range,
    _inverse_factors,
    _invert_degree_bound,
    det_route,
    family_matrix,
    forward_entry,
    interpolate_poly,
    invert_route,
    invert_route_row,
    sample_points,
    verify_dstr_vanishing,
    verify_inverse_pair,
)
from qfaulhaber.laurent import LaurentPoly, ONE, Q, ZERO, q_int
from qfaulhaber.lgv import lgv_det_route
from oracles import (
    C, TABLES, detsum_expansion, fraction_det, hessenberg_minors_poly,
    inverse_last_row, inverse_pair_sides, laplace_det, rational_interpolate,
    term_sum, verify_detinv_consistency,
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

    def test_k_equal_m_vanishes(self):
        # the first column, forward_entry(family, i, 0) for i >= 1, is zero
        for family in "PQGH":
            for m in range(1, 7):
                assert all(forward_entry(family, i, 0).is_zero for i in range(1, m + 1))
                assert _family_det(family, m, m).is_zero, (family, m)

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
                a = [[term_sum(e, q0) for e in row] for row in m.entries]
                for s, minor in enumerate(minors):
                    assert term_sum(minor, q0) == fraction_det([row[n - s:] for row in a[n - s:]])

    def test_minors_match_laplace_on_random_matrices(self):
        # signed coefficients, some above 2^64, negative exponents, zero
        # entries and a zero row: every trailing minor of the integer
        # recurrence against a dense Laplace expansion of its block
        rng = random.Random(15)

        def entry():
            if rng.random() < 0.25:
                return ZERO
            spread = rng.choice((3, 1 << 70))
            return LaurentPoly(
                [rng.randint(-spread, spread) for _ in range(rng.randint(1, 4))],
                rng.randint(-4, 3),
            )

        for n in range(8):
            for trial in range(6):
                rows = [[entry() if j <= i + 1 else ZERO for j in range(n)]
                        for i in range(n)]
                if n and trial == 0:
                    rows[rng.randrange(n)] = [ZERO] * n
                minors = PolyMatrix.from_rows(rows).minors()
                assert len(minors) == n + 1
                for s, minor in enumerate(minors):
                    block = [row[n - s:] for row in rows[n - s:]]
                    assert minor == laplace_det(block), (n, trial, s)

    def test_detsum_equals_det_of_sum(self):
        rng = random.Random(11)
        for n in range(1, 5):
            a = self.random_hessenberg(rng, n, 2, 2)
            b = self.random_hessenberg(rng, n, 2, 2)
            total = PolyMatrix.from_rows(
                [x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)
            )
            assert detsum_expansion(a, b) == total.det()


def _largest_coeff(polys) -> int:
    return max(abs(c) for poly in polys for c in poly.coeffs)


class TestMinorsBound:
    # PolyMatrix.minors reads its digits exactly only while _minors_bound
    # covers every coefficient of every trailing minor; the true minors here
    # come from the polynomial recurrence, not from the integer one.
    @pytest.mark.parametrize("family", "PQGH")
    def test_covers_family_minors(self, family):
        for m in range(21):
            # the (m, k) matrix is the trailing k x k block of the (m, m) one
            minors = hessenberg_minors_poly(family_matrix(family, m, m).entries)
            for k in range(m + 1):
                norms = family_matrix(family, m, k).norms()
                bound = coeffs._minors_bound(norms)
                assert _largest_coeff(minors[: k + 1]) <= bound, (family, m, k)
                # never looser than the product of the row 1-norms, which
                # bounds the determinant's coefficients with no sign assumed,
                # on the range k < m (at k = m a zero entry makes it 0)
                if k < m:
                    assert bound <= prod(map(sum, norms)), (family, m, k)

    def test_covers_lgv_det_minors(self, monkeypatch):
        matrices = []
        det = PolyMatrix.det

        def spy(self):
            matrices.append(self)
            return det(self)

        monkeypatch.setattr(PolyMatrix, "det", spy)
        for family in "PQGH":
            for m in range(1, 12):
                for k in range(m):
                    lgv_det_route(family, m, k)
        assert len(matrices) == 4 * 66
        for matrix in matrices:
            bound = coeffs._minors_bound(matrix.norms())
            assert _largest_coeff(hessenberg_minors_poly(matrix.entries)) <= bound
            assert bound <= prod(map(sum, matrix.norms()))

    def test_narrow_digits_fail_the_crosscheck(self, monkeypatch, cold_memos):
        # Half the digit width the bound asks for must wrap some digit: the
        # width is load-bearing, and a wrapped digit shows as a wrong row.
        bound = coeffs._minors_bound
        monkeypatch.setattr(coeffs, "_minors_bound", lambda norms: isqrt(bound(norms)))
        wrong = next((
            (family, m, k) for m in range(1, 11) for family in "PQGH" for k in range(m)
            if det_route(family, m, k) != laplace_det(family_matrix(family, m, k).entries)
        ), None)
        assert wrong is not None

    def test_coefficient_bound_assumes_no_sign(self, monkeypatch):
        # -1 on the forward diagonal and 1 below it: each family matrix is
        # lower Hessenberg with -1 on its superdiagonal, and all 2^(k-1) terms
        # of its determinant add up, which one entry per row cannot bound.
        monkeypatch.setattr(coeffs, "forward_entry", lambda family, r, c: (
            -ONE if c == r else ONE if c < r else ZERO))
        assert coeffs._minors_bound(family_matrix("P", 8, 7).norms()) == 2 ** 6
        for k in range(1, 8):
            assert family_matrix("P", 8, k).det() == 2 ** (k - 1)


class TestForwardMatrices:
    def test_lower_triangular(self):
        for family in "PQGH":
            idx = list(_index_range(family, 6))
            for i in idx:
                for j in idx:
                    if j > i:
                        assert forward_entry(family, i, j) == ZERO

    def test_entries_are_polynomials(self):
        # the invert route reads each entry's value at an integer as an integer
        for family in "PQGH":
            for i in _index_range(family, 16):
                for j in _index_range(family, i):
                    entry = forward_entry(family, i, j)
                    assert entry.is_zero or entry.min_exp >= 0, (family, i, j)

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

    def test_builds_each_claimed_entry_once(self, monkeypatch):
        # one _inverse_factors call per entry on or below the diagonal
        # (P: 28 at n = 6, Q/G/H: 21 each)
        factors = coeffs._inverse_factors
        calls = []
        monkeypatch.setattr(coeffs, "_inverse_factors",
                            lambda *index: calls.append(index) or factors(*index))
        for family in "PQGH":
            assert verify_inverse_pair(family, 6)
        assert len(calls) == len(set(calls)) == 91

    @pytest.mark.parametrize("family", "PQGH")
    def test_integer_check_agrees_with_fractions(self, family, monkeypatch):
        # the one-point proof and the schoolbook oracle on the cleared
        # identity give the same verdict with no fault, with every
        # denominator off by one, and with the sign of one claimed numerator
        # flipped
        def by_polynomials(family, n):
            return all(lhs == rhs for lhs, rhs in inverse_pair_sides(family, n))

        for n in range(1, 7):
            assert verify_inverse_pair(family, n) and by_polynomials(family, n)
        factors, entry = coeffs._inverse_factors, coeffs._inverse_entry

        def off_by_one(*index):
            prefactor, denominator = factors(*index)
            return prefactor, denominator + 1

        with monkeypatch.context() as patch:
            patch.setattr(coeffs, "_inverse_factors", off_by_one)
            for n in range(1, 7):
                assert not verify_inverse_pair(family, n), n
                assert not by_polynomials(family, n), n
        for n in range(1, 7):
            # the last row's subdiagonal entry, its diagonal one at n = 1: P's
            # column 0 is zero below the diagonal (D(k, k) = 0 for k >= 1)
            flipped = (n, max(n - 1, 1))

            def flip(family, k, m, flipped=flipped):
                numerator, denominator = entry(family, k, m)
                return (-numerator if (k, m) == flipped else numerator), denominator

            with monkeypatch.context() as patch:
                patch.setattr(coeffs, "_inverse_entry", flip)
                assert not verify_inverse_pair(family, n), n
                assert not by_polynomials(family, n), n

    def test_evaluates_no_fraction(self, monkeypatch):
        # every value is an int packed at the proof point; no entry is
        # evaluated at a sample point (LaurentPoly.__call__)
        evaluate, calls = LaurentPoly.__call__, []
        monkeypatch.setattr(LaurentPoly, "__call__",
                            lambda poly, x: calls.append(x) or evaluate(poly, x))
        assert Q(2) == 2 and calls  # the spy sees calls
        calls.clear()
        for family in "PQGH":
            assert verify_inverse_pair(family, 6)
        for m in range(2, 7):
            assert verify_dstr_vanishing(m)
        assert calls == []

    def test_too_small_a_point_proves_nothing(self, monkeypatch):
        # (q - 2) q^2 added to every claimed-inverse denominator vanishes at
        # X = 2, so pinned there both checks pass the fault; at the proven X
        # both fail on every case
        factors = coeffs._inverse_factors
        fault = (Q - 2) * Q ** 2

        def faulty(*index):
            prefactor, denominator = factors(*index)
            return prefactor, denominator + fault

        monkeypatch.setattr(coeffs, "_inverse_factors", faulty)
        pairs = [(family, n) for family in "PQGH" for n in range(1, 5)]
        assert not any(verify_inverse_pair(*pair) for pair in pairs)
        assert not any(verify_dstr_vanishing(m) for m in range(2, 7))
        value_pass = kron._ValuePass
        monkeypatch.setattr(kron, "_ValuePass", lambda bits: value_pass(1))
        assert all(verify_inverse_pair(*pair) for pair in pairs)
        assert all(verify_dstr_vanishing(m) for m in range(2, 7))

    def test_dstr_vanishing(self):
        for m in range(2, 7):
            assert verify_dstr_vanishing(m)


class TestSamplePoints:
    def test_distinct_and_regular(self):
        # consecutive integers from 2: no forward diagonal entry vanishes
        # there
        pts = sample_points(40)
        assert pts == list(range(2, 42))
        assert all(type(p) is int for p in pts)

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
            assert rational_interpolate(pts, vals) == p

    def test_interpolation_rejects_non_integer(self):
        pts = sample_points(2)
        with pytest.raises(ArithmeticError):
            rational_interpolate(pts, [Fraction(1, 2), Fraction(1, 3)])


class TestIntegerInterpolation:
    def test_roundtrip_wide_coefficients(self):
        # coefficients of 200 bits come back exactly: nothing bounds their size
        rng = random.Random(17)
        for length in range(1, 41):
            cs = [rng.randint(-(1 << 200), 1 << 200) for _ in range(length)]
            p = LaurentPoly(cs)
            pts = sample_points(length)
            assert interpolate_poly(pts, [p(x).numerator for x in pts]) == p, length

    def test_values_of_no_integer_polynomial_raise(self):
        # q(q - 1)/2 takes integer values at every integer, yet its second
        # divided difference is 1/2; a slope of 1/2 fails at the first level
        for points, values in (([2, 3, 4], [1, 3, 6]), ([2, 4], [0, 1])):
            with pytest.raises(ArithmeticError):
                interpolate_poly(points, values)


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

    @pytest.mark.parametrize("family", "PQGH")
    def test_coefficient_bound_covers_polynomial(self, family):
        # The route reads no coefficient bound, but its rows are the det
        # route's minors: the det route's one bound for row m (the (m, k)
        # matrices are the trailing blocks of the (m, m - 1) one) must cover
        # every coefficient the route recovers, for every k.
        for m in range(1, 13):
            bound = coeffs._minors_bound(family_matrix(family, m, m - 1).norms())
            row = invert_route_row(family, m)
            for k in range(m):
                assert bound >= _largest_coeff([row[k]]), (family, m, k)

    @pytest.mark.parametrize("family", "QH")
    def test_rows_past_one_machine_word(self, family):
        # m = 16 has wider coefficients than any other cross-check reaches:
        # 93 bits for Q, 88 for H
        for m in (12, 16):
            row = invert_route_row(family, m)
            for k in range(m):
                assert row[k] == det_route(family, m, k), (family, m, k)
        assert _largest_coeff(row.values()) > 1 << 64, family

    @pytest.mark.parametrize("family", "PQGH")
    def test_denominator_fault_fails_the_crosscheck(self, family, monkeypatch):
        # The route reads no claimed-inverse factor, so a wrong denominator
        # leaves its rows alone; the inverse-pair check must catch it.
        rows = {m: invert_route_row(family, m) for m in range(1, 5)}
        factors = coeffs._inverse_factors

        def faulty(family, k, m):
            prefactor, denominator = factors(family, k, m)
            return prefactor, denominator + 1

        monkeypatch.setattr(coeffs, "_inverse_factors", faulty)
        for n in range(1, 5):
            assert not verify_inverse_pair(family, n), (family, n)
            assert invert_route_row(family, n) == rows[n], (family, n)
        # the boundary sum reads H's claimed inverse column too
        for m in range(2, 7):
            assert not verify_dstr_vanishing(m), m

    @pytest.mark.parametrize("family", "PQGH")
    def test_narrow_bound_fails_the_crosscheck(self, family, monkeypatch, cold_memos):
        # A bound cut to its square root wraps some digit of the det route's
        # minors, and the invert route, which reads no bound, keeps its rows:
        # the two disagree somewhere, so the cross-check catches the cut.
        rows = {m: invert_route_row(family, m) for m in range(1, 7)}
        bound = coeffs._minors_bound
        monkeypatch.setattr(coeffs, "_minors_bound", lambda norms: isqrt(bound(norms)))
        for m, row in rows.items():
            assert invert_route_row(family, m) == row, (family, m)
        wrong = [m for m, row in rows.items()
                 if [det_route(family, m, k) for k in range(m)] != [row[k] for k in range(m)]]
        assert wrong, family

    @pytest.mark.parametrize("family", "PQGH")
    def test_diagonal_fault_fails_the_crosscheck(self, family, monkeypatch):
        # The substitution reads the diagonal only in its running products,
        # so setting A[m-1][m-1] to 1 drops that factor from each of them.
        # Every k >= 2 goes wrong but (3, 2).  k = 0 and k = 1 stay right:
        # y[m] = 1 and y[m-1] = -A[m][m-1] have empty running products.
        # (3, 2) stays right because its one term carrying the factor is
        # A[3][1] A[2][2], and A[i][j] = 0 for i > 2j in every family.
        solve = coeffs._adjugate_last_row

        def faulty(a):
            if len(a) > 1:
                a[-2][-1] = 1  # rows stop at the diagonal
            return solve(a)

        monkeypatch.setattr(coeffs, "_adjugate_last_row", faulty)
        wrong = {(m, k) for m in range(1, 7)
                 for k, poly in invert_route_row(family, m).items()
                 if poly != det_route(family, m, k)}
        assert wrong == {(m, k) for m in range(1, 7) for k in range(2, m)} - {(3, 2)}

    @pytest.mark.parametrize("family", "PQGH")
    def test_reads_neither_det_route_nor_claimed_inverse(self, family, monkeypatch):
        rows = [det_route(family, 6, k) for k in range(6)]

        def unread(*args):
            raise AssertionError("the invert route read the det route or the claimed inverse")

        for name in ("_family_det", "_family_row", "_inverse_factors",
                     "_hessenberg_minors", "_minors_bound"):
            monkeypatch.setattr(coeffs, name, unread)
        for name in ("minors", "det"):
            monkeypatch.setattr(PolyMatrix, name, unread)
        row = invert_route_row(family, 6)
        assert [row[k] for k in range(6)] == rows

    @pytest.mark.parametrize("family", "PQGH")
    def test_vanishing_diagonal_needs_no_guard(self, family, monkeypatch, cold_memos):
        # q - 2 on the forward diagonal is 0 at the first sample point: the
        # substitution divides by no value, so the route still equals the
        # det route under the same patch
        entry = coeffs.forward_entry
        monkeypatch.setattr(coeffs, "forward_entry", lambda family, i, j: (
            LaurentPoly([-2, 1]) if i == j else entry(family, i, j)))
        for m in range(1, 7):
            row = invert_route_row(family, m)
            assert row == {k: det_route(family, m, k) for k in range(m)}, (family, m)

    def test_one_k_evaluates_at_its_own_bound(self, monkeypatch):
        # Q(14, 1) has degree bound 24; the whole row would need 157 points
        counts = []
        points = coeffs.sample_points
        monkeypatch.setattr(coeffs, "sample_points",
                            lambda count: counts.append(count) or points(count))
        assert invert_route("Q", 14, 1) == det_route("Q", 14, 1)
        assert counts == [25]
        assert invert_route_row("Q", 14, (1, 3)) == {
            k: det_route("Q", 14, k) for k in (1, 3)}
        assert counts[1] == _invert_degree_bound("Q", 14, 3) + 1

    def test_one_k_evaluates_only_its_trailing_block(self, monkeypatch):
        # B[40][39] needs only the trailing block on rows 39..40: three
        # forward entries at each of Q(40, 1)'s 77 points, not the whole
        # triangle's 820
        expected = det_route("Q", 40, 1)
        evaluated = []
        call = LaurentPoly.__call__
        monkeypatch.setattr(LaurentPoly, "__call__",
                            lambda self, x: evaluated.append(self) or call(self, x))
        assert invert_route("Q", 40, 1) == expected
        assert _invert_degree_bound("Q", 40, 1) + 1 == 77
        assert len(evaluated) == 3 * 77
        assert set(evaluated) == {forward_entry("Q", r, c)
                                  for r, c in ((39, 39), (40, 39), (40, 40))}

    def test_single_entry(self):
        assert invert_route("G", 4, 2) == C(10, 24, 24, 10)

    def test_index_validation(self):
        with pytest.raises(BadIndexError):
            invert_route("P", 3, 3)
