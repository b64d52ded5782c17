"""What the tests compare the library against, and only the tests use.

Slow reference implementations: the value at a rational point as a sum
of terms, a dense Laplace determinant, the trailing minors of a Hessenberg
matrix by its first-column recurrence on polynomials, the det(A+B)
column-subset expansion behind the G/H entrywise split, rational back
substitution and Newton interpolation, the submatrix-determinant formula
for triangular inverses, the inverse-pair check on rational values, and the
literal subset weights, the exponent-by-exponent expansion of the product
forms and alternative placements of the G/H lattice-path model.  The summation identities of
Theorem 1 and Lemmas 1 and 2 as products in the Laurent ring, Lemma 1's
series coefficients in rationals at one point q0, and the power-sum series
term by term.  Literal walks of the lattice-path layer: path listing
step by step, every path family with the disjointness test dropped, step
statistics read off each step, and the determinant route's single-pair sums
as one polynomial product per vertical step under its step rules.
Reference values: the tabled polynomials and the panel
weights of G(4,2) and H(4,2).
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from qfaulhaber import coeffs, identities
from qfaulhaber.coeffs import (
    PolyMatrix,
    _check_index,
    _index_range,
    forward_entry,
    sample_points,
)
from qfaulhaber.laurent import LaurentPoly, ONE, Q, ZERO, q_int
from qfaulhaber.lgv import _Q, LatticePoint, PathFamily, PathStats


class SingularSampleError(ArithmeticError):
    """Raised when a denominator factor vanishes at a sample point."""


_Q2 = LaurentPoly.term(1, 2)
_Q_PLUS_Q2 = _Q + _Q2
_ONE_PLUS_Q = ONE + _Q


def from_terms(terms: dict[int, int]) -> LaurentPoly:
    """The sum of c * q^e over terms' e -> c entries."""
    if not terms:
        return ZERO
    lo = min(terms)
    coeffs = [0] * (max(terms) - lo + 1)
    for e, c in terms.items():
        coeffs[e - lo] += c
    return LaurentPoly(coeffs, lo)


def term_sum(p: LaurentPoly, x) -> Fraction:
    """p at a rational point x, as the sum of its terms c * x^e; raises
    ZeroDivisionError at x = 0 when p has a negative exponent."""
    x = Fraction(x)
    return sum((c * x ** (p.min_exp + i) for i, c in enumerate(p.coeffs)), Fraction(0))


def _poly_from_terms(a: int, exps) -> LaurentPoly:
    """(1+q)^a times the sum of count * q^e over exps' e -> count entries."""
    return _ONE_PLUS_Q ** a * from_terms(exps)


def C(*descending):
    """Polynomial from coefficients written highest power first."""
    return LaurentPoly(list(reversed(descending)))


QP1 = C(1, 1)  # q + 1

# The tabled family polynomials with k >= 1.
TABLES = {
    "P": {
        (2, 1): ONE,
        (3, 1): 2 * QP1, (3, 2): 2 * QP1,
        (4, 1): C(3, 4, 3), (4, 2): QP1 * C(5, 8, 5), (4, 3): QP1 * C(5, 8, 5),
        (5, 1): 2 * QP1 * C(2, 1, 2),
        (5, 2): QP1 * C(9, 19, 29, 19, 9),
        (5, 3): 2 * QP1 ** 2 * C(1, 1, 1) * C(7, 11, 7),
        (5, 4): 2 * QP1 ** 2 * C(1, 1, 1) * C(7, 11, 7),
    },
    "Q": {
        (2, 1): ONE,
        (3, 1): C(2, 1, 2), (3, 2): C(2, 1, 2),
        (4, 1): C(3, 2, 4, 2, 3),
        (4, 2): C(1, 1, 1) * C(5, 1, 9, 1, 5),
        (4, 3): C(1, 1, 1) * C(5, 1, 9, 1, 5),
    },
    "G": {
        (2, 1): C(2),
        (3, 1): 3 * QP1, (3, 2): 6 * QP1,
        (4, 1): 4 * C(1, 1, 1),
        (4, 2): 2 * QP1 * C(5, 7, 5), (4, 3): 4 * QP1 * C(5, 7, 5),
        (5, 1): 5 * QP1 * C(1, 0, 1),
        (5, 2): 5 * QP1 * C(3, 4, 8, 4, 3),
        (5, 3): 5 * QP1 ** 2 * C(7, 14, 20, 14, 7),
        (5, 4): 10 * QP1 ** 2 * C(7, 14, 20, 14, 7),
    },
    "H": {
        (2, 1): C(2),
        (3, 1): C(3, 2, 3), (3, 2): 2 * C(3, 2, 3),
        (4, 1): C(4, 3, 4, 3, 4),
        (4, 2): C(10, 15, 30, 26, 30, 15, 10),
        (4, 3): 2 * C(10, 15, 30, 26, 30, 15, 10),
    },
}

# The weights of the 17 non-intersecting path families of G(4,2) and H(4,2).
G_4_2_PANELS = Counter(
    [C(1, 1, 1, 1), C(2, 2, 0), C(1, 2, 1), C(4, 0), C(2, 0, 2), C(1, 2, 1, 0),
     C(4, 0, 0), C(2, 0, 2, 0)]
    + [C(2, 2)] * 3 + [C(2, 2, 0)] * 3 + [C(2, 2, 0, 0)] * 3
)
_P, _P2, _P3 = C(1, 1), C(1, 0, 1), C(1, 0, 0, 1)
H_4_2_PANELS = Counter(
    [
        _P ** 3 * _P3, 2 * Q ** 2 * _P ** 2, _P ** 4, 2 * Q * _P ** 2,
        2 * _P * _P3, Q ** 2 * _P ** 4, 2 * Q ** 3 * _P ** 2,
        2 * Q ** 2 * _P * _P3, 2 * _P ** 2, 2 * _P2, 2 * _P2,
        2 * Q ** 2 * _P ** 2, 2 * Q ** 2 * _P2, 2 * Q ** 2 * _P2,
        2 * Q ** 4 * _P ** 2, 2 * Q ** 4 * _P2, 2 * Q ** 4 * _P2,
    ]
)


def laplace_det(rows) -> LaurentPoly:
    """Determinant of any square polynomial matrix by cofactor expansion
    along the rows, memoized on the set of columns still free."""
    n = len(rows)

    @lru_cache(maxsize=None)
    def minor(row: int, cols: frozenset) -> LaurentPoly:
        if row == n:
            return ONE
        total = ZERO
        for sign_idx, j in enumerate(sorted(cols)):
            e = rows[row][j]
            if e.is_zero:
                continue
            sub = minor(row + 1, cols - {j})
            if sub.is_zero:
                continue
            term = e * sub
            total = total + (term if sign_idx % 2 == 0 else -term)
        return total

    return minor(0, frozenset(range(n)))


def hessenberg_minors_poly(rows) -> list[LaurentPoly]:
    """Trailing minors of a lower-Hessenberg polynomial matrix, smallest
    first, by the first-column recurrence of `PolyMatrix.minors` run on
    `LaurentPoly` products instead of one integer evaluation."""
    n = len(rows)
    minors = [ONE]
    for r in range(n - 1, -1, -1):
        acc = rows[n - 1][r]
        for i in range(n - 2, r - 1, -1):
            acc = rows[i][r] * minors[n - 1 - i] - rows[i][i + 1] * acc
        minors.append(acc)
    return minors


def detsum_expansion(a: PolyMatrix, b: PolyMatrix) -> LaurentPoly:
    """det(A+B) via the sum over column subsets drawn from A versus B."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    n = a.dim
    total = ZERO
    for r in range(n + 1):
        for cols in combinations(range(n), r):
            chosen = set(cols)
            rows = [
                [a.entries[i][j] if j in chosen else b.entries[i][j] for j in range(n)]
                for i in range(n)
            ]
            total = total + laplace_det(rows)
    return total


def fraction_det(a: list[list[Fraction]]) -> Fraction:
    """Determinant of a rational matrix by Gaussian elimination."""
    n = len(a)
    a = [row[:] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def inverse_last_row(a: list[list[Fraction]]) -> list[Fraction]:
    """Last row x of the inverse of a lower-triangular rational matrix, i.e.
    the solution of x A = e_last, by back substitution in O(n^2).

    Row i of `a` may stop at the diagonal; entries right of it are not read.
    """
    n = len(a)
    x = [Fraction(0)] * n
    for j in range(n - 1, -1, -1):
        if a[j][j] == 0:
            raise ZeroDivisionError("singular triangular matrix")
        rhs = Fraction(j == n - 1) - sum(x[t] * a[t][j] for t in range(j + 1, n))
        x[j] = rhs / a[j][j]
    return x


def rational_interpolate(points, values) -> LaurentPoly:
    """Newton interpolation over the rationals, converted to an integer
    polynomial; ArithmeticError if a coefficient is not an integer."""
    n = len(points)
    divided = [Fraction(v) for v in values]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (
                points[i] - points[i - level]
            )
    # Horner expansion of the Newton form, in place:
    # coeffs <- coeffs * (x - points[i]) + divided[i], whose degree is n-1-i
    coeffs = [Fraction(0)] * n
    for i in reversed(range(n)):
        p = points[i]
        for j in range(n - 1 - i, 0, -1):
            coeffs[j] = coeffs[j - 1] - p * coeffs[j]
        coeffs[0] = divided[i] - p * coeffs[0]
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("interpolated coefficients are not integers")
    return LaurentPoly(c.numerator for c in coeffs)


def verify_detinv_consistency(family: str, m: int, k: int) -> bool:
    """Inverse entries by back-substitution match the submatrix-determinant
    formula B[n,k] = (-1)^(n-k) det(A_{k+i+1,k+j}) / (A_kk ... A_nn)."""
    _check_index(m, k)
    idx = list(_index_range(family, m))
    size = len(idx)
    fwd = [[forward_entry(family, r, c) for c in idx] for r in idx]
    row = size - 1
    col = size - 1 - k
    for q0 in sample_points(3):
        a = [[term_sum(fwd[i][j], q0) for j in range(size)] for i in range(size)]
        if any(a[i][i] == 0 for i in range(size)):
            raise SingularSampleError(f"singular diagonal at q0={q0}")
        last = inverse_last_row(a)
        sub = [
            [a[col + i + 1][col + j] for j in range(row - col)]
            for i in range(row - col)
        ]
        diag = Fraction(1)
        for j in range(col, row + 1):
            diag *= a[j][j]
        sign = -1 if (row - col) % 2 else 1
        if last[col] != sign * fraction_det(sub) / diag:
            return False
    return True


def inverse_pair_sides(family: str, n: int) -> list[tuple[LaurentPoly, LaurentPoly]]:
    """The identity (A B)[i][j] = delta_ij for each j <= i on the indices up
    to n, with column j cleared by the product D of its denominators, as
    LaurentPoly pairs: sum_t A[i][t] num(t, j) (D / den(t, j)) against
    delta_ij D, by schoolbook products, sums and exact quotients.  The claimed
    inverse is read through `coeffs._inverse_entry` at call time, so a fault
    patched into the library reaches this check too."""
    idx = list(_index_range(family, n))
    sides = []
    for j in idx:
        column = {t: coeffs._inverse_entry(family, t, j) for t in idx if t >= j}
        d = ONE
        for _, den in column.values():
            d = d * den
        for i in idx:
            if i < j:
                continue
            lhs = ZERO
            for t in range(j, i + 1):
                num, den = column[t]
                lhs = lhs + forward_entry(family, i, t) * num * d.divexact(den)
            sides.append((lhs, d if i == j else ZERO))
    return sides


def paths_walk(a, b):
    """All monotone paths a -> b, each walked step by step from its set of
    north-step positions, in the order of those positions."""
    a, b = LatticePoint(*a), LatticePoint(*b)
    if b.x < a.x or b.y < a.y:
        return
    east = b.x - a.x
    north = b.y - a.y
    for north_positions in combinations(range(east + north), north):
        chosen = set(north_positions)
        pts = [a]
        x, y = a
        for step in range(east + north):
            if step in chosen:
                y += 1
            else:
                x += 1
            pts.append(LatticePoint(x, y))
        yield tuple(pts)


def all_families(starts, ends) -> list[PathFamily]:
    """Every family of paths starts[i] -> ends[i], vertex-disjoint or not:
    the enumeration with its disjointness test dropped."""
    return list(product(*(paths_walk(a, b) for a, b in zip(starts, ends))))


def vertical_columns(family: PathFamily) -> Counter:
    """Counter mapping x-coordinate to the number of vertical steps there."""
    sigma: Counter = Counter()
    for path in family:
        for p, nxt in zip(path, path[1:]):
            if nxt.x == p.x:
                sigma[p.x] += 1
    return sigma


def starts_vertically(family: PathFamily) -> list[bool]:
    return [len(path) > 1 and path[1].x == path[0].x for path in family]


def path_stats_walk(path) -> PathStats:
    """A path's statistics read off its steps one by one."""
    sigma = vertical_columns((path,))
    opens = starts_vertically((path,))[0]
    return PathStats(
        tuple(sigma.items()),
        sum(c for x, c in sigma.items() if x % 2 == 0),
        opens,
        opens and path[0].x % 2 == 0,
    )


def step_rules(family: str) -> list:
    """The determinant route's step weights rule(x, first, last) for P, Q, G
    and H, one rule per column weighting; a pair's entry sums over the rules."""
    if family == "P":
        def rule(x, first, last):
            return ONE if x % 2 else _Q
        return [rule]
    if family == "Q":
        def rule(x, first, last):
            if x % 2:
                return ONE
            return _Q_PLUS_Q2 if first else _Q2
        return [rule]
    if family == "G":
        def rule_in(x, first, last):
            return _Q if x % 2 else ONE

        def rule_out(x, first, last):
            return ONE if x % 2 else _Q
    elif family == "H":
        def rule_in(x, first, last):
            if first:
                return _Q_PLUS_Q2 if x % 2 else _ONE_PLUS_Q
            return _Q2 if x % 2 else ONE

        def rule_out(x, first, last):
            if first:
                return _ONE_PLUS_Q if x % 2 else _Q_PLUS_Q2
            return ONE if x % 2 else _Q2
    else:
        raise ValueError(f"no step rules for family {family!r}")
    return [rule_in, rule_out]


def pair_sum_by_steps(a, b, family: str) -> LaurentPoly:
    """Single-pair sum a -> b under the family's step rules: per rule, one
    polynomial product per vertical step of every path."""
    total = ZERO
    for rule in step_rules(family):
        for path in paths_walk(a, b):
            w = ONE
            n_steps = len(path) - 1
            for i, (p, nxt) in enumerate(zip(path, path[1:])):
                if nxt.x == p.x:
                    w = w * rule(p.x, i == 0, i == n_steps - 1)
            total = total + w
    return total


def ends_vertically(family: PathFamily) -> list[bool]:
    return [len(path) > 1 and path[-1].x == path[-2].x for path in family]


def _expand_pairs(base: int, pairs) -> dict[int, int]:
    """Exponent -> count map of q^base * prod (q^u + q^v) over (u, v) in
    pairs, merging equal exponents after each factor."""
    exps = {base: 1}
    for u, v in pairs:
        nxt: dict[int, int] = {}
        for e, c in exps.items():
            nxt[e + u] = nxt.get(e + u, 0) + c
            nxt[e + v] = nxt.get(e + v, 0) + c
        exps = nxt
    return exps


def weight_alt(family: PathFamily, scheme: str) -> LaurentPoly:
    """Alternative weight placements; totals agree with the G and H weights."""
    k = len(family)
    sigma = vertical_columns(family)
    if scheme == "G_alt":
        pairs = [(sigma[2 * i + 2], sigma[2 * i + 3]) for i in range(k)]
        return _poly_from_terms(0, _expand_pairs(sigma[0], pairs))
    if scheme == "H_alt":
        fbar = ends_vertically(family)
        pairs = [
            (2 * sigma[2 * i + 2] - int(fbar[i]), 2 * sigma[2 * i + 3]) for i in range(k)
        ]
        return _poly_from_terms(sum(fbar), _expand_pairs(2 * sigma[0], pairs))
    raise ValueError(f"unknown scheme {scheme!r}")


def subset_weight(family: PathFamily, subset: frozenset | set, scheme: str) -> LaurentPoly:
    """Weight of one family for one subset choice, taken literally."""
    chosen = set(subset)
    total = ONE
    for path_idx, path in enumerate(family):
        n_steps = len(path) - 1
        for i, (p, nxt) in enumerate(zip(path, path[1:])):
            if nxt.x != p.x:
                continue
            x = p.x
            if scheme == "G":
                q_weighted = (x % 2 and (x + 1) // 2 in chosen) or (
                    x % 2 == 0 and x // 2 not in chosen
                )
                if q_weighted:
                    total = total * _Q
            elif scheme == "H":
                q_weighted = (x % 2 and (x + 1) // 2 in chosen) or (
                    x % 2 == 0 and x // 2 not in chosen
                )
                if i == 0:
                    total = total * (_Q_PLUS_Q2 if q_weighted else _ONE_PLUS_Q)
                elif q_weighted:
                    total = total * _Q2
            elif scheme == "G_alt":
                q_weighted = (x % 2 and (x - 3) // 2 in chosen) or (
                    x % 2 == 0 and (x - 2) // 2 not in chosen
                )
                if q_weighted:
                    total = total * _Q
            elif scheme == "H_alt":
                into_end = i == n_steps - 1 and x % 2 == 0 and (x - 2) // 2 == path_idx
                if into_end:
                    total = total * (
                        _ONE_PLUS_Q if path_idx in chosen else _Q_PLUS_Q2
                    )
                else:
                    q_weighted = (x % 2 and (x - 3) // 2 in chosen) or (
                        x % 2 == 0 and (x - 2) // 2 not in chosen
                    )
                    if q_weighted:
                        total = total * _Q2
            else:
                raise ValueError(f"unknown scheme {scheme!r}")
    return total


def subset_weight_total(family: PathFamily, scheme: str) -> LaurentPoly:
    """Sum of the literal subset weights over all 2^k subsets."""
    k = len(family)
    total = ZERO
    for r in range(k + 1):
        for subset in combinations(range(k), r):
            total = total + subset_weight(family, frozenset(subset), scheme)
    return total


# ---------------------------------------------------------------------------
# the summation identities in the Laurent ring
# ---------------------------------------------------------------------------

def laurent_s_sum(m: int, n: int) -> LaurentPoly:
    """`identities.s_sum` term by term in the Laurent ring."""
    two = q_int(2, 2)
    total = ZERO
    for k in range(1, n + 1):
        head = q_int(2 * k, 2).divexact(two)
        total = total + head * q_int(k, 2) ** (m - 1) * LaurentPoly.term(
            1, (m + 1) * (n - k))
    return total


def laurent_t_sum(m: int, n: int) -> LaurentPoly:
    """`identities.t_sum` term by term in the Laurent ring."""
    total = ZERO
    for k in range(1, n + 1):
        total = total + q_int(k, 2) ** m * LaurentPoly.term((-1) ** (n - k), m * (n - k))
    return total


def x_poly(n: int, power: int) -> LaurentPoly:
    """([n][n+1]/q^n)^power as a Laurent polynomial in t."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    return (q_int(n, 2) * q_int(n + 1, 2) * LaurentPoly.term(1, -2 * n)) ** power


def _binom_factor(exp: int, sign: int) -> LaurentPoly:
    """1 + sign * t^exp."""
    return from_terms({0: 1, exp: sign})


def _prefix_products(factors: list) -> list:
    """[1, f_0, f_0 f_1, ...]."""
    prefixes = [ONE]
    for factor in factors:
        prefixes.append(prefixes[-1] * factor)
    return prefixes


def _alternating_sum(m: int, n: int, terms) -> LaurentPoly:
    """Sum over (k, term) of (-1)^(m-k) t^(2n(m-k)) term."""
    total = ZERO
    for k, term in terms:
        total = total + LaurentPoly.term((-1) ** (m - k), 2 * n * (m - k)) * term
    return total


def theorem1_sides(which: str, m: int, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Both cleared sides of one Theorem 1 identity as polynomials in t.
    Every leaf is read through the `identities` namespace, so a test that
    patches one there patches this oracle too."""
    family_det, det = identities._family_det, identities.det_route
    xn = _prefix_products([q_int(n, 2) * q_int(n + 1, 2)] * (m + 1))
    if which == "p":
        prefix = _prefix_products([q_int(i, 2) for i in range(1, m + 2)])
        lhs = identities.s_sum(2 * m + 1, n) * q_int(2, 2) * prefix[m + 1]
        rhs = _alternating_sum(m, n, (
            (k, family_det("P", m, m - k).stretch(2) * prefix[k] * xn[k + 1])
            for k in range(m + 1)))
    elif which == "qmn":
        prefix = _prefix_products([_binom_factor(2 * j + 1, -1) for j in range(m + 1)])
        lhs = identities.s_sum(2 * m, n) * q_int(2, 2) * prefix[m + 1]
        rhs = _binom_factor(2 * n + 1, -1) * _alternating_sum(m, n, (
            (k, family_det("Q", m, m - k) * _binom_factor(1, -1) ** (m - k) * xn[k]
             * prefix[k])
            for k in range(m + 1)))
    elif which == "t2mnq":
        prefix = _prefix_products([_binom_factor(2 * j, 1) for j in range(1, m + 1)])
        lhs = identities.t_sum(2 * m, n) * prefix[m]
        rhs = _alternating_sum(m, n, (
            (k, det("G", m, m - k).stretch(2) * xn[k] * prefix[k - 1])
            for k in range(1, m + 1)))
    else:
        prefix = _prefix_products(
            [_binom_factor(1, 1) * _binom_factor(2 * j - 1, 1) for j in range(1, m + 1)])
        lhs = identities.t_sum(2 * m - 1, n) * prefix[m]
        head = LaurentPoly.term((-1) ** (m + n), (2 * m - 1) * n) * det("H", m, m - 1)
        rhs = head + q_int(2 * n + 1, 1) * _alternating_sum(m, n, (
            (k, det("H", m, m - k) * xn[k - 1] * prefix[k - 1])
            for k in range(1, m + 1)))
    return lhs, rhs


def _odd_x(n: int, power: int) -> LaurentPoly:
    """[2n+1]_t t^(-n) x_poly(n, power)."""
    return q_int(2 * n + 1, 1) * LaurentPoly.term(1, -n) * x_poly(n, power)


def _y_series(l: int, m: int, shift: int, gen) -> LaurentPoly:
    """Sum over j = 0..m of gen(j) y^(2j - shift), y = [l]_{t^2} t^(-l)."""
    y = q_int(l, 2) * LaurentPoly.term(1, -l)
    total = ZERO
    for j in range(m + 1):
        term = gen(j)
        if not term.is_zero:
            if 2 * j < shift:
                raise AssertionError("a j = 0 term needs y^(-1)")
            total = total + term * y ** (2 * j - shift)
    return total


def lemma2_sides(which: str, m: int, l: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of one Lemma 2 identity as Laurent polynomials in t, the
    generators read through the `identities` namespace."""
    wide = q_int(2 * l, 2) * LaurentPoly.term(1, -2 * l)
    if which == "diff1":
        lhs = x_poly(l, m + 1) - x_poly(l - 1, m + 1)
        rhs = wide * _y_series(l, m, 0, lambda j: identities.h_spec(
            2 * j - m, m - j + 1, m - j + 1).stretch(2))
    elif which == "inverseq":
        lhs = _odd_x(l, m) - _odd_x(l - 1, m)
        rhs = wide * _y_series(l, m, 1, lambda j: identities.c_poly(m, j))
    elif which == "diff":
        lhs = x_poly(l, m) + x_poly(l - 1, m)
        rhs = _y_series(l, m, 0, lambda j: identities.g_poly(m, j).stretch(2))
    else:
        lhs = _odd_x(l, m - 1) + _odd_x(l - 1, m - 1)
        rhs = _y_series(l, m, 1, lambda j: identities.d_poly(m, j))
    return lhs, rhs


def _lemma1_pieces(a: int, b: int, lp1, qlm1, ql) -> tuple:
    """(amp, ratio) of Lemma 1's two partial fractions, from the values of
    [l+1], q [l-1] and q^l."""
    if (a, b) == (1, 1):
        return (lp1, lp1), (-qlm1, qlm1)
    if (a, b) == (1, 0):
        return (1, lp1), (ql, qlm1)
    return (ql, lp1), (1, qlm1)


def lemma1_sides(a: int, b: int, l: int, order: int) -> list[tuple[LaurentPoly, LaurentPoly]]:
    """Both sides of Lemma 1's series coefficients 0..order, each cleared by
    [2l] [l]^(n+1), as polynomials in q; h_spec is read through the
    `identities` namespace."""
    sides = []
    for n in range(order + 1):
        lhs = ZERO
        for k in range(n // 2 + 1):
            h = identities.h_spec(n - 2 * k, k + a, k + b)
            lhs = lhs + h * Q ** (l * k) * q_int(l) ** (n + 1 - 2 * k)
        rhs = ZERO
        for amp, ratio in _lemma1_pieces(a, b, q_int(l + 1), Q * q_int(l - 1), Q ** l):
            rhs = rhs + amp * ratio ** n
        sides.append((q_int(2 * l) * lhs, q_int(l) ** 2 * rhs))
    return sides


def lemma1_at_point(a: int, b: int, q0, l: int, order: int) -> bool:
    """Lemma 1's series coefficients 0..order, the double h-sum against its
    partial-fraction form, compared in rationals at q = q0 alone; h_spec is
    read through the `identities` namespace."""
    q0 = Fraction(q0)
    if q0 in (0, 1):
        raise SingularSampleError("q0 must avoid 0 and 1")
    lv = term_sum(q_int(l), q0)
    l2v = term_sum(q_int(2 * l), q0)
    if lv == 0 or l2v == 0:
        raise SingularSampleError(f"q-integer vanishes at q0={q0}")
    x = q0 ** l / lv ** 2
    pieces = _lemma1_pieces(a, b, term_sum(q_int(l + 1), q0),
                            q0 * term_sum(q_int(l - 1), q0), q0 ** l)
    for n in range(order + 1):
        lhs = sum((term_sum(identities.h_spec(n - 2 * k, k + a, k + b), q0) * x ** k
                   for k in range(n // 2 + 1)), Fraction(0))
        rhs = lv ** 2 / l2v * sum(amp * ratio ** n / lv ** (n + 1) for amp, ratio in pieces)
        if lhs != rhs:
            return False
    return True
