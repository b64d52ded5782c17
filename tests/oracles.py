"""What the tests compare the library against, and only the tests use.

Slow reference implementations: a dense Laplace determinant, the det(A+B)
column-subset expansion behind the G/H entrywise split, the
submatrix-determinant formula for triangular inverses, and the literal subset
weights and alternative placements of the G/H lattice-path model.  Literal walks of the lattice-path
layer: path listing step by step, step statistics read off each step, and
the determinant route's single-pair sums as one polynomial product per
vertical step under its step rules.  Reference values: the tabled
polynomials and the panel weights of G(4,2) and H(4,2).
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from qfaulhaber.coeffs import (
    PolyMatrix,
    SingularSampleError,
    _check_index,
    _index_range,
    forward_entry,
    inverse_last_row,
    sample_points,
)
from qfaulhaber.laurent import LaurentPoly, ONE, Q, ZERO
from qfaulhaber.lgv import (
    _ONE_PLUS_Q,
    _Q,
    LatticePoint,
    PathFamily,
    PathStats,
    _expand_pairs,
    _poly_from_terms,
)

_Q2 = LaurentPoly.term(1, 2)
_Q_PLUS_Q2 = _Q + _Q2


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
        a = [[fwd[i][j](q0) for j in range(size)] for i in range(size)]
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
    """The determinant route's step weights rule(x, first, last) for Q, G and
    H, one rule per column weighting; a pair's entry sums over the rules."""
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
