"""The four coefficient families P, Q, G, H by determinant and inversion routes.

One entry point per route: `det_route(family, m, k)` reads the family
determinant off the trailing minors of one forward submatrix per row
(`_family_det`), and `invert_route` / `invert_route_row` recover the same
polynomials from the inverse of the forward lower-triangular matrix, whose
entries `forward_entry` builds from the h/c/g/d generators.  Every matrix the
package builds is lower Hessenberg, so its one determinant routine is the
first-column recurrence `PolyMatrix.minors`, run on Python ints at q = 2^(B/2)
and at q = -2^(B/2) (two-point Kronecker substitution, `kron`), with 2^(B-1)
above the largest trailing permanent of the entry coefficient 1-norms
(`_minors_bound`), which bounds every coefficient of every minor.  Each
family's prefactor and denominator of the claimed inverse entry live in
`_inverse_factors` alone, which the inverse-pair check and the boundary sum
read through `_inverse_entry`, and no route reads.
Each entry of the inverse pair, and the boundary sum, is cleared by the
product of the claimed-inverse denominators its sum reads and proved at one
point on ints (`kron.prove`).  The invert route evaluates each forward entry
of the trailing block it needs at the integer sample points 0, 1, -1, 2, -2,
... by integer Horner (`LaurentPoly.__call__`), solves only the last row of
that block's adjugate by fraction-free back substitution, which is each
family polynomial's value up to sign (Cramer's rule), splits the values at
+-x into those of the polynomial's even and odd parts E and O at x^2 (as
`kron.pack_pm` splits a polynomial), and interpolates E and O apart over the
integers on the degree bound that the minors recurrence gives on
forward-entry degrees: each passes through its own degree bound + 1 exact
values, which fix it (interpolation completeness).
"""
from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import eq

from .homog import c_poly, d_poly, g_poly, h_spec
from .kron import digit_bits, pack_pm, prefix_products, prove, read_back_pm
from .laurent import FAMILIES, LaurentPoly, ONE, Q, q_fact


class BadIndexError(ValueError):
    """Raised for (m, k) outside a family's defined range."""


def _hessenberg_minors(a: list[list[int]]) -> list[int]:
    """`PolyMatrix.minors`' first-column recurrence on an integer lower-
    Hessenberg matrix, in Horner form: its trailing minors, smallest first.
    Rows may stop at the superdiagonal."""
    n = len(a)
    minors = [1]
    for r in range(n - 1, -1, -1):
        acc = a[n - 1][r]
        for i in range(n - 2, r - 1, -1):
            acc = a[i][r] * minors[n - 1 - i] - a[i][i + 1] * acc
        minors.append(acc)
    return minors


def _minors_bound(norms: list[list[int]]) -> int:
    """Bound on |c| for every coefficient c of every trailing minor of a
    lower-Hessenberg polynomial matrix M whose entry coefficient 1-norms are
    `norms` (N[i][j] = ||M[i][j]||_1): the largest trailing permanent of N.

    The 1-norm of a product is at most the product of the 1-norms, so each
    coefficient of a minor is at most its 1-norm, which is at most the sum
    over permutations of prod_i ||M[i][sigma(i)]||_1: the permanent of N on
    the minor's block.  In the recurrence of `PolyMatrix.minors` the term of
    row i carries i - r superdiagonal factors and the sign (-1)^(i-r), so
    negating N's superdiagonal makes every term positive: that matrix's
    trailing minors are the trailing permanents of N.
    """
    return max(_hessenberg_minors(
        [[-v if j == i + 1 else v for j, v in enumerate(row)]
         for i, row in enumerate(norms)]
    ))


class PolyMatrix:
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[LaurentPoly, ...], ...]):
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("matrix must be square")
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "PolyMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def norms(self) -> list[list[int]]:
        """The coefficient 1-norm of every entry: `_minors_bound`'s input."""
        return [[sum(map(abs, e.coeffs)) for e in row] for row in self.entries]

    def minors(self) -> list[LaurentPoly]:
        """Trailing principal minors of a lower-Hessenberg matrix, smallest
        first: minors()[s] is the determinant of the last s rows and columns.

        Expand the trailing block from r = n - s along its first column.
        Deleting row i and column r leaves rows r..i-1, which meet columns
        r+1..i in a lower-triangular block with the superdiagonal
        M[r][r+1] ... M[i-1][i] on its diagonal and vanish to its right, so

            minors[s] = sum over i = r..n-1 of
                        (-1)^(i-r) M[i][r] M[r][r+1]...M[i-1][i] minors[n-1-i].

        The recurrence runs on integers (Kronecker substitution, in Harvey's
        two-point form): row i is divided by q^e_i, e_i its lowest exponent,
        which leaves polynomials in q, every entry is evaluated at q = X and
        at q = -X, X = 2^(B/2) (`kron.pack_pm`), and the recurrence runs
        once per sign on ints of half the bits that one point 2^B would
        need.  Each minor then comes out as its values at X and -X; its
        even and odd coefficients are read back from their sum and
        difference as signed base-2^B digits (`kron.read_back_pm`) and its
        rows' e_i added to every exponent.  The digits are exact while every
        coefficient c of every trailing minor has |c| < 2^(B-1), which B
        secures: see `_minors_bound`.  One pack pass per entry and two runs
        of O(n^2) integer multiplies in all.
        """
        m, n = self.entries, self.dim
        if any(m[i][j] for i in range(n) for j in range(i + 2, n)):
            raise ValueError("matrix is not lower Hessenberg")
        bits = digit_bits(_minors_bound(self.norms()))  # B
        shifts = [min((e.min_exp for e in row if e), default=0) for row in m]
        # the recurrence reads no entry right of the superdiagonal
        packed = [[pack_pm(e, e_i, bits) for e in row[:i + 2]]
                  for i, (row, e_i) in enumerate(zip(m, shifts))]
        plus, minus = (_hessenberg_minors([[v[sign] for v in row] for row in packed])
                       for sign in (0, 1))
        return [read_back_pm(p, v, sum(shifts[n - s:]), bits)
                for s, (p, v) in enumerate(zip(plus, minus))]

    def det(self) -> LaurentPoly:
        """Exact determinant of a lower-Hessenberg matrix."""
        return self.minors()[-1]


# ---------------------------------------------------------------------------
# determinant route
# ---------------------------------------------------------------------------

def _check_index(m: int, k: int):
    if m < 0 or k < 0:
        raise BadIndexError(f"negative index (m={m}, k={k})")
    if k >= m and k > 0:
        raise BadIndexError(f"k must satisfy 0 <= k < m (got m={m}, k={k})")


@lru_cache(maxsize=None)
def _family_row(family: str, m: int) -> tuple[LaurentPoly, ...]:
    """D(m, k) for k = 0..m: the (m, k) family matrix is the trailing k x k
    block of the (m, m) one, so one row is the trailing minors of one matrix."""
    return tuple(family_matrix(family, m, m).minors())


@lru_cache(maxsize=None)
def _family_det(family: str, m: int, k: int) -> LaurentPoly:
    """det of family_matrix(family, m, k), i.e. of A[r+1..m, r..m-1] with
    r = m - k and A[i][j] = forward_entry(family, i, j).

    Internal: also defined at k == m, where the first determinant column,
    forward_entry(family, i, 0) for i >= 1, vanishes identically for every
    family (needed by the summation identities).
    """
    # The row's minors hold k <= 1 too; going through det() keeps the det
    # route calling PolyMatrix.det, the boundary the benchmark's tracer wraps.
    if k <= 1:
        return family_matrix(family, m, k).det()
    return _family_row(family, m)[k]


def det_route(family: str, m: int, k: int) -> LaurentPoly:
    _check_index(m, k)
    return _family_det(family, m, k)


# ---------------------------------------------------------------------------
# forward matrices and their claimed inverses
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def forward_entry(family: str, k: int, m: int) -> LaurentPoly:
    """Entry (k, m) of the forward lower-triangular matrix of a family.

    The P matrix is indexed from 0, the Q/G/H matrices from 1.
    """
    if family == "P":
        return h_spec(2 * m - k, k - m + 1, k - m + 1)
    if family == "Q":
        return c_poly(k, m)
    if family == "G":
        return g_poly(k, m)
    if family == "H":
        return d_poly(k, m)
    raise ValueError(f"unknown family {family!r}")


def family_matrix(family: str, m: int, k: int) -> PolyMatrix:
    """The k x k submatrix of the forward matrix whose determinant is the
    family polynomial (m, k): entry (i, j) is forward entry (m-k+i+1, m-k+j).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    base = m - k
    return PolyMatrix.from_rows(
        [forward_entry(family, base + i + 1, base + j) for j in range(k)]
        for i in range(k)
    )


def _index_range(family: str, n: int) -> range:
    return range(0, n + 1) if family == "P" else range(1, n + 1)


def _lower_triangle(entry, family: str, idx: range) -> list[list]:
    """The lower-triangular matrix of entry(family, r, c) over the indices r,
    c in `idx`, row r stopping at c = r.  With `forward_entry` it is (a
    trailing block of) the forward matrix A, with `_inverse_entry` the
    claimed inverse B."""
    return [[entry(family, r, c) for c in idx[: i + 1]] for i, r in enumerate(idx)]


def _inverse_factors(family: str, k: int, m: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Prefactor and denominator of the claimed inverse entry (k, m), m <= k:

        B[k][m] = (-1)^(k-m) * prefactor * D(k, k-m) / denominator.

    prefactor * forward_entry(family, j, j) over j = m..k is the denominator.
    """
    n = k - m + 1
    if family == "P":
        return q_fact(m), q_fact(k + 1)
    if family == "Q":
        den = [ONE - LaurentPoly.term(1, 2 * k - 2 * i + 1) for i in range(n)]
        return (ONE - Q) ** n, prod(den, start=ONE)
    if family == "G":
        return ONE, prod([ONE + LaurentPoly.term(1, k - i) for i in range(n)], start=ONE)
    if family == "H":
        den = [ONE + LaurentPoly.term(1, 2 * k - 2 * i - 1) for i in range(n)]
        return ONE, prod(den, start=(ONE + Q) ** n)
    raise ValueError(f"unknown family {family!r}")


def _inverse_entry(family: str, k: int, m: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Signed numerator and denominator of the claimed inverse entry (k, m)."""
    prefactor, denominator = _inverse_factors(family, k, m)
    numerator = prefactor * _family_det(family, k, k - m)
    return (-numerator if (k - m) % 2 else numerator), denominator


def sample_points(count: int) -> list[int]:
    """The first `count` of 0, 1, -1, 2, -2, ...: the integers at which the
    invert route evaluates its block, each x > 0 next to -x, so that the
    values split into even and odd parts (`_even_odd_values`)."""
    return [(i + 1) // 2 if i % 2 else -(i // 2) for i in range(count)]


def _cleared_sums(r, rows: list[list], column: list[tuple]) -> tuple[list, list]:
    """Each row's sum_t row[t] num_t / den_t against one claimed-inverse
    column of (num_t, den_t) pairs, over the t that the row reaches, cleared
    by the product of the den_t it reads, in the pass r (see `kron`), and
    the column's prefix products of the den, so that a row of length l is
    cleared by prefix[l].  The rows hold pass values, t from the column's
    first entry.  One running product per row, acc <- acc den_t +
    row[t] num_t prefix[t], multiplies each summand by the den after it, so
    nothing is divided."""
    dens = [r.poly(den) for _, den in column]
    prefix = prefix_products(r.one, dens)
    cleared = [r.poly(num) * p for (num, _), p in zip(column, prefix)]
    sums = []
    for row in rows:
        acc = r.zero
        for a, c, den in zip(row, cleared, dens):
            acc = acc * den + a * c
        sums.append(acc)
    return sums, prefix


def _inverse_pair_sides(r, fwd: list[list[LaurentPoly]], inv: list[list[tuple]]) -> tuple:
    """Both sides of (A B)[i][j] = delta_ij for every j <= i in the pass r,
    from the forward rows `fwd` and the claimed inverse rows `inv` of
    (numerator, denominator) pairs, as `_lower_triangle` builds them: entry
    (i, j) cleared by the product D(i, j) of den(t, j) over t = j..i,
    sum_t A[i][t] num(t, j) (D(i, j) / den(t, j)) over t = j..i against
    delta_ij D(j, j)."""
    a = [[r.poly(e) for e in row] for row in fwd]
    lhs, rhs = [], []
    for j in range(len(inv)):
        sums, prefix = _cleared_sums(r, [row[j:] for row in a[j:]], [row[j] for row in inv[j:]])
        lhs += sums
        rhs += [prefix[1]] + [r.zero] * (len(sums) - 1)
    return lhs, rhs


def verify_inverse_pair(family: str, n: int) -> bool:
    """Prove forward * claimed-inverse == identity on the indices up to n.

    Both factors are lower triangular, so only the entries on or below the
    diagonal are compared, each after clearing the denominators its sum
    reads (`_inverse_pair_sides`); no denominator is the zero polynomial, so
    the cleared identity is the rational one.  All of them are proved at one
    point (`kron.prove`).
    """
    idx = _index_range(family, n)
    fwd = _lower_triangle(forward_entry, family, idx)
    inv = _lower_triangle(_inverse_entry, family, idx)
    lhs, rhs = prove(lambda r: _inverse_pair_sides(r, fwd, inv))
    return all(map(eq, lhs, rhs))


# ---------------------------------------------------------------------------
# polynomial extraction via inversion + interpolation (the "invert" route)
# ---------------------------------------------------------------------------

def _adjugate_last_row(a: list[list[int]]) -> list[int]:
    """Last row y of adj(A) for a lower-triangular integer matrix A, i.e.
    y A = det(A) e_last, by fraction-free back substitution (Horner form):

        y[n-1] = 1,
        y[j]   = -sum over t > j of y[t] A[t][j] A[j+1][j+1] ... A[t-1][t-1].

    y[j] is the inverse's x[j] times A[j][j] ... A[n-1][n-1]; the diagonal
    enters only through those running products, and nothing is divided, so
    a singular A needs no guard.  Rows of `a` may stop at the diagonal.
    """
    n = len(a)
    y = [1] * n
    for j in range(n - 2, -1, -1):
        acc = y[n - 1] * a[n - 1][j]
        for t in range(n - 2, j, -1):
            acc = acc * a[t][t] + y[t] * a[t][j]
        y[j] = -acc
    return y


def interpolate_poly(points: list[int], values: list[int]) -> LaurentPoly:
    """The polynomial of degree < len(points) through the integer points
    (points[i], values[i]), by Newton interpolation over the integers.

    Newton's basis polynomials (x - x_0)...(x - x_(i-1)) are monic with
    integer coefficients, so the interpolant has integer coefficients iff
    every divided difference is an integer; each is then an exact quotient.
    Raises ArithmeticError on a remainder: the values are those of no
    integer polynomial of degree < len(points).
    """
    n = len(points)
    divided = list(values)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            step, remainder = divmod(divided[i] - divided[i - 1],
                                     points[i] - points[i - level])
            if remainder:
                raise ArithmeticError("the values are those of no integer polynomial")
            divided[i] = step
    # Horner expansion of the Newton form, in place:
    # coeffs <- coeffs * (x - points[i]) + divided[i], whose degree is n-1-i
    coeffs = [0] * n
    for i in reversed(range(n)):
        x = points[i]
        for j in range(n - 1 - i, 0, -1):
            coeffs[j] = coeffs[j - 1] - x * coeffs[j]
        coeffs[0] = divided[i] - x * coeffs[0]
    return LaurentPoly(coeffs)


@lru_cache(maxsize=None)
def _invert_degree_bound(family: str, m: int, k: int) -> int:
    """Degree bound for the family polynomial (m, k), 0 <= k < m, from the
    first-column recurrence of `PolyMatrix.minors` read on forward-entry
    degrees (a sum of products has degree at most the largest sum of factor
    degrees):

        bound(m, 0) = 0,
        bound(m, k) = max over i = r+1..m with A[i][r] != 0 of
                      deg A[i][r] + deg A[r+1][r+1] + ... + deg A[i-1][i-1]
                      + bound(m, m-i),

    with r = m - k.  No determinant is formed, so the invert route stays
    independent of the det route.
    """
    if k == 0:
        return 0
    r = m - k
    best = diag = 0
    for i in range(r + 1, m + 1):
        entry = forward_entry(family, i, r)
        if entry:
            best = max(best, entry.max_exp + diag + _invert_degree_bound(family, m, m - i))
        diag += forward_entry(family, i, i).max_exp
    return best


def _even_odd_values(values: list[int]) -> tuple[list[int], list[int]]:
    """Split the values of an integer polynomial f = E(q^2) + q O(q^2) at the
    `sample_points` 0, 1, -1, ..., h, -h: E at y = x^2 for x = 0..h, E(x^2) =
    (f(x) + f(-x)) / 2, and O at y = x^2 for x = 1..h, O(x^2) = (f(x) -
    f(-x)) / 2x, the two-point split of `kron.pack_pm`.  Every halving and
    division is exact for such an f; raises ArithmeticError on a remainder."""
    even, odd = [values[0]], []
    for x, plus, minus in zip(range(1, len(values)), values[1::2], values[2::2]):
        e, r = divmod(plus + minus, 2)
        o, s = divmod(plus - minus, 2 * x)
        if r or s:
            raise ArithmeticError("the values are those of no integer polynomial")
        even.append(e)
        odd.append(o)
    return even, odd


def invert_route_row(
    family: str, m: int, ks: tuple[int, ...] | None = None
) -> dict[int, LaurentPoly]:
    """The family polynomials (m, k) for k in `ks` (default: every k < m),
    recovered from the inverse B of the forward matrix A by interpolation
    over the integers.  Each k is checked as every route checks it, before
    any work; an empty `ks` gives {}.

    By Cramer's rule, (-1)^k B[m][m-k] * A[m-k][m-k] ... A[m][m] is
    det A[m-k+1..m][m-k..m-1] = D(m, k); for k <= K = max(ks), B[m][m-k]
    is also an entry of the inverse of A's trailing block on m-K..m, the one
    part built.  Each block entry is evaluated at each integer sample point
    0, 1, -1, ..., h, -h by integer Horner, so the route runs on ints end to
    end; entry j of the last row of the block's adjugate
    (`_adjugate_last_row`) is B[m][j] * A[j][j] ... A[m][m], so (-1)^k times
    its entry for column m-k is D(m, k) at the point, found with no
    division.  Its values split into those of its even and odd parts E and
    O, D(m, k) = E(q^2) + q O(q^2), at y = x^2 (`_even_odd_values`), and E
    and O are interpolated apart, each on half as many points of smaller
    values.  h = ceil(d / 2), d the largest degree bound over `ks`, so the
    route evaluates at d + 1 points (d + 2 for odd d).  Neither the det
    route, its minors recurrence nor `_inverse_factors` is read.

    The result is a proof: bound_k (`_invert_degree_bound`) bounds the
    degree of D(m, k), so E has degree <= floor(bound_k / 2) and O degree
    < ceil(bound_k / 2).  Each is the one polynomial of its degree bound
    through its first bound + 1 exact values (y = 0..floor(bound_k / 2)^2
    for E, y = 1..ceil(bound_k / 2)^2 for O), and its integer coefficients
    make every divided difference an exact quotient.
    """
    if m < 1:
        raise BadIndexError("m must be at least 1")
    ks = range(0, m) if ks is None else ks
    for k in ks:
        _check_index(m, k)
    if not ks:
        return {}
    bounds = {k: _invert_degree_bound(family, m, k) for k in ks}
    half = (max(bounds.values()) + 1) // 2
    points = sample_points(2 * half + 1)
    squares = [x * x for x in range(half + 1)]
    fwd = _lower_triangle(forward_entry, family, range(m - max(ks), m + 1))
    rows = [_adjugate_last_row([[e(x) for e in row] for row in fwd]) for x in points]
    polys = {}
    for k, bound in bounds.items():
        # row[-1 - k] is the entry for column m - k: (-1)^k D(m, k)
        even, odd = _even_odd_values([(-1) ** k * row[-1 - k] for row in rows])
        e = interpolate_poly(squares[:bound // 2 + 1], even[:bound // 2 + 1])
        o = interpolate_poly(squares[1:(bound + 1) // 2 + 1], odd[:(bound + 1) // 2])
        polys[k] = e.stretch(2) + LaurentPoly(o.stretch(2).coeffs, 2 * o.min_exp + 1)
    return polys


def invert_route(family: str, m: int, k: int) -> LaurentPoly:
    _check_index(m, k)
    if m == 0:
        return ONE
    return invert_route_row(family, m, (k,))[k]


# ---------------------------------------------------------------------------
# vanishing boundary sum
# ---------------------------------------------------------------------------

def verify_dstr_vanishing(m: int) -> bool:
    """Prove that the boundary sum of the H family vanishes: for m >= 2 it is
    the entry (m, 1) of A B, the d-values of forward row m against the
    claimed inverse's column 1 (`_inverse_entry`), cleared as the inverse
    pair clears it (`_cleared_sums`) and proved at one point."""
    row = [d_poly(m, j) for j in range(1, m + 1)]
    column = [_inverse_entry("H", j, 1) for j in range(1, m + 1)]

    def sides(r):
        (total,), _ = _cleared_sums(r, [[r.poly(d) for d in row]], column)
        return total, r.zero

    lhs, rhs = prove(sides)
    return lhs == rhs
