"""Weighted non-intersecting lattice paths and the determinant shortcut.

Paths take unit steps east or north.  "Non-intersecting" means vertex
disjoint: two paths of a family never share a lattice point.  One entry
point per job: `family_config` places the start and end points of any
family, `family_weight` weighs one path family, `brute_route` sums the
weights over every non-intersecting family and `lgv_det_route` takes the
determinant of single-pair weighted sums, the fast route to the same totals.

Each pair's paths are listed once; families are enumerated by depth-first
placement from those lists, each lattice point of the case one bit and each
path the int mask of its points, so a path is placed iff its mask misses the
mask of the paths already placed.  Every family weight is a polynomial in q
with nonnegative coefficients, weighed as its value at q = X = 2^B, a Python
int (Kronecker substitution, `kron`): a product of path values (P, Q) or of
one pair factor per path and a closing power of X (G, H).  In `family_config`
path i meets only paths i - 1 and i + 1, so the brute route is a chain sum
over the paths (the transfer-matrix method, Stanley, EC1 4.7, with paths as
states): level i lists the non-intersecting pairs of paths i - 1 and i and
carries, for each path i, the summed weight of the placements of paths 0..i
that end in it.  A G or H path i has points only in columns 2i, 2i + 1 and
2i + 2, and is read as its vertical steps there, three counts; pair factor i
reads columns 2i - 1 and 2i, so each level's link reads the counts of one
adjacent pair.  Each distinct path's value is computed once per call and the
sum is read back once as base-X digits.  B covers the product of the pairs'
path counts times 4^k, which bounds the sum's value at q = 1 and so every
coefficient.

The determinant route is `lgv_determinant`, `PolyMatrix.det` of one matrix
of single-pair sums, for every family (start j at x = 2j cannot reach end i
at x <= 2i + 3 when j > i + 1, so it is lower Hessenberg).  Every step
weight depends only on the column's parity and on whether the step opens the
path, so a pair sum a -> b depends only on the family, b - a and a.x mod 2:
`_pair_sum` sums each such translate once per process, from (a.x mod 2, 0),
and every (m, k) matrix reads its entries from that memo.  P's pair sums are
a column DP.  For Q, G and H each pair's paths are streamed once and each
path's statistics read once; like the brute route, the pair sum weighs each
path as an int at q = X = 2^B (Q's weight is the brute route's; G and H sum
an odd-column and an even-column weighting) and reads the sum back once.
B covers 4 times the pair's path count: a path weighs at most 4 at q = 1.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, prod
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .laurent import FAMILIES, LaurentPoly, ONE, ZERO
from .coeffs import PolyMatrix, _check_index
from .kron import digit_bits, read_back


class LatticePoint(NamedTuple):
    x: int
    y: int


LatticePath = tuple[LatticePoint, ...]
PathFamily = tuple[LatticePath, ...]

_Q = LaurentPoly.term(1, 1)


def paths_between(a: LatticePoint, b: LatticePoint) -> Iterator[LatticePath]:
    """All monotone (east/north) paths from a to b, in the lexicographic
    order of their north-step positions."""
    a, b = LatticePoint(*a), LatticePoint(*b)
    if b.x < a.x or b.y < a.y:
        return
    east = b.x - a.x
    north = b.y - a.y
    # rows[y][x]: the grid point (a.x + x, a.y + y), built once per call
    rows = [[LatticePoint(x, y) for x in range(a.x, b.x + 1)]
            for y in range(a.y, b.y + 1)]
    for north_positions in combinations(range(east + north), north):
        pts = [rows[0][0]]
        x = 0
        for y, step in enumerate(north_positions):
            # east along row y up to column step - y, then one step north
            pts += rows[y][x + 1:step - y + 1]
            x = step - y
            pts.append(rows[y + 1][x])
        pts += rows[north][x + 1:]
        yield tuple(pts)


def path_count(a: LatticePoint, b: LatticePoint) -> int:
    """The number of monotone paths a -> b, C(east + north, north); 0 when b
    is unreachable."""
    east, north = b.x - a.x, b.y - a.y
    return comb(east + north, north) if east >= 0 and north >= 0 else 0


def enumerate_nonintersecting(
    starts: Sequence[LatticePoint], ends: Sequence[LatticePoint]
) -> list[PathFamily]:
    """All vertex-disjoint families (starts[i] -> ends[i])."""
    n = len(starts)
    if n != len(ends):
        raise ValueError("starts and ends differ in length")
    choices = [list(paths_between(a, b)) for a, b in zip(starts, ends)]
    # one bit per lattice point, a path's points as one int mask
    bits: dict[LatticePoint, int] = {}
    masks = [[sum(1 << bits.setdefault(p, len(bits)) for p in path) for path in paths]
             for paths in choices]
    families: list[PathFamily] = []

    def place(i: int, used: int, chosen: PathFamily):
        if i == n - 1:  # the last pair completes every family its path fits
            families.extend(chosen + (path,) for path, mask in zip(choices[i], masks[i])
                            if not used & mask)
            return
        for path, mask in zip(choices[i], masks[i]):
            if not used & mask:
                place(i + 1, used | mask, chosen + (path,))

    if n:
        place(0, 0, ())
    else:
        families.append(())
    return families


def single_path_weight_sum(
    a: LatticePoint,
    b: LatticePoint,
    per_column_weights: Mapping[int, LaurentPoly],
) -> LaurentPoly:
    """Sum over monotone paths a -> b of the product of vertical-step column
    weights; horizontal steps weigh 1.  Zero when b is unreachable."""
    a, b = LatticePoint(*a), LatticePoint(*b)
    if b.x < a.x or b.y < a.y:
        return ZERO
    height = b.y - a.y
    # column-by-column dynamic program over arrival heights
    column = [ONE] + [ZERO] * height
    for x in range(a.x, b.x + 1):
        w = per_column_weights.get(x, ONE)
        for h in range(1, height + 1):
            column[h] = column[h] + w * column[h - 1]
        # moving east keeps the height profile
    return column[height]


def lgv_determinant(
    starts: Sequence[LatticePoint],
    ends: Sequence[LatticePoint],
    pair_sum: Callable[[LatticePoint, LatticePoint], LaurentPoly],
) -> LaurentPoly:
    """det over (i, j) of the single-pair sums pair_sum(starts[j], ends[i])."""
    return PolyMatrix.from_rows([pair_sum(a, b) for a in starts] for b in ends).det()


# ---------------------------------------------------------------------------
# start / end configurations
# ---------------------------------------------------------------------------

def family_config(
    family: str, m: int, k: int
) -> tuple[list[LatticePoint], list[LatticePoint]]:
    """Start/end points whose weighted families give the family's (m, k).

    Path i runs from (2i, -2i) to (2i + 3, m - k - 1 - i) for P and Q, and to
    (2i + 2, m - k - 1 - i) for G and H.  (m, k) is checked by the rule of the
    determinant route, so every route accepts the same indices.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _check_index(m, k)
    end_x = 3 if family in ("P", "Q") else 2
    starts = [LatticePoint(2 * i, -2 * i) for i in range(k)]
    ends = [LatticePoint(2 * i + end_x, m - k - 1 - i) for i in range(k)]
    return starts, ends


# ---------------------------------------------------------------------------
# step statistics
# ---------------------------------------------------------------------------

def path_steps(path: LatticePath) -> str:
    """Serialize a path as a string of E/N steps (debug dump format)."""
    return "".join(
        "N" if nxt.x == p.x else "E" for p, nxt in zip(path, path[1:])
    )


def family_steps(family: PathFamily) -> str:
    return " ".join(path_steps(p) for p in family)


class PathStats(NamedTuple):
    """What the family weights read of one path."""
    columns: tuple[tuple[int, int], ...]  # (x, vertical steps in column x)
    even: int  # vertical steps in even columns
    opens: bool  # the first step is vertical
    opens_even: bool  # ... and lies in an even column


def path_stats(path: LatticePath) -> PathStats:
    """One pass over the path: a monotone path climbs each column in one
    run, so a column's vertical steps are the height it gains there."""
    columns = []
    x, y0 = path[0]
    y = y0
    for px, py in path:
        if px != x:
            if y > y0:
                columns.append((x, y - y0))
            x, y0 = px, py
        y = py
    if y > y0:
        columns.append((x, y - y0))
    opens = len(path) > 1 and path[1].x == path[0].x
    return PathStats(
        tuple(columns),
        sum(c for x, c in columns if x % 2 == 0),
        opens,
        opens and path[0].x % 2 == 0,
    )


# ---------------------------------------------------------------------------
# family weights and the brute-force route
# ---------------------------------------------------------------------------
# Every family weight is weighed as its value at q = X = 2^B (`kron`): X^e is
# 1 << B e, and no polynomial is built until the sum is read back once.

def _path_value(family: str, path: LatticePath, bits: int):
    """What a family weight at X = 2^bits reads of one path.

    P: X^even.  Q: (1+X)^opens_even X^(2 even - opens_even), q^2 per
    even-column vertical step with the path-opening one weighing q + q^2.
    G and H: (c0, c1, c2, opens), the vertical steps in the path's three
    columns x, x + 1 and x + 2 (x = path[0].x) as exponents in bits (doubled
    for H), and for H whether the path opens with a vertical step; a path
    that reaches a fourth column raises ValueError.
    """
    s = path_stats(path)
    if family == "P":
        return 1 << bits * s.even
    if family == "Q":
        return ((1 << bits) + 1) ** s.opens_even << bits * (2 * s.even - s.opens_even)
    scale = bits if family == "G" else 2 * bits
    x0 = path[0].x
    if path[-1].x > x0 + 2:
        raise ValueError(f"a {family} path spans at most three columns: {path_steps(path)}")
    counts = [0, 0, 0]
    for x, c in s.columns:
        counts[x - x0] = scale * c
    return (*counts, family == "H" and s.opens)


def _pair_factor(odd: int, even: int, opens: bool, bits: int) -> int:
    """Pair factor i of a G or H weight at X = 2^bits, odd = s(2i - 1) and
    even = s(2i) in bits: (X^odd + X^(even - opens)) (1+X)^opens.  Of paths
    i - 1 and i, with `_path_value`s prev (all zeros for i = 0) and cur, it
    is _pair_factor(prev[1], prev[2] + cur[0], cur[3], bits)."""
    factor = (1 << odd) + (1 << even - bits * opens)
    return factor + (factor << bits) if opens else factor


def family_weight(family: str, fam: PathFamily) -> LaurentPoly:
    """Weight of one path family under the P, Q, G or H scheme, its paths
    placed as `family_config` places them (path i starts in column 2i; a G
    or H path that reaches a fourth column raises ValueError).  The product
    of its paths' `_path_value`s (P, Q), or of its pair factors times the
    closing X^s(2k), the last path's third count (G, H): the closed product
    forms of the subset-summed weights.  At q = 1 it weighs 1 (P), at most
    2^k (Q), 2^k (G) or at most 4^k (H), which sizes the digits read back."""
    bits = digit_bits(1 << 2 * len(fam))
    values = [_path_value(family, path, bits) for path in fam]
    if family in ("P", "Q"):
        return read_back(prod(values), 0, bits)
    weight, prev = 1, (0, 0, 0)
    for cur in values:
        weight *= _pair_factor(prev[1], prev[2] + cur[0], cur[3], bits)
        prev = cur
    return read_back(weight << prev[2], 0, bits)


def brute_route(family: str, m: int, k: int) -> LaurentPoly:
    """Family polynomial as the weighted count of non-intersecting families.

    Path i meets only paths i - 1 and i + 1, so a family is non-intersecting
    iff each adjacent pair is, and the sum is a chain over the paths: after
    level i, sums[p] is the summed weight, through link i, of the placements
    of paths 0..i that end in path i = p.  Level i adds sums[prev] times
    link i over the non-intersecting pairs (prev, cur) of pairs i - 1 and i.
    Link i is `_path_value(cur)` for P and Q.  For G and H it is pair factor
    i, `_pair_factor(prev[1], prev[2] + cur[0], cur[3])` of the two paths'
    column counts (prev all zeros for i = 0), and the closing X^s(2k) is
    path k - 1's third count.  Each distinct path's value is computed once
    per call and the sum read back once; B covers the product of the pairs'
    path counts times 4^k, at least the sum at q = 1.
    """
    starts, ends = family_config(family, m, k)
    if not k:
        return ONE
    bits = digit_bits(prod(path_count(a, b) for a, b in zip(starts, ends)) << 2 * k)
    pair_factors = family in ("G", "H")
    values = {path: _path_value(family, path, bits) for path in paths_between(starts[0], ends[0])}
    sums = {path: _pair_factor(0, value[0], value[3], bits) if pair_factors
            else value for path, value in values.items()}
    for i in range(1, k):
        level: dict[LatticePath, int] = {}
        for prev, cur in enumerate_nonintersecting(starts[i - 1:i + 1], ends[i - 1:i + 1]):
            if pair_factors:
                if cur not in values:
                    values[cur] = _path_value(family, cur, bits)
                p, c = values[prev], values[cur]
                level[cur] = level.get(cur, 0) + sums[prev] * _pair_factor(
                    p[1], p[2] + c[0], c[3], bits)
            else:  # link i is value(cur), a factor of each term: multiplied in once below
                level[cur] = level.get(cur, 0) + sums[prev]
        sums = level if pair_factors else {
            cur: s * _path_value(family, cur, bits) for cur, s in level.items()}
    if pair_factors:
        total = sum(s << values[path][2] for path, s in sums.items())
    else:
        total = sum(sums.values())
    return read_back(total, 0, bits)


# ---------------------------------------------------------------------------
# determinant route
# ---------------------------------------------------------------------------

def _pair_value(family: str, path: LatticePath, north: int, bits: int) -> int:
    """lgv_det_route's Q, G or H weight of one path climbing `north` steps,
    at q = X = 2^bits; odd = vertical steps in odd columns.

    Q: the brute route's `_path_value`.  G: X^odd + X^even, one weighting
    with q per odd-column vertical step and one with q per even-column one.
    H: (X^(2 odd - [opens in an odd column]) + X^(2 even - opens_even))
    (1+X)^opens, q^2 per vertical step in the weighting's column parity and
    an opening step weighing q + q^2 in that parity and 1 + q in the other.
    """
    if family == "Q":
        return _path_value("Q", path, bits)
    s = path_stats(path)
    odd = north - s.even
    if family == "G":
        return (1 << bits * odd) + (1 << bits * s.even)
    value = ((1 << bits * (2 * odd - (s.opens and not s.opens_even)))
             + (1 << bits * (2 * s.even - s.opens_even)))
    return value + (value << bits) if s.opens else value


def _pair_sum_with_steps(a: LatticePoint, b: LatticePoint, family: str) -> LaurentPoly:
    """Single-pair sum a -> b of the Q, G or H path weights of lgv_det_route:
    the pair's paths are streamed once, each weighed as an int at X = 2^B
    (`_pair_value`), and the sum read back once.  A path weighs at most 4
    at q = 1, which sizes the digits.  Zero when b is unreachable."""
    bits = digit_bits(path_count(a, b) << 2)
    total = sum(_pair_value(family, path, b.y - a.y, bits) for path in paths_between(a, b))
    return read_back(total, 0, bits)


@lru_cache(maxsize=None)
def _pair_sum(family: str, dx: int, dy: int, x0: int) -> LaurentPoly:
    """Single-pair sum of lgv_det_route from (x0, 0) to (x0 + dx, dy), with
    x0 in {0, 1}: the sum a -> b is _pair_sum(family, b.x - a.x, b.y - a.y,
    a.x % 2), since moving a pair by (2s, t) changes no step weight."""
    a, b = LatticePoint(x0, 0), LatticePoint(x0 + dx, dy)
    if family == "P":
        weights = {x: _Q for x in range(0, x0 + dx + 1, 2)}
        return single_path_weight_sum(a, b, weights)
    return _pair_sum_with_steps(a, b, family)


def lgv_det_route(family: str, m: int, k: int) -> LaurentPoly:
    """Family polynomial via the determinant of single-pair weighted sums."""
    starts, ends = family_config(family, m, k)
    return lgv_determinant(
        starts, ends, lambda a, b: _pair_sum(family, b.x - a.x, b.y - a.y, a.x % 2)
    )
