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
int (Kronecker substitution): each path's value is computed once per call,
each family's weight is a product of those values (P, Q) or of one factor
per column pair (G, H), and the brute route sums the ints and reads the sum
back once as base-X digits.  B covers len(families) * 4^k, which bounds the
sum's value at q = 1 and so every coefficient.

The determinant route is `lgv_determinant`, `PolyMatrix.det` of one matrix
of single-pair sums, for every family (start j at x = 2j cannot reach end i
at x <= 2i + 3 when j > i + 1, so it is lower Hessenberg).  Every step
weight depends only on the column's parity and on whether the step opens the
path, so a pair sum a -> b depends only on the family, b - a and a.x mod 2:
`_pair_sum` sums each such translate once per process, from (a.x mod 2, 0),
and every (m, k) matrix reads its entries from that memo.  P's pair sums are
a column DP.  For Q, G and H each pair's paths are listed once, each path's
statistics read once, and its (1+q)^a q^b terms (two for G and H, one per
column weighting) tallied into one polynomial per pair.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, repeat
from math import prod
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .laurent import FAMILIES, LaurentPoly, ONE, ZERO
from .coeffs import PolyMatrix, _check_index, _digit_width, _from_power_of_two


class LatticePoint(NamedTuple):
    x: int
    y: int


LatticePath = tuple[LatticePoint, ...]
PathFamily = tuple[LatticePath, ...]

_Q = LaurentPoly.term(1, 1)
_ONE_PLUS_Q = ONE + _Q


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
# Every family weight is a polynomial in q with nonnegative coefficients, so
# it is weighed as its value at q = X = 2^B, a Python int (Kronecker
# substitution): X^e is 1 << B e, and no polynomial is built until the sum
# over families is read back once.

def _path_value(family: str, path: LatticePath, bits: int):
    """What a family weight at X = 2^bits reads of one path.

    P: X^even.  Q: (1+X)^opens_even X^(2 even - opens_even), q^2 per
    even-column vertical step with the path-opening one weighing q + q^2.
    G and H: each column's vertical steps as an exponent in bits (doubled
    for H), and for H whether the path opens with a vertical step.
    """
    s = path_stats(path)
    if family == "P":
        return 1 << bits * s.even
    if family == "Q":
        return ((1 << bits) + 1) ** s.opens_even << bits * (2 * s.even - s.opens_even)
    scale = bits if family == "G" else 2 * bits
    return tuple((x, scale * c) for x, c in s.columns), family == "H" and s.opens


def _pair_product(values: Sequence, bits: int) -> int:
    """A G or H family's weight at X = 2^bits from its paths' `_path_value`s:
    with s(x) the family's vertical steps in column x (s(-1) = 0), G weighs
    X^s(2k) times, over paths i = 0..k-1, the pair factor X^s(2i-1) +
    X^s(2i); H weighs X^2s(2k) times the pair factor
    (X^2s(2i-1) + X^(2s(2i) - opens_i)) (1+X)^opens_i.  These are the closed
    product forms of the subset-summed weights."""
    sigma: dict[int, int] = {}
    for columns, _ in values:
        for x, shift in columns:
            sigma[x] = sigma.get(x, 0) + shift
    weight = 1 << sigma.get(2 * len(values), 0)
    for i, (_, opens) in enumerate(values):
        factor = (1 << sigma.get(2 * i - 1, 0)) + (1 << sigma.get(2 * i, 0) - bits * opens)
        weight *= factor + (factor << bits) if opens else factor
    return weight


def _family_values(family: str, path_values: Iterable[Sequence], bits: int) -> Iterator[int]:
    """Each family's weight at X = 2^bits, from the `_path_value`s of its
    paths: their product for P and Q, `_pair_product` for G and H.  At q = 1
    a family weighs 1 (P), at most 2^k (Q), 2^k (G) or at most 4^k (H)."""
    if family in ("P", "Q"):
        return map(prod, path_values)
    return map(_pair_product, path_values, repeat(bits))


def _weight_sum(family: str, families: Sequence[PathFamily], k: int) -> LaurentPoly:
    """Sum of the weights of `families`, each of k paths.

    Every coefficient of the sum is at most its value at q = 1, at most
    len(families) * 4^k, which sizes the digits read back."""
    width = _digit_width(len(families) << 2 * k)
    bits = 8 * width
    # each pair's paths are listed once, so a path object's id names it
    # (and, unlike a tuple's hash, costs nothing to compute)
    paths = {id(path): path for fam in families for path in fam}
    value = {key: _path_value(family, path, bits) for key, path in paths.items()}.__getitem__
    # every family's path values, k at a time from one stream
    stream = map(value, map(id, chain.from_iterable(families)))
    path_values = zip(*[stream] * k) if k else [()] * len(families)
    return _from_power_of_two(sum(_family_values(family, path_values, bits)), 0, width)


def family_weight(family: str, fam: PathFamily) -> LaurentPoly:
    """Weight of one path family under the P, Q, G or H scheme; path i
    starts in column 2i, as `family_config` places it."""
    return _weight_sum(family, [fam], len(fam))


def brute_route(family: str, m: int, k: int) -> LaurentPoly:
    """Family polynomial as the weighted count of non-intersecting families,
    each path's value computed once per call and the sum read back once."""
    return _weight_sum(family, enumerate_nonintersecting(*family_config(family, m, k)), k)


# ---------------------------------------------------------------------------
# determinant route
# ---------------------------------------------------------------------------
# Single-pair step weights of lgv_det_route.  Each is (1+q)^a q^b and reads
# only the column's parity and whether the step opens the path, so a path's
# weight follows from its PathStats; odd = vertical steps in odd columns.
# G and H weigh each pair by an odd-column and an even-column scheme, summed:
# one path gives one (a, b) term per scheme.

def _pair_terms_Q(s: PathStats, odd: int) -> tuple[tuple[int, int], ...]:
    """q^2 per even-column vertical step; an opening one weighs q + q^2."""
    return ((s.opens_even, 2 * s.even - s.opens_even),)


def _pair_terms_G(s: PathStats, odd: int) -> tuple[tuple[int, int], ...]:
    """q per odd-column vertical step in one weighting, q per even-column
    one in the other."""
    return ((0, odd), (0, s.even))


def _pair_terms_H(s: PathStats, odd: int) -> tuple[tuple[int, int], ...]:
    """q^2 per vertical step in the scheme's column parity; an opening step
    weighs q + q^2 in that parity and 1 + q in the other."""
    return (
        (s.opens, 2 * odd - (s.opens and not s.opens_even)),
        (s.opens, 2 * s.even - s.opens_even),
    )


_PAIR_TERMS = {"Q": _pair_terms_Q, "G": _pair_terms_G, "H": _pair_terms_H}


def _poly_from_terms(a: int, exps: Mapping[int, int]) -> LaurentPoly:
    return _ONE_PLUS_Q ** a * LaurentPoly.from_terms(exps)


def _poly_from_tally(tally: Mapping[tuple[int, int], int]) -> LaurentPoly:
    """Sum of count * (1+q)^a q^b over the tally's (a, b) -> count entries,
    one polynomial per distinct a."""
    by_a: dict[int, dict[int, int]] = {}
    for (a, b), c in tally.items():
        by_a.setdefault(a, {})[b] = c
    return sum((_poly_from_terms(a, exps) for a, exps in by_a.items()), ZERO)


def _pair_sum_with_steps(a: LatticePoint, b: LatticePoint, path_terms) -> LaurentPoly:
    """Single-pair sum a -> b of the weights path_terms(stats, odd) gives
    each path: the pair's paths are listed once, their (a, b) terms tallied,
    and one polynomial built per distinct a.  Zero when b is unreachable."""
    north = b.y - a.y
    tally: Counter = Counter()
    for path in paths_between(a, b):
        stats = path_stats(path)
        for term in path_terms(stats, north - stats.even):
            tally[term] += 1
    return _poly_from_tally(tally)


@lru_cache(maxsize=None)
def _pair_sum(family: str, dx: int, dy: int, x0: int) -> LaurentPoly:
    """Single-pair sum of lgv_det_route from (x0, 0) to (x0 + dx, dy), with
    x0 in {0, 1}: the sum a -> b is _pair_sum(family, b.x - a.x, b.y - a.y,
    a.x % 2), since moving a pair by (2s, t) changes no step weight."""
    a, b = LatticePoint(x0, 0), LatticePoint(x0 + dx, dy)
    if family == "P":
        weights = {x: _Q for x in range(0, x0 + dx + 1, 2)}
        return single_path_weight_sum(a, b, weights)
    return _pair_sum_with_steps(a, b, _PAIR_TERMS[family])


def lgv_det_route(family: str, m: int, k: int) -> LaurentPoly:
    """Family polynomial via the determinant of single-pair weighted sums."""
    starts, ends = family_config(family, m, k)
    return lgv_determinant(
        starts, ends, lambda a, b: _pair_sum(family, b.x - a.x, b.y - a.y, a.x % 2)
    )
