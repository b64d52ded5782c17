"""Weighted non-intersecting lattice paths and the determinant shortcut.

Paths take unit steps east or north.  "Non-intersecting" means vertex
disjoint: two paths of a family never share a lattice point.  One entry
point per job: `family_config` places the start and end points of any
family, `family_weight` weighs one path family, `brute_route` sums the
weights over every non-intersecting family and `lgv_det_route` takes the
determinant of single-pair weighted sums, the fast route to the same totals.

Each pair's paths are listed once; families are enumerated by depth-first
placement from those lists with on-the-fly disjointness pruning.  Every
family weight is (1+q)^a times a sum of powers q^b, read from step
statistics summed over the family's paths; each path's statistics are
computed once per `PathStatsCache`.  The brute route tallies all families in
one (a, b) counter and builds one polynomial per distinct a at the end.

The determinant route takes `PolyMatrix.det` of one matrix of single-pair
sums for every family (start j at x = 2j cannot reach end i at x <= 2i + 3
when j > i + 1, so it is lower Hessenberg).  P's pair sums are a column DP.
For Q, G and H every step weight depends only on the column's parity and on
whether the step opens the path, so each pair's paths are listed once, each
path's statistics read once, and its (1+q)^a q^b terms (two for G and H,
one per column weighting) tallied into one polynomial per pair.
"""
from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import combinations
from typing import Iterator, Mapping, NamedTuple, Sequence

from .laurent import FAMILIES, LaurentPoly, ONE, ZERO
from .coeffs import PolyMatrix, _check_index


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
    families: list[PathFamily] = []

    def place(i: int, used: set[LatticePoint], chosen: list[LatticePath]):
        if i == n:
            families.append(tuple(chosen))
            return
        for path in choices[i]:
            if not used.isdisjoint(path):
                continue
            used.update(path)
            chosen.append(path)
            place(i + 1, used, chosen)
            chosen.pop()
            used.difference_update(path)

    place(0, set(), [])
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
    per_column_weights: Mapping[int, LaurentPoly],
) -> LaurentPoly:
    """det over (i, j) of the single-pair sums starts[j] -> ends[i]."""
    n = len(starts)
    rows = [
        [single_path_weight_sum(starts[j], ends[i], per_column_weights) for j in range(n)]
        for i in range(n)
    ]
    return PolyMatrix.from_rows(rows).det()


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


class PathStatsCache(dict):
    """path -> PathStats, each path's statistics computed on first lookup."""

    def __missing__(self, path: LatticePath) -> PathStats:
        stats = self[path] = path_stats(path)
        return stats


def _column_sums(stats: Sequence[PathStats]) -> dict[int, int]:
    """Vertical steps per column of a family, summed over its paths.  A column
    without vertical steps is absent, so read columns with .get(x, 0)."""
    sigma: dict[int, int] = {}
    for path in stats:
        for x, c in path.columns:
            sigma[x] = sigma.get(x, 0) + c
    return sigma


# ---------------------------------------------------------------------------
# family weights
# ---------------------------------------------------------------------------
# A family's weight is (1+q)^a * sum_b count_b q^b; the term functions return
# a and the exponent -> count map, and family_weight and brute_route build the
# polynomial from them.

WeightTerms = tuple[int, dict[int, int]]


def _expand_pairs(base: int, pairs: Sequence[tuple[int, int]]) -> dict[int, int]:
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


def _poly_from_terms(a: int, exps: Mapping[int, int]) -> LaurentPoly:
    return _ONE_PLUS_Q ** a * LaurentPoly.from_terms(exps)


def _poly_from_tally(tally: Mapping[tuple[int, int], int]) -> LaurentPoly:
    """Sum of count * (1+q)^a q^b over the tally's (a, b) -> count entries,
    one polynomial per distinct a."""
    by_a: dict[int, dict[int, int]] = {}
    for (a, b), c in tally.items():
        by_a.setdefault(a, {})[b] = c
    return sum((_poly_from_terms(a, exps) for a, exps in by_a.items()), ZERO)


def _terms_P(family: PathFamily, cache: PathStatsCache) -> WeightTerms:
    """q per vertical step in an even column."""
    return 0, {sum(cache[path].even for path in family): 1}


def _terms_Q(family: PathFamily, cache: PathStatsCache) -> WeightTerms:
    """q^2 per vertical step in an even column, with the path-opening
    vertical step weighing q^2 + q = q(1+q) instead."""
    stats = [cache[path] for path in family]
    e = sum(path.even for path in stats)
    f = sum(path.opens_even for path in stats)
    return f, {2 * e - f: 1}


def _terms_G(family: PathFamily, cache: PathStatsCache) -> WeightTerms:
    """Closed product form of the subset-summed weights for the G family."""
    k = len(family)
    sigma = _column_sums([cache[path] for path in family])
    pairs = [(sigma.get(2 * i - 1, 0), sigma.get(2 * i, 0)) for i in range(k)]
    return 0, _expand_pairs(sigma.get(2 * k, 0), pairs)


def _terms_H(family: PathFamily, cache: PathStatsCache) -> WeightTerms:
    """Closed product form of the subset-summed weights for the H family."""
    k = len(family)
    stats = [cache[path] for path in family]
    sigma = _column_sums(stats)
    pairs = [
        (2 * sigma.get(2 * i - 1, 0), 2 * sigma.get(2 * i, 0) - stats[i].opens)
        for i in range(k)
    ]
    f = sum(path.opens for path in stats)
    return f, _expand_pairs(2 * sigma.get(2 * k, 0), pairs)


_FAMILY_TERMS = {"P": _terms_P, "Q": _terms_Q, "G": _terms_G, "H": _terms_H}


def family_weight(family: str, fam: PathFamily) -> LaurentPoly:
    """Weight of one path family under the P, Q, G or H scheme."""
    return _poly_from_terms(*_FAMILY_TERMS[family](fam, PathStatsCache()))


# ---------------------------------------------------------------------------
# brute-force and determinant routes per family
# ---------------------------------------------------------------------------

def brute_route(family: str, m: int, k: int) -> LaurentPoly:
    """Family polynomial as the weighted count of non-intersecting families.

    Each path's statistics are computed once per call, and every family's
    weight terms (1+q)^a q^b are tallied in one (a, b) counter; one
    polynomial per distinct a is built at the end."""
    starts, ends = family_config(family, m, k)
    terms = _FAMILY_TERMS[family]
    cache = PathStatsCache()
    tally: Counter = Counter()
    for fam in enumerate_nonintersecting(starts, ends):
        a, exps = terms(fam, cache)
        for b, c in exps.items():
            tally[a, b] += c
    return _poly_from_tally(tally)


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


def lgv_det_route(family: str, m: int, k: int) -> LaurentPoly:
    """Family polynomial via the determinant of single-pair weighted sums."""
    starts, ends = family_config(family, m, k)
    if family == "P":
        weights = {x: _Q for x in range(0, 2 * k + 4, 2)}
        pair_sum = partial(single_path_weight_sum, per_column_weights=weights)
    else:
        pair_sum = partial(_pair_sum_with_steps, path_terms=_PAIR_TERMS[family])
    return PolyMatrix.from_rows([pair_sum(a, b) for a in starts] for b in ends).det()
