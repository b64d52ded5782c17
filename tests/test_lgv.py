"""Weighted non-intersecting lattice paths: enumeration, weight schemes,
reference panel values and agreement with the determinant route."""
from collections import Counter
from functools import partial
from math import comb

import pytest

from qfaulhaber.coeffs import BadIndexError, det_route, invert_route
from qfaulhaber import lgv
from qfaulhaber.laurent import LaurentPoly, ONE, Q, ZERO
from qfaulhaber.lgv import (
    LatticePoint,
    brute_route,
    enumerate_nonintersecting,
    family_config,
    family_steps,
    family_weight,
    lgv_det_route,
    lgv_determinant,
    path_count,
    path_steps,
    paths_between,
    single_path_weight_sum,
)
from oracles import (
    C,
    all_families,
    G_4_2_PANELS,
    H_4_2_PANELS,
    _expand_pairs,
    _poly_from_terms,
    ends_vertically,
    pair_sum_by_steps,
    path_stats_walk,
    paths_walk,
    starts_vertically,
    subset_weight,
    subset_weight_total,
    vertical_columns,
    weight_alt,
)


def make_path(start, steps):
    pts = [LatticePoint(*start)]
    x, y = start
    for s in steps:
        if s == "N":
            y += 1
        else:
            x += 1
        pts.append(LatticePoint(x, y))
    return tuple(pts)


# Reference four-path family used throughout: family_config("G", 7, 4) with
# the step words NENE / NNENE / NENENN / ENNENNN.
REFERENCE_STEPS = ("NENE", "NNENE", "NENENN", "ENNENNN")


# A family of family_config("G", 9, 8): eight paths, so 2^8 subset terms per weight.
WIDE_STEPS = ("EE", "ENE", "NEEN", "NENNE", "NNNNEE", "ENNNNNE", "NNNENNEN", "NNENNENNN")


def spy_polynomial_arithmetic(monkeypatch):
    """Record every LaurentPoly add and multiply in the returned list."""
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        method = getattr(LaurentPoly, name)
        monkeypatch.setattr(LaurentPoly, name, lambda a, b, method=method, name=name: (
            calls.append(name) or method(a, b)))
    assert (ONE + Q) * Q and calls  # the spy sees calls
    calls.clear()
    return calls


def reference_enumeration(starts, ends):
    """Depth-first placement that re-lists each pair's paths per partial family."""
    families = []

    def place(i, used, chosen):
        if i == len(starts):
            families.append(tuple(chosen))
            return
        for path in paths_between(starts[i], ends[i]):
            if any(p in used for p in path):
                continue
            used.update(path)
            chosen.append(path)
            place(i + 1, used, chosen)
            chosen.pop()
            used.difference_update(path)

    place(0, set(), [])
    return families


def literal_terms(family):
    """Weight terms of P, Q, G and H read off a walk of the whole family."""
    k = len(family)
    sigma = vertical_columns(family)  # a Counter: column -1 reads 0
    flags = starts_vertically(family)
    e = sum(c for x, c in sigma.items() if x % 2 == 0)
    f = sum(1 for path, opens in zip(family, flags) if opens and path[0].x % 2 == 0)
    g_pairs = [(sigma[2 * i - 1], sigma[2 * i]) for i in range(k)]
    h_pairs = [(2 * sigma[2 * i - 1], 2 * sigma[2 * i] - int(flags[i])) for i in range(k)]
    return {
        "P": (0, {e: 1}),
        "Q": (f, {2 * e - f: 1}),
        "G": (0, _expand_pairs(sigma[2 * k], g_pairs)),
        "H": (sum(flags), _expand_pairs(2 * sigma[2 * k], h_pairs)),
    }


@pytest.fixture
def reference_family():
    starts, ends = family_config("G", 7, 4)
    fam = tuple(make_path(s, w) for s, w in zip(starts, REFERENCE_STEPS))
    for path, end in zip(fam, ends):
        assert path[-1] == end
    return fam


class TestPaths:
    def test_counts_are_binomial(self):
        from math import comb

        a = LatticePoint(0, 0)
        for dx in range(4):
            for dy in range(4):
                got = len(list(paths_between(a, LatticePoint(dx, dy))))
                assert got == comb(dx + dy, dy)

    def test_unreachable_is_empty(self):
        assert list(paths_between(LatticePoint(0, 0), LatticePoint(-1, 0))) == []
        assert list(paths_between(LatticePoint(0, 0), LatticePoint(0, -1))) == []

    def test_path_count_counts_the_listed_paths(self):
        # every end point around two starts, unreachable ones included (one
        # or both coordinates behind the start), counts what is listed
        for a in (LatticePoint(0, 0), LatticePoint(3, -2)):
            for dx in range(-3, 5):
                for dy in range(-3, 5):
                    b = LatticePoint(a.x + dx, a.y + dy)
                    assert path_count(a, b) == len(list(paths_between(a, b))), (a, b)

    def test_step_serialization_roundtrip(self):
        p = make_path((1, -1), "NNEEN")
        assert path_steps(p) == "NNEEN"
        assert p[0] == LatticePoint(1, -1) and p[-1] == LatticePoint(3, 2)

    def test_paths_are_monotone(self):
        for p in paths_between(LatticePoint(0, 0), LatticePoint(2, 2)):
            for a, b in zip(p, p[1:]):
                assert (b.x - a.x, b.y - a.y) in ((1, 0), (0, 1))

    def test_same_paths_in_same_order_as_step_walk(self):
        # every end point around two starts: unreachable ones, the start
        # itself, the same row, the same column and the open quadrant
        for a in (LatticePoint(0, 0), LatticePoint(3, -2)):
            for dx in range(-1, 5):
                for dy in range(-1, 5):
                    b = (a.x + dx, a.y + dy)
                    assert list(paths_between(a, b)) == list(paths_walk(a, b)), (a, b)
        assert list(paths_between((2, 1), (2, 1))) == [((2, 1),)]
        assert list(paths_between((0, 0), (3, 0))) == [((0, 0), (1, 0), (2, 0), (3, 0))]
        assert list(paths_between((0, 0), (0, 2))) == [((0, 0), (0, 1), (0, 2))]
        assert list(paths_between((0, 0), (-1, 3))) == []


class TestEnumeration:
    def test_vertex_disjointness(self):
        starts, ends = family_config("G", 4, 2)
        for fam in enumerate_nonintersecting(starts, ends):
            seen = set()
            for path in fam:
                assert not seen.intersection(path)
                seen.update(path)

    def test_family_count_4_2(self):
        starts, ends = family_config("G", 4, 2)
        assert len(enumerate_nonintersecting(starts, ends)) == 17

    def test_single_path_case(self):
        starts, ends = family_config("G", 3, 1)
        fams = enumerate_nonintersecting(starts, ends)
        assert len(fams) == len(list(paths_between(starts[0], ends[0])))

    @pytest.mark.parametrize("family", "PG")  # the two end-point geometries
    def test_same_families_in_same_order_as_reference(self, family):
        for m in range(2, 6):
            for k in range(1, m):
                starts, ends = family_config(family, m, k)
                assert enumerate_nonintersecting(starts, ends) == reference_enumeration(
                    starts, ends
                ), (family, m, k)

    @pytest.mark.parametrize("starts, ends, shared, at_end", [
        # two paths crossing at (1, 1), inside both
        ([(0, 1), (1, 0)], [(1, 2), (2, 1)], (1, 1), False),
        # path 0 running through (1, 0), where path 1 ends
        ([(0, 0), (1, -1)], [(1, 2), (1, 0)], (1, 0), True),
    ], ids=["interior", "end-point"])
    def test_drops_families_sharing_one_vertex(self, starts, ends, shared, at_end):
        starts = [LatticePoint(*p) for p in starts]
        ends = [LatticePoint(*p) for p in ends]
        everything = all_families(starts, ends)
        touching = [fam for fam in everything if set(fam[0]) & set(fam[1]) == {shared}]
        assert touching and (shared in starts + ends) == at_end
        disjoint = [fam for fam in everything if not set(fam[0]) & set(fam[1])]
        fams = enumerate_nonintersecting(starts, ends)
        assert fams == disjoint == reference_enumeration(starts, ends)
        assert not set(touching) & set(fams)
        # the unit-weight LGV determinant counts the same families
        unit = partial(single_path_weight_sum, per_column_weights={})
        assert lgv_determinant(starts, ends, unit) == LaurentPoly([len(fams)])

    def test_lgv_determinant_counts_families(self):
        # with unit weights the determinant counts non-intersecting families
        for m, k in ((3, 2), (4, 2), (4, 3), (5, 2)):
            starts, ends = family_config("G", m, k)
            count = len(enumerate_nonintersecting(starts, ends))
            unit = partial(single_path_weight_sum, per_column_weights={})
            assert lgv_determinant(starts, ends, unit) == LaurentPoly([count])

    def test_single_pair_weight_dp_matches_brute(self):
        a, b = LatticePoint(0, 0), LatticePoint(3, 3)
        weights = {0: Q, 1: ONE + Q, 2: Q * Q}
        total = ZERO
        for p in paths_between(a, b):
            w = ONE
            for u, v in zip(p, p[1:]):
                if v.x == u.x:
                    w = w * weights.get(u.x, ONE)
            total = total + w
        assert single_path_weight_sum(a, b, weights) == total

    def test_unreachable_pair_weight_is_zero(self):
        assert single_path_weight_sum((2, 0), (0, 0), {}) == ZERO
        assert single_path_weight_sum((0, 2), (1, 0), {}) == ZERO


class TestConfigs:
    def test_pq_points(self):
        for family in "PQ":
            starts, ends = family_config(family, 7, 4)
            assert starts == [LatticePoint(2 * i, -2 * i) for i in range(4)]
            assert ends == [LatticePoint(2 * i + 3, 7 - 4 - i - 1) for i in range(4)]

    def test_gh_points(self):
        for family in "GH":
            starts, ends = family_config(family, 7, 4)
            assert starts == [LatticePoint(2 * i, -2 * i) for i in range(4)]
            assert ends == [LatticePoint(2 * i + 2, 7 - 4 - 1 - i) for i in range(4)]

    def test_k_zero_empty(self):
        for family in "PQGH":
            assert family_config(family, 5, 0) == ([], [])

    def test_bad_indices(self):
        with pytest.raises(BadIndexError):
            family_config("P", 3, 3)
        with pytest.raises(BadIndexError):
            family_config("G", 3, 4)
        # k = 0 does not skip the check
        with pytest.raises(BadIndexError):
            family_config("Q", -3, 0)
        with pytest.raises(BadIndexError):
            family_config("H", -2, 0)

    def test_unknown_family(self):
        for route in (family_config, brute_route, lgv_det_route):
            with pytest.raises(ValueError, match="unknown family"):
                route("X", 4, 2)


class TestReferenceFamily:
    def test_vertical_step_columns(self, reference_family):
        assert dict(vertical_columns(reference_family)) == {
            0: 1, 1: 1, 2: 2, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3,
        }

    def test_opening_and_closing_flags(self, reference_family):
        assert starts_vertically(reference_family) == [True, True, True, False]
        assert ends_vertically(reference_family) == [False, False, True, True]

    def test_serialization(self, reference_family):
        assert family_steps(reference_family) == " ".join(REFERENCE_STEPS)

    def test_single_subset_weights(self, reference_family):
        assert subset_weight(reference_family, {1, 2}, "G") == LaurentPoly.term(1, 8)
        expected = LaurentPoly.term(1, 14) * C(1, 1, 0) * C(1, 1) ** 2
        assert subset_weight(reference_family, {1, 2}, "H") == expected

    def test_product_forms_match_subset_totals(self, reference_family):
        fam = reference_family
        assert family_weight("G", fam) == subset_weight_total(fam, "G")
        assert family_weight("H", fam) == subset_weight_total(fam, "H")
        assert weight_alt(fam, "G_alt") == subset_weight_total(fam, "G_alt")
        assert weight_alt(fam, "H_alt") == subset_weight_total(fam, "H_alt")

    def test_reference_weights(self, reference_family):
        fam = reference_family
        assert family_weight("G", fam) == 2 * C(1, 3, 3, 1) * LaurentPoly.term(1, 6)
        assert family_weight("H", fam) == C(
            1, 6, 16, 26, 30, 26, 16, 6, 1
        ) * LaurentPoly.term(1, 11)


class TestPathStatistics:
    def test_per_path_sums_match_literal_walk(self):
        last_column_used = False
        for family in "PG":  # the two end-point geometries
            for m in range(2, 6):
                for k in range(1, m):
                    for fam in enumerate_nonintersecting(*family_config(family, m, k)):
                        stats = [lgv.path_stats(path) for path in fam]
                        columns = Counter()
                        for s in stats:
                            columns.update(dict(s.columns))
                        assert columns == vertical_columns(fam)
                        assert [s.opens for s in stats] == starts_vertically(fam)
                        expected = literal_terms(fam)
                        for name in "PQGH" if family == "G" else "PQ":
                            assert family_weight(name, fam) == _poly_from_terms(
                                *expected[name]), (name, fam)
                        if family == "G" and vertical_columns(fam)[2 * k]:
                            last_column_used = True
                        if family == "P":
                            # every P-placed path i ends in column 2i + 3, a
                            # fourth column, which no G or H weight reads
                            assert all(path[-1].x == 2 * i + 3 for i, path in enumerate(fam))
                            for name in "GH":
                                with pytest.raises(ValueError, match="three columns"):
                                    family_weight(name, fam)
        # A G/H family with a vertical step in column 2k tells column -1
        # (no steps) apart from a wrapped-around read of column 2k.
        assert last_column_used

    def test_path_stats_match_step_walk(self):
        # every path of every pair of the two end-point geometries, m <= 7
        pairs = set()
        for family in "PG":
            for m in range(2, 8):
                for k in range(1, m):
                    starts, ends = family_config(family, m, k)
                    pairs.update((a, b) for a in starts for b in ends)
        checked = 0
        for a, b in sorted(pairs):
            for path in paths_between(a, b):
                assert lgv.path_stats(path) == path_stats_walk(path), path
                checked += 1
        assert checked > 1000

    def test_reference_family_statistics(self, reference_family):
        stats = [lgv.path_stats(path) for path in reference_family]
        assert [s.columns for s in stats] == [
            ((0, 1), (1, 1)),
            ((2, 2), (3, 1)),
            ((4, 1), (5, 1), (6, 2)),
            ((7, 2), (8, 3)),
        ]
        assert [s.even for s in stats] == [1, 2, 3, 3]
        assert [s.opens for s in stats] == [True, True, True, False]
        assert [s.opens_even for s in stats] == [True, True, True, False]
        odd_start = lgv.path_stats(make_path((1, 0), "NEN"))
        assert odd_start == (((1, 1), (2, 1)), 1, True, False)

    @pytest.mark.parametrize("family", "PQGH")
    @pytest.mark.usefixtures("cold_memos")
    def test_brute_route_reads_each_path_once(self, family, monkeypatch):
        # every path of every family is read, and no path twice, though each
        # path i > 0 is listed again at levels i and i + 1 of the chain
        m, k = 6, 3
        fams = enumerate_nonintersecting(*family_config(family, m, k))
        distinct = {path for fam in fams for path in fam}
        calls = []
        path_stats = lgv.path_stats

        def counting_path_stats(path):
            calls.append(path)
            return path_stats(path)

        monkeypatch.setattr(lgv, "path_stats", counting_path_stats)
        assert brute_route(family, m, k) == det_route(family, m, k)
        assert len(calls) == len(set(calls)) < len(fams) * k
        assert distinct <= set(calls)


class TestPairSums:
    @pytest.mark.parametrize("family", "QGH")
    def test_pair_sums_match_step_products(self, family):
        # every start/end pair of every configuration with m <= 8, against
        # one polynomial product per vertical step under the step rules; the
        # configurations start in even columns only, so pairs starting in an
        # odd column are added to tell the opening-step parities apart
        pairs = set()
        for m in range(2, 9):
            for k in range(1, m):
                starts, ends = family_config(family, m, k)
                pairs.update((a, b) for a in starts for b in ends)
        for a in (LatticePoint(1, 0), LatticePoint(3, -2)):
            pairs.update((a, LatticePoint(a.x + dx, a.y + dy))
                         for dx in range(-1, 5) for dy in range(-1, 5))
        nonzero = 0
        for a, b in sorted(pairs):
            got = lgv._pair_sum_with_steps(a, b, family)
            assert got == pair_sum_by_steps(a, b, family), (family, a, b)
            nonzero += not got.is_zero
        assert 0 < nonzero < len(pairs)  # reachable and unreachable pairs

    @pytest.mark.parametrize("family", "PQGH")
    def test_lgv_det_route_matches_det_route(self, family):
        for m in range(1, 13):
            for k in range(0, m):
                assert lgv_det_route(family, m, k) == det_route(family, m, k), (
                    family, m, k)

    @pytest.mark.parametrize("family", "PQGH")
    @pytest.mark.usefixtures("cold_memos")
    def test_memo_matches_step_products(self, family):
        # every start/end pair of every configuration with m <= 8, as placed,
        # moved to an odd start column, and moved by (2s, t); the moved
        # copies read the memo entries of the pairs they translate
        pairs = set()
        for m in range(2, 9):
            for k in range(1, m):
                starts, ends = family_config(family, m, k)
                pairs.update((a, b) for a in starts for b in ends)
        keys = set()
        nonzero = 0
        for a, b in sorted(pairs):
            for s, t in ((0, 0), (1, 0), (2, 3), (-4, -1), (7, 5)):
                a2 = LatticePoint(a.x + s, a.y + t)
                b2 = LatticePoint(b.x + s, b.y + t)
                key = (family, b2.x - a2.x, b2.y - a2.y, a2.x % 2)
                got = lgv._pair_sum(*key)
                assert got == pair_sum_by_steps(a2, b2, family), (family, a2, b2)
                keys.add(key)
                nonzero += not got.is_zero
        assert 0 < nonzero < 5 * len(pairs)  # reachable and unreachable pairs
        assert lgv._pair_sum.cache_info().currsize == len(keys) < 5 * len(pairs)

    @pytest.mark.parametrize("family", "PQGH")
    def test_lgv_det_route_matches_det_route(self, family):
        for m in range(1, 13):
            for k in range(0, m):
                assert lgv_det_route(family, m, k) == det_route(family, m, k), (
                    family, m, k)

    @pytest.mark.parametrize("family", "GH")
    @pytest.mark.usefixtures("cold_memos")
    def test_each_pair_listed_once_and_each_path_read_once(self, family, monkeypatch):
        # G and H place their paths alike, so the second family of the two
        # reads every translate's tally from the memo and lists nothing; no
        # path's `path_stats` is read, the tally counts the points
        m, k = 7, 4
        twin = {"G": "H", "H": "G"}[family]
        pairs, yielded = [], []
        paths_between = lgv.paths_between

        def counting_paths_between(a, b):
            pairs.append((a, b))
            for path in paths_between(a, b):
                yielded.append(path)
                yield path

        def unread(path):
            raise AssertionError("lgv_det_route read path_stats")

        monkeypatch.setattr(lgv, "paths_between", counting_paths_between)
        monkeypatch.setattr(lgv, "path_stats", unread)
        assert lgv_det_route(family, m, k) == det_route(family, m, k)
        starts, ends = family_config(family, m, k)
        # each pair is summed as its translate from (a.x mod 2, 0)
        translates = [
            ((a.x % 2, 0), (b.x - a.x + a.x % 2, b.y - a.y)) for a in starts for b in ends
        ]
        assert len(pairs) == k * k
        assert sorted(pairs) == sorted(translates)
        assert len(yielded) == len(set(yielded)) > k * k
        listed = len(yielded)
        assert lgv_det_route(twin, m, k) == det_route(twin, m, k)
        assert len(pairs) == k * k and len(yielded) == listed
        # a repeated call reads every pair sum from the memo
        for name in (family, twin):
            assert lgv_det_route(name, m, k) == det_route(name, m, k)
        assert len(pairs) == k * k and len(yielded) == listed

    @pytest.mark.usefixtures("cold_memos")
    def test_paths_listed_at_m_11(self, monkeypatch):
        # the route-crosscheck row: every k of m = 11 lists Q's translates
        # once (4,080 paths) and the G and H translates once for both
        # families (2,045 paths); a route that listed per family again
        # would list 2,045 more
        listed = Counter()
        paths_between = lgv.paths_between

        def counting_paths_between(a, b):
            for path in paths_between(a, b):
                listed[family] += 1
                yield path

        monkeypatch.setattr(lgv, "paths_between", counting_paths_between)
        for family in "PQGH":
            for k in range(11):
                assert lgv_det_route(family, 11, k) == det_route(family, 11, k), (family, k)
        assert listed == {"Q": 4080, "G": 2045}
        assert sum(listed.values()) == 6125

    @pytest.mark.parametrize("family", "PQGH")
    @pytest.mark.usefixtures("cold_memos")
    def test_step_weight_fault_fails_the_crosscheck(self, family, monkeypatch):
        # fault-matrix row: one more unit in every class weight of the pair
        # sums (Q, G, H), one per path of the class, or in P's even-column
        # step weight, changes every k >= 1 of lgv_det_route at m <= 4 but
        # P(2, 1), whose one path has no vertical step for a step weight to
        # act on
        if family == "P":
            monkeypatch.setattr(lgv, "_Q", Q + ONE)
        else:
            class_value = lgv._class_value
            monkeypatch.setattr(lgv, "_class_value", lambda *args: class_value(*args) + 1)
        unchanged = [(m, k) for m in range(2, 5) for k in range(1, m)
                     if lgv_det_route(family, m, k) == det_route(family, m, k)]
        assert unchanged == ([(2, 1)] if family == "P" else [])


class TestIntegerWeights:
    # brute_route weighs each family as its value at q = 2^B and reads the
    # sum back once, as signed base-2^B digits (kron.read_back)

    @pytest.mark.parametrize("family", "PQGH")
    def test_digits_hold_every_coefficient(self, family, monkeypatch):
        # each family weighs at most 4^k at q = 1 (P exactly 1, Q at most
        # 2^k, G exactly 2^k), so a sum over N families has no coefficient
        # above N * 4^k, and the route's B leaves every one below 2^(B-1)
        seen = []
        read = lgv.read_back

        def spy(value, shift, bits):
            seen.append(bits)
            return read(value, shift, bits)

        monkeypatch.setattr(lgv, "read_back", spy)
        cap = {"P": 1, "Q": 2, "G": 2, "H": 4}[family]
        for m in range(2, 7):
            for k in range(1, m):
                fams = enumerate_nonintersecting(*family_config(family, m, k))
                for fam in fams:
                    w = family_weight(family, fam)
                    assert min(w.coeffs) >= 0 and sum(w.coeffs) <= cap ** k, fam
                    if family in "PG":
                        assert sum(w.coeffs) == cap ** k, fam
                seen.clear()
                total = brute_route(family, m, k)
                assert len(seen) == 1
                assert max(total.coeffs) <= len(fams) << 2 * k
                assert max(total.coeffs) < 2 ** (seen[0] - 1), (m, k)
                # the digits hold the bound itself, not just these coefficients
                assert len(fams) << 2 * k < 2 ** (seen[0] - 1), (m, k)

    @pytest.mark.parametrize("family", "PQGH")
    @pytest.mark.usefixtures("cold_memos")
    def test_narrow_digits_fail_the_crosscheck(self, family, monkeypatch):
        # fault-matrix row: 8-bit digits hold coefficients below 2^7 only, so
        # brute_route goes wrong exactly where det_route has a larger one,
        # which every family has at m = 6 (12, 14, 14 and 16 bits)
        monkeypatch.setattr(lgv, "digit_bits", lambda bound: 8)
        cases = [(m, k) for m in range(2, 7) for k in range(1, m)]
        wide = [(m, k) for m, k in cases if max(det_route(family, m, k).coeffs) >= 2 ** 7]
        wrong = [(m, k) for m, k in cases if brute_route(family, m, k) != det_route(family, m, k)]
        assert wrong == wide
        assert any(m == 6 for m, k in wrong)
        largest = max(max(det_route(family, 6, k).coeffs) for k in range(1, 6))
        assert largest.bit_length() == {"P": 12, "Q": 14, "G": 14, "H": 16}[family]

    @pytest.mark.parametrize("family", "PQGH")
    def test_adds_and_multiplies_no_polynomial(self, family, monkeypatch):
        calls = spy_polynomial_arithmetic(monkeypatch)
        total = brute_route(family, 6, 3)
        assert calls == []
        monkeypatch.undo()
        assert total == det_route(family, 6, 3)


class TestAdjacentPairChain:
    # brute_route sums a chain over the paths, link i reading adjacent pairs
    # i - 1 and i only; pairs 0..k-2 of (m, k) are those of (m - 1, k - 1)

    def test_first_pairs_are_the_smaller_case(self):
        for family in "PQGH":
            for m in range(2, 9):
                for k in range(1, m):
                    starts, ends = family_config(family, m, k)
                    assert (starts[:-1], ends[:-1]) == family_config(family, m - 1, k - 1)

    @pytest.mark.parametrize("family", "PG")  # the two end-point geometries
    def test_link_i_reads_no_column_of_path_i_minus_2(self, family):
        # for every i, path i - 2 has no point in the columns that link i
        # reads: those of path i, which starts in column 2i (P, Q), or
        # columns 2i - 1 and 2i of pair factor i (G, H; i = k is the
        # closing, column 2k); Q and H place their paths as P and G do
        twin = {"P": "Q", "G": "H"}[family]
        for m in range(2, 13):
            for k in range(2, m):
                starts, ends = family_config(family, m, k)
                assert family_config(twin, m, k) == (starts, ends)
                for i in range(2, k if family == "P" else k + 1):
                    first_read = 2 * i if family == "P" else 2 * i - 1
                    for path in paths_between(starts[i - 2], ends[i - 2]):
                        assert max(x for x, _ in path) < first_read, (m, k, i, path)

    @pytest.mark.parametrize("family", "PQGH")
    @pytest.mark.usefixtures("cold_memos")
    def test_dropped_mask_test_fails_the_crosscheck(self, family, monkeypatch):
        # fault-matrix row: the adjacent pairs skip their mask test, so
        # brute_route goes wrong exactly where some adjacent pair of paths
        # meets, every k >= 2 case of m <= 6 but (3, 2); the memo of listed
        # levels starts cold, so every level is listed under the fault
        cases = [(m, k) for m in range(2, 7) for k in range(1, m)]
        meeting = []
        for m, k in cases:
            starts, ends = family_config(family, m, k)
            pairs = [(starts[i - 1:i + 1], ends[i - 1:i + 1]) for i in range(1, k)]
            if any(len(enumerate_nonintersecting(*pair)) < len(all_families(*pair))
                   for pair in pairs):
                meeting.append((m, k))
        monkeypatch.setattr(lgv, "enumerate_nonintersecting", all_families)
        wrong = [(m, k) for m, k in cases if brute_route(family, m, k) != det_route(family, m, k)]
        assert wrong == meeting == [(m, k) for m, k in cases if k >= 2 and (m, k) != (3, 2)]

    @pytest.mark.usefixtures("cold_memos")
    def test_pairs_and_levels_listed_once_per_process(self, monkeypatch):
        # over the lgv suite's brute calls, each start/end pair's paths are
        # listed once and each adjacent level's pairs once, although pair i
        # serves levels i and i + 1 of every call that places it, and P and
        # Q (G and H) place their paths alike
        listed, levels = [], []
        paths_between = lgv.paths_between
        enumerate_levels = lgv.enumerate_nonintersecting

        def counting_paths_between(a, b):
            listed.append((a, b))
            return paths_between(a, b)

        def counting_enumerate(starts, ends):
            levels.append(frozenset(zip(starts, ends)))
            return enumerate_levels(starts, ends)

        monkeypatch.setattr(lgv, "paths_between", counting_paths_between)
        monkeypatch.setattr(lgv, "enumerate_nonintersecting", counting_enumerate)
        pairs, adjacent = set(), set()
        for family in "PQGH":
            for m in range(2, 7):
                for k in range(1, m):
                    assert brute_route(family, m, k) == det_route(family, m, k), (family, m, k)
                    starts, ends = family_config(family, m, k)
                    pairs.update(zip(starts, ends))
                    adjacent.update(frozenset(zip(starts[i - 1:i + 1], ends[i - 1:i + 1]))
                                    for i in range(1, k))
        assert len(listed) == len(set(listed)) and set(listed) == pairs
        assert len(levels) == len(set(levels)) and set(levels) == adjacent


def pair_keys(family, max_m):
    """The `_pair_sum` keys of every start/end pair of every configuration
    with 2 <= m <= max_m."""
    keys = set()
    for m in range(2, max_m + 1):
        for k in range(1, m):
            starts, ends = family_config(family, m, k)
            keys.update((b.x - a.x, b.y - a.y, a.x % 2) for a in starts for b in ends)
    return keys


class TestIntegerPairSums:
    # lgv_det_route's Q, G and H pair sums weigh each path as an int at
    # q = 2^B and read each sum back once, like brute_route

    @pytest.mark.parametrize("family", "QGH")
    @pytest.mark.usefixtures("cold_memos")
    def test_digits_hold_every_pair_sum_coefficient(self, family, monkeypatch):
        # a path weighs at most 4 at q = 1 (Q 1 or 2, G 2, H 2 or 4), so the
        # route's B leaves every coefficient below 2^(B-1); the sum's value at
        # q = 1 is counted from the paths and those opening with a north step
        seen = []
        read = lgv.read_back

        def spy(value, shift, bits):
            seen.append(bits)
            return read(value, shift, bits)

        monkeypatch.setattr(lgv, "read_back", spy)
        largest = 0
        for dx, dy, x0 in sorted(pair_keys(family, 12)):
            seen.clear()
            got = lgv._pair_sum(family, dx, dy, x0)
            assert len(seen) == 1
            if dx < 0 or dy < 0:  # unreachable
                assert got.is_zero
                continue
            paths = comb(dx + dy, dy)
            opening = comb(dx + dy - 1, dy - 1) if dy else 0
            at_one = {"Q": paths + opening * (x0 == 0), "G": 2 * paths,
                      "H": 2 * (paths + opening)}[family]
            assert min(got.coeffs) >= 0 and sum(got.coeffs) == at_one, (dx, dy, x0)
            assert max(got.coeffs) < 2 ** (seen[0] - 1), (dx, dy, x0)
            largest = max(largest, max(got.coeffs))
        assert largest == 400

    @pytest.mark.parametrize("family", "QGH")
    @pytest.mark.usefixtures("cold_memos")
    def test_narrow_digits_fail_the_crosscheck(self, family, monkeypatch):
        # fault-matrix row: 8-bit digits hold coefficients below 2^7 only, so
        # lgv_det_route goes wrong exactly where some pair sum of the case has
        # a larger one, as some have at m <= 12 (pair sums reach 400)
        cases = [(m, k) for m in range(2, 13) for k in range(1, m)]

        def largest(m, k):
            starts, ends = family_config(family, m, k)
            return max(max(lgv._pair_sum(family, b.x - a.x, b.y - a.y, a.x % 2).coeffs,
                           default=0) for a in starts for b in ends)

        narrow = {case for case in cases if largest(*case) < 2 ** 7}
        lgv._pair_sum.cache_clear()
        monkeypatch.setattr(lgv, "digit_bits", lambda bound: 8)
        wrong = {case for case in cases
                 if lgv_det_route(family, *case) != det_route(family, *case)}
        assert narrow and wrong
        assert wrong == set(cases) - narrow

    @pytest.mark.parametrize("family", "QGH")
    def test_adds_and_multiplies_no_polynomial(self, family, monkeypatch):
        starts, ends = family_config(family, 8, 4)
        pairs = [(a, b) for a in starts for b in ends]
        calls = spy_polynomial_arithmetic(monkeypatch)
        sums = [lgv._pair_sum_with_steps(a, b, family) for a, b in pairs]
        assert calls == []
        monkeypatch.undo()
        assert sums == [pair_sum_by_steps(a, b, family) for a, b in pairs]


class TestPanelMultisets:
    def test_g_4_2_panels(self):
        starts, ends = family_config("G", 4, 2)
        fams = enumerate_nonintersecting(starts, ends)
        got = Counter(family_weight("G", f) for f in fams)
        assert got == G_4_2_PANELS
        total = sum((w * n for w, n in got.items()), ZERO)
        assert total == C(10, 24, 24, 10)
        assert total == det_route("G", 4, 2)

    def test_h_4_2_panels(self):
        starts, ends = family_config("G", 4, 2)
        fams = enumerate_nonintersecting(starts, ends)
        got = Counter(family_weight("H", f) for f in fams)
        assert got == H_4_2_PANELS
        total = sum((w * n for w, n in got.items()), ZERO)
        assert total == C(10, 15, 30, 26, 30, 15, 10)
        assert total == det_route("H", 4, 2)


class TestRouteAgreement:
    def test_routes_accept_the_same_indices(self):
        routes = (det_route, invert_route, brute_route, lgv_det_route)
        for family in "PQGH":
            for m in range(-2, 5):
                for k in range(-1, 6):
                    results = []
                    for route in routes:
                        try:
                            results.append(route(family, m, k))
                        except BadIndexError:
                            results.append(BadIndexError)
                    assert len(set(results)) == 1, (family, m, k, results)

    def test_every_route_is_one_at_k_zero(self):
        # the empty determinant and the empty family sum, with no special case
        for route in (det_route, invert_route, brute_route, lgv_det_route):
            for family in "PQGH":
                for m in range(0, 6):
                    assert route(family, m, 0) == ONE, (route.__name__, family, m)

    @pytest.mark.parametrize("family", "PQGH")
    def test_brute_and_det_routes_agree(self, family):
        for m in range(1, 10):
            for k in range(0, m):
                expected = det_route(family, m, k)
                assert brute_route(family, m, k) == expected, (family, m, k)
                assert lgv_det_route(family, m, k) == expected, (family, m, k)

    @pytest.mark.parametrize("family", "PQGH")
    def test_brute_route_is_sum_of_family_weights(self, family):
        for m in range(2, 6):
            for k in range(1, m):
                fams = enumerate_nonintersecting(*family_config(family, m, k))
                expected = sum((family_weight(family, fam) for fam in fams), ZERO)
                assert brute_route(family, m, k) == expected, (family, m, k)

    def test_wide_family_terms_merge(self):
        # With k = 8 paths the G/H products have 2^8 terms; the expansion
        # merges equal exponents factor by factor, and still matches both the
        # factor-by-factor polynomial product and the literal subset sum.
        starts, ends = family_config("G", 9, 8)
        fam = tuple(make_path(s, w) for s, w in zip(starts, WIDE_STEPS))
        assert [path[-1] for path in fam] == ends
        k = len(fam)
        sigma = vertical_columns(fam)
        flags = starts_vertically(fam)
        product_g = LaurentPoly.term(1, sigma[2 * k])
        product_h = (ONE + Q) ** sum(flags) * LaurentPoly.term(1, 2 * sigma[2 * k])
        for i in range(k):
            product_g = product_g * (
                LaurentPoly.term(1, sigma[2 * i - 1]) + LaurentPoly.term(1, sigma[2 * i])
            )
            product_h = product_h * (
                LaurentPoly.term(1, 2 * sigma[2 * i - 1])
                + LaurentPoly.term(1, 2 * sigma[2 * i] - int(flags[i]))
            )
        assert family_weight("G", fam) == product_g == subset_weight_total(fam, "G")
        assert family_weight("H", fam) == product_h == subset_weight_total(fam, "H")
        # the coefficients count the 2^8 subset terms, equal exponents merged
        g = family_weight("G", fam)
        assert sum(g.coeffs) == 2 ** k
        assert sum(1 for c in g.coeffs if c) < 2 ** k
        assert sum(family_weight("H", fam).coeffs) == 2 ** k * 2 ** sum(flags)

    def test_alt_weight_totals_agree(self):
        for m in range(2, 6):
            for k in range(1, m):
                starts, ends = family_config("G", m, k)
                fams = enumerate_nonintersecting(starts, ends)
                for scheme, family in (("G_alt", "G"), ("H_alt", "H")):
                    total = sum((weight_alt(f, scheme) for f in fams), ZERO)
                    assert total == det_route(family, m, k), (scheme, m, k)

    def test_subset_totals_match_product_forms_everywhere(self):
        for m in range(2, 5):
            for k in range(1, m):
                starts, ends = family_config("G", m, k)
                for fam in enumerate_nonintersecting(starts, ends):
                    assert family_weight("G", fam) == subset_weight_total(fam, "G")
                    assert family_weight("H", fam) == subset_weight_total(fam, "H")

    def test_p_weight_is_single_power(self):
        starts, ends = family_config("P", 5, 3)
        for fam in enumerate_nonintersecting(starts, ends):
            w = family_weight("P", fam)
            assert len(w.coeffs) == 1 and w.coeffs[0] == 1

    def test_q_weight_construction(self):
        # opening vertical steps carry q^2 + q, later even-column ones q^2
        fam = (make_path((0, 0), "NE"),)
        assert family_weight("Q", fam) == C(1, 1, 0)
        fam = (make_path((0, 0), "EN"),)
        assert family_weight("Q", fam) == ONE  # vertical step sits in the odd column 1

    def test_family_off_its_placement_raises(self):
        # a lone G path from (1, 0) to (3, 2) would be weighed by its column
        # counts relative to column 1, as the same steps from (0, 0) are
        for steps, weight in (("NNEE", C(1, 0, 1)), ("EENN", C(2, 0, 0))):
            assert family_weight("G", (make_path((0, 0), steps),)) == weight
            for name in "PQGH":
                with pytest.raises(ValueError, match="column 2i"):
                    family_weight(name, (make_path((1, 0), steps),))
        # a placed family keeps its weight; path 1 moved one column right of
        # column 2 raises
        for family in "PG":
            fam = enumerate_nonintersecting(*family_config(family, 5, 2))[-1]
            expected = literal_terms(fam)[family]
            assert family_weight(family, fam) == _poly_from_terms(*expected)
            moved = (fam[0], tuple(LatticePoint(x + 1, y) for x, y in fam[1]))
            for name in "PQGH":
                with pytest.raises(ValueError, match="column 2i"):
                    family_weight(name, moved)
