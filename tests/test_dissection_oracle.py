"""Exhaustive enumeration against a test-local reference, tile extraction, chord oracle."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from revsym import dissection_oracle
from revsym.closed_forms import motzkin_term
from revsym.dissection_oracle import DEFAULT_CHORD_CAP, count_chord_diagrams, enumerate_counts
from revsym.symbols import (
    ANY_TILES,
    EVEN_ONLY,
    NO_TRIANGLES,
    ODD_ONLY,
    TRIANGLES_ONLY,
    TileRule,
    symbol_from_tile_rule,
)
from revsym.power_series import count_by_series, lagrange_coefficients, revert_direct, verify_tautological

from shared import ALL_RULES, CUSTOM_RULES, TAIL_RULES


def _crossing_by_coordinates(p, q, n):
    """Test-local validator, independent of the library's predicate:
    diagonals cross iff each separates the other's endpoints on the cycle."""
    (a, b), (c, d) = p, q

    def separates(x, y, u, v):
        # walking the cycle from x to y, is exactly one of u, v passed?
        inside = set()
        t = (x + 1) % (n + 2)
        while t != y:
            inside.add(t)
            t = (t + 1) % (n + 2)
        return (u in inside) != (v in inside)

    return separates(a, b, c, d) and separates(c, d, a, b)


# The reference the walk is checked against: the plain definition, sharing
# no code with revsym.dissection_oracle, not even the crossing test, so a
# defect in the walk cannot reach both sides of a comparison and cancel.


def _diagonals_cross(p, q):
    """The reference's crossing test for diagonals (a, b) and (c, d), each with
    its smaller end first: four distinct ends, and exactly one of c, d strictly
    between a and b."""
    (a, b), (c, d) = p, q
    return len({a, b, c, d}) == 4 and (a < c < b) != (a < d < b)


def _diagonals(n):
    """The diagonals of the (n+2)-gon in lexicographic order."""
    return [(i, j) for i, j in combinations(range(n + 2), 2) if 1 < j - i < n + 1]


def iter_dissections(n):
    """Every dissection of the (n+2)-gon as a frozenset of diagonals, in
    lexicographic DFS order: the diagonals chosen so far, in lexicographic
    order, are extended by every later diagonal that crosses none of them."""
    cands = _diagonals(n)

    def rec(chosen, start):
        yield frozenset(chosen)
        for i in range(start, len(cands)):
            if not any(_diagonals_cross(cands[i], diagonal) for diagonal in chosen):
                yield from rec(chosen + (cands[i],), i + 1)

    return rec((), 0)


def tiles_of(n, diagonals):
    """The faces of the (n+2)-gon split by the diagonals, one at a time, sorted.

    Each face is its vertex labels in increasing order, which is also its
    cyclic order, so its side count is its length.  A diagonal (a, b) lies in
    the one face holding both ends and splits it into the labels from a to b
    and the labels <= a or >= b."""
    faces = [tuple(range(n + 2))]
    for a, b in diagonals:
        face = next(f for f in faces if a in f and b in f)
        faces.remove(face)
        faces += [tuple(v for v in face if a <= v <= b), tuple(v for v in face if v <= a or v >= b)]
    return sorted(faces)


class TestReferenceCrossing:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_crossing_by_coordinates(self, n):
        # among the pairs: the square's two diagonals, which cross (n = 2), and
        # the pentagon's (0, 2) and (0, 3), which share an end (n = 3)
        for p in _diagonals(n):
            for q in _diagonals(n):
                if p != q:
                    assert _diagonals_cross(p, q) == _crossing_by_coordinates(p, q, n), (p, q)


class TestTilesOf:
    def test_empty_dissection_is_one_tile(self):
        assert tiles_of(2, []) == [(0, 1, 2, 3)]

    def test_square_single_diagonal(self):
        assert tiles_of(2, [(0, 2)]) == [(0, 1, 2), (0, 2, 3)]

    def test_hexagon_long_diagonal(self):
        tiles = tiles_of(4, [(0, 3)])
        assert tiles == [(0, 1, 2, 3), (0, 3, 4, 5)]

    def test_fan_triangulation(self):
        tiles = tiles_of(4, [(0, 2), (0, 3), (0, 4)])
        assert all(len(face) == 3 for face in tiles)
        assert len(tiles) == 4


class TestEnumeratorInvariants:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_bookkeeping_and_crossing_soundness(self, n):
        edges = {(i, i + 1) for i in range(n + 1)} | {(0, n + 1)}
        seen = set()
        count = 0
        for d in iter_dissections(n):
            count += 1
            assert d not in seen, "duplicate dissection"
            seen.add(d)
            diags = sorted(d)
            for x in range(len(diags)):
                for y in range(x + 1, len(diags)):
                    assert not _crossing_by_coordinates(diags[x], diags[y], n)
            tiles = tiles_of(n, d)
            m = len(diags)
            assert len(tiles) == m + 1
            assert all(type(face) is tuple for face in tiles)
            assert sum(len(face) for face in tiles) == (n + 2) + 2 * m
            # every cyclic side of a face is a polygon edge or a chosen
            # diagonal; a diagonal borders two faces, an edge one
            sides = Counter(
                tuple(sorted((face[k - 1], face[k]))) for face in tiles for k in range(len(face))
            )
            assert sides == Counter({**dict.fromkeys(edges, 1), **dict.fromkeys(diags, 2)})
        assert count == enumerate_counts(n, ANY_TILES)[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pruned_walk_matches_independent_generation(self, n):
        # the pruned bitmask walk against the unpruned generator and the
        # tuple faces of tiles_of, rule by rule
        sizes = [frozenset(len(face) for face in tiles_of(n, d)) for d in iter_dissections(n)]
        for rule in ALL_RULES + CUSTOM_RULES:
            expected = sum(1 for used in sizes if all(rule.allows(s) for s in used))
            assert enumerate_counts(n, rule)[n] == expected, rule.label()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_catalan_counts_maximal_diagonal_sets(self, n):
        # triangulations are exactly the dissections with m = n-1 diagonals
        maximal = sum(1 for d in iter_dissections(n) if len(d) == n - 1)
        assert maximal == enumerate_counts(n, TRIANGLES_ONLY)[n]

    @pytest.mark.parametrize("clause", [
        lambda a, b, c, d: b == d and a > 0 and c > 0 and a != c,
        lambda a, b, c, d: a == c and b != d,
        lambda a, b, c, d: c < a < b < d or a < c < d < b,
    ], ids=["same-right-end", "same-left-end", "nested"])
    def test_walk_and_reference_share_no_crossing_test(self, monkeypatch, clause):
        # the walk's crossing test, made to call one more kind of pair
        # crossing, must change a count the reference's own test does not
        real = dissection_oracle._crosses

        def mutant(a, b, c, d):
            return real(a, b, c, d) or clause(a, b, c, d)

        monkeypatch.setattr(dissection_oracle, "_crosses", mutant)
        walk = [enumerate_counts(n, ANY_TILES)[n] for n in range(1, 6)]
        assert walk != [sum(1 for _ in iter_dissections(n)) for n in range(1, 6)]


class TestEnumerateCounts:
    @pytest.mark.parametrize("rule", ALL_RULES + CUSTOM_RULES, ids=TileRule.label)
    def test_one_walk_counts_every_smaller_polygon(self, rule):
        # the (m+2)-gon's dissections are nodes of the 10-gon's walk, with
        # n - m more vertices on the root face
        assert enumerate_counts(8, rule) == [1] + [_allowed(m, rule) for m in range(1, 9)]

    @pytest.mark.parametrize("rule, column", [
        (ANY_TILES, [1, 1, 3, 11]),
        (NO_TRIANGLES, [1, 0, 1, 1, 4]),
        (TRIANGLES_ONLY, [1, 1, 2, 5]),
        (EVEN_ONLY, [1, 0, 1, 0, 4]),
        (ODD_ONLY, [1, 1, 2, 6, 20]),
    ], ids=["any", "notriangles", "triangles", "even", "odd"])
    def test_small_polygons(self, rule, column):
        # the square counts undissected for even tiles, and for triangles
        # only through its two triangulations
        assert enumerate_counts(len(column) - 1, rule) == column

    def test_undissected_polygon_needs_rule_approval(self):
        # the square is itself or one of 2 triangulations; the pentagon is
        # itself, one of 5 triangle-and-square splits or one of 5 triangulations
        for rule in ALL_RULES + CUSTOM_RULES + TAIL_RULES:
            tri, sq, pent = (rule.allows(s) for s in (3, 4, 5))
            assert enumerate_counts(3, rule)[2:] == [sq + 2 * tri, pent + 5 * tri * sq + 5 * tri], rule.label()

    def test_two_gon_alone(self):
        for rule in ALL_RULES:
            assert enumerate_counts(0, rule) == [1]

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match=r"^n = 13 exceeds the exhaustive cap 12$"):
            enumerate_counts(13, ANY_TILES)
        with pytest.raises(ValueError, match=r"^n = 6 exceeds the exhaustive cap 5$"):
            enumerate_counts(6, ANY_TILES, cap=5)
        with pytest.raises(ValueError, match=r"^n = 5 exceeds the exhaustive cap 4$"):
            enumerate_counts(5, ANY_TILES, cap=4)
        assert enumerate_counts(5, ANY_TILES, cap=5) == [1, 1, 3, 11, 45, 197]

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=r"^need n >= 0$"):
            enumerate_counts(-1, ANY_TILES)


_SIZE_SETS: dict[int, Counter] = {}


def _size_sets(n):
    """How many dissections of the (n+2)-gon have each set of tile sizes,
    from the unpruned generator and the tuple faces of tiles_of; built once
    per n."""
    if n not in _SIZE_SETS:
        _SIZE_SETS[n] = Counter(
            frozenset(len(face) for face in tiles_of(n, d)) for d in iter_dissections(n)
        )
    return _SIZE_SETS[n]


@st.composite
def tile_rules(draw):
    """Random rules: up to four sizes in 3..9, plus an optional tail."""
    start = draw(st.none() | st.integers(3, 9))
    sizes = draw(st.frozensets(st.integers(3, 9), min_size=0 if start else 1, max_size=4))
    return TileRule(sizes, start, draw(st.integers(1, 3)))


def _allowed(n, rule):
    """How many dissections of the (n+2)-gon use only tile sizes the rule allows, by
    the unpruned generator and the tuple faces of tiles_of."""
    return sum(k for used, k in _size_sets(n).items() if all(rule.allows(s) for s in used))


class TestRandomRules:
    @settings(max_examples=200, deadline=None)
    @given(tile_rules())
    def test_reversion_series_and_enumeration_agree(self, rule):
        series = count_by_series(30, rule)
        assert all(type(v) is int for v in series)
        assert lagrange_coefficients(symbol_from_tile_rule(rule), 30) == series
        assert revert_direct(symbol_from_tile_rule(rule), 30) == series
        assert series[:7] == enumerate_counts(6, rule)
        assert verify_tautological(rule, series)
        for m in range(31):
            perturbed = list(series)
            perturbed[m] += 1
            assert not verify_tautological(rule, perturbed), m

    @settings(max_examples=25, deadline=None)
    @given(tile_rules())
    def test_pruned_walk_matches_series_beyond_six(self, rule):
        # the pruned walk for random rules on 9- to 11-gons, against the
        # Newton counter
        series = count_by_series(9, rule)
        for n in range(7, 10):
            assert enumerate_counts(n, rule)[n] == series[n], (rule.label(), n)

    @settings(max_examples=150, deadline=None)
    @given(tile_rules())
    def test_walk_counts_what_independent_generation_allows(self, rule):
        # the candidate order, the prune of closed faces and the tally by
        # first polygon must neither drop nor double-count a dissection for
        # any rule, at the top of each walk and at every m of the 10-gon's
        expected = [1] + [_allowed(n, rule) for n in range(1, 9)]
        assert [enumerate_counts(n, rule)[n] for n in range(9)] == expected, rule.label()
        assert enumerate_counts(8, rule) == expected, rule.label()


def _chords_meet_by_coordinates(p, q):
    """Test-local validator, independent of the library's predicate: put
    point t at (t, t^2), in convex position in cyclic order, and test the
    two segments for a shared endpoint or a proper crossing by orientation
    signs."""
    if set(p) & set(q):
        return True

    def orient(u, v, w):
        (ux, uy), (vx, vy), (wx, wy) = ((t, t * t) for t in (u, v, w))
        return (vx - ux) * (wy - uy) - (vy - uy) * (wx - ux) > 0

    (a, b), (c, d) = p, q
    return orient(a, b, c) != orient(a, b, d) and orient(c, d, a) != orient(c, d, b)


class TestChordDiagrams:
    def test_clash_predicate_agrees_with_coordinates_in_both_argument_orders(self):
        # the walk only asks about a chord and a lexicographically later one,
        # so its counts alone never reach the predicate's second comparison
        chords = list(combinations(range(10), 2))
        for u in chords:
            for v in chords:
                if u != v:
                    assert dissection_oracle._touches_or_crosses(*u, *v) == _chords_meet_by_coordinates(u, v), (u, v)

    @pytest.mark.parametrize("p", range(9))
    def test_matches_generation_by_combinations(self, p):
        chords = list(combinations(range(p), 2))
        expected = sum(
            1
            for k in range(p // 2 + 1)
            for chosen in combinations(chords, k)
            if not any(_chords_meet_by_coordinates(u, v) for u, v in combinations(chosen, 2))
        )
        assert count_chord_diagrams(p) == expected

    def test_matches_motzkin_to_default_cap(self):
        for p in range(DEFAULT_CHORD_CAP + 1):
            assert count_chord_diagrams(p) == motzkin_term(p), p

    def test_empty_circle(self):
        assert count_chord_diagrams(0) == 1

    def test_three_points(self):
        # empty placement plus the 3 single chords
        assert count_chord_diagrams(3) == 4

    def test_five_points(self):
        assert count_chord_diagrams(5) == 21

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match=r"^p = 17 exceeds the exhaustive cap 16$"):
            count_chord_diagrams(17)
        with pytest.raises(ValueError, match=r"^p = 5 exceeds the exhaustive cap 4$"):
            count_chord_diagrams(5, cap=4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_chord_diagrams(-1)

