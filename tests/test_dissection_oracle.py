"""Exhaustive enumeration, tile extraction, series counter, chord oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from revsym.dissection_oracle import (
    CapExceeded,
    Dissection,
    count_by_series,
    count_chord_diagrams,
    enumerate_count,
    iter_dissections,
    tiles_of,
)
from revsym.symbols import (
    ANY_TILES,
    EVEN_ONLY,
    NO_TRIANGLES,
    ODD_ONLY,
    TRIANGLES_ONLY,
    TileRule,
    symbol_from_tile_rule,
)
from revsym.power_series import lagrange_coefficients, revert_direct

KEYWORD_RULES = {
    "any": ANY_TILES,
    "triangles": TRIANGLES_ONLY,
    "notriangles": NO_TRIANGLES,
    "odd": ODD_ONLY,
    "even": EVEN_ONLY,
}
ALL_RULES = list(KEYWORD_RULES.values())
CUSTOM_RULES = [TileRule({4}), TileRule({3}, start=6), TileRule({4}, start=3, step=3)]


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


class TestDissectionType:
    def test_normalizes_pair_order(self):
        d = Dissection(2, [(2, 0)])
        assert d.diagonals == frozenset({(0, 2)})

    def test_rejects_two_gon(self):
        with pytest.raises(ValueError):
            Dissection(0)

    def test_rejects_polygon_edge(self):
        with pytest.raises(ValueError):
            Dissection(2, [(0, 1)])
        with pytest.raises(ValueError):
            Dissection(2, [(0, 3)])  # wrap-around edge of the square

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Dissection(2, [(0, 4)])

    def test_rejects_crossing_pair(self):
        with pytest.raises(ValueError):
            Dissection(3, [(0, 2), (1, 3)])

    def test_rejects_too_many_diagonals(self):
        # n-1 is the most that fit; a triangulation of the square has 1
        with pytest.raises(ValueError):
            Dissection(2, [(0, 2), (1, 3)])

    def test_shared_endpoints_allowed(self):
        d = Dissection(3, [(0, 2), (0, 3)])
        assert len(d.diagonals) == 2


class TestTilesOf:
    def test_empty_dissection_is_one_tile(self):
        assert tiles_of(Dissection(2)) == [(0, 1, 2, 3)]

    def test_square_single_diagonal(self):
        assert tiles_of(Dissection(2, [(0, 2)])) == [(0, 1, 2), (0, 2, 3)]

    def test_hexagon_long_diagonal(self):
        tiles = tiles_of(Dissection(4, [(0, 3)]))
        assert tiles == [(0, 1, 2, 3), (0, 3, 4, 5)]

    def test_fan_triangulation(self):
        tiles = tiles_of(Dissection(4, [(0, 2), (0, 3), (0, 4)]))
        assert all(len(face) == 3 for face in tiles)
        assert len(tiles) == 4


class TestEnumeratorInvariants:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_bookkeeping_and_crossing_soundness(self, n):
        seen = set()
        count = 0
        sizes = []
        for d in iter_dissections(n):
            count += 1
            assert d.diagonals not in seen, "duplicate dissection"
            seen.add(d.diagonals)
            diags = sorted(d.diagonals)
            for x in range(len(diags)):
                for y in range(x + 1, len(diags)):
                    assert not _crossing_by_coordinates(diags[x], diags[y], n)
            tiles = tiles_of(d)
            m = len(diags)
            assert len(tiles) == m + 1
            assert all(type(face) is tuple for face in tiles)
            assert sum(len(face) for face in tiles) == (n + 2) + 2 * m
            sizes.append({len(face) for face in tiles})
        assert count == enumerate_count(n, ANY_TILES)
        # the bitmask walk against the tuple faces of tiles_of, rule by rule
        for rule in ALL_RULES + CUSTOM_RULES:
            expected = sum(1 for used in sizes if all(rule.allows(s) for s in used))
            assert enumerate_count(n, rule) == expected, rule.label()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_catalan_counts_maximal_diagonal_sets(self, n):
        # triangulations are exactly the dissections with m = n-1 diagonals
        maximal = sum(1 for d in iter_dissections(n) if len(d.diagonals) == n - 1)
        assert maximal == enumerate_count(n, TRIANGLES_ONLY)


class TestEnumerateCount:
    def test_pentagon_all(self):
        assert enumerate_count(3, ANY_TILES) == 11

    def test_hexagon_no_triangles(self):
        assert enumerate_count(4, NO_TRIANGLES) == 4

    def test_pentagon_triangulations(self):
        assert enumerate_count(3, TRIANGLES_ONLY) == 5

    def test_even_rule_parity(self):
        assert enumerate_count(4, EVEN_ONLY) == 4
        assert enumerate_count(3, EVEN_ONLY) == 0

    def test_two_gon_counts_one_for_every_rule(self):
        for rule in ALL_RULES:
            assert enumerate_count(0, rule) == 1

    def test_undissected_polygon_needs_rule_approval(self):
        # the square counts for EVEN_ONLY but its empty dissection does not
        # count for TRIANGLES_ONLY
        assert enumerate_count(2, EVEN_ONLY) == 1
        assert enumerate_count(2, TRIANGLES_ONLY) == 2  # the two triangulations only

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            enumerate_count(13, ANY_TILES)
        with pytest.raises(CapExceeded):
            enumerate_count(5, ANY_TILES, cap=4)
        assert enumerate_count(5, ANY_TILES, cap=5) == 197

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            enumerate_count(-1, ANY_TILES)


class TestCountBySeries:
    def test_all_dissections(self):
        assert count_by_series(5, ANY_TILES) == [1, 1, 3, 11, 45, 197]

    def test_triangulations(self):
        assert count_by_series(5, TRIANGLES_ONLY) == [1, 1, 2, 5, 14, 42]

    def test_odd_tiles_pins_later_terms(self):
        # n <= 6 re-derived exhaustively here; the tail values 71 and 264
        # were first produced by this counter and frozen after that check
        got = count_by_series(6, ODD_ONLY)
        assert got == [enumerate_count(n, ODD_ONLY) for n in range(7)]
        assert got == [1, 1, 2, 6, 20, 71, 264]

    def test_zero_terms(self):
        for rule in ALL_RULES:
            assert count_by_series(0, rule) == [1]

    @pytest.mark.parametrize("rule", ALL_RULES, ids=list(KEYWORD_RULES))
    def test_matches_enumeration_to_seven(self, rule):
        series = count_by_series(7, rule)
        for n in range(8):
            assert series[n] == enumerate_count(n, rule)

    def test_custom_rule_matches_enumeration(self):
        rule = TileRule({4})
        series = count_by_series(7, rule)
        assert series == [enumerate_count(n, rule) for n in range(8)]

    def test_custom_tail_rule_matches_enumeration(self):
        rule = TileRule({3}, start=6)
        series = count_by_series(7, rule)
        assert series == [enumerate_count(n, rule) for n in range(8)]

    def test_stepped_tail_rule_matches_enumeration(self):
        rule = TileRule({4}, start=3, step=3)
        series = count_by_series(7, rule)
        assert series == [enumerate_count(n, rule) for n in range(8)]


@st.composite
def tile_rules(draw):
    """Random rules: up to four sizes in 3..9, plus an optional tail."""
    start = draw(st.none() | st.integers(3, 9))
    sizes = draw(st.frozensets(st.integers(3, 9), min_size=0 if start else 1, max_size=4))
    return TileRule(sizes, start, draw(st.integers(1, 3)))


class TestRandomRules:
    @settings(max_examples=200, deadline=None)
    @given(tile_rules())
    def test_reversion_series_and_enumeration_agree(self, rule):
        series = count_by_series(30, rule)
        assert all(type(v) is int for v in series)
        assert lagrange_coefficients(symbol_from_tile_rule(rule), 30) == series
        assert revert_direct(symbol_from_tile_rule(rule), 30) == series
        assert series[:7] == [enumerate_count(n, rule) for n in range(7)]


class TestChordDiagrams:
    def test_empty_circle(self):
        assert count_chord_diagrams(0) == 1

    def test_three_points(self):
        # empty placement plus the 3 single chords
        assert count_chord_diagrams(3) == 4

    def test_five_points(self):
        assert count_chord_diagrams(5) == 21

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            count_chord_diagrams(17)
        with pytest.raises(CapExceeded):
            count_chord_diagrams(5, cap=4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_chord_diagrams(-1)

