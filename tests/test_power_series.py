"""Truncated-series arithmetic and the two reversion routes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from revsym.power_series import (
    NonIntegerCoefficient,
    NonUnitSeries,
    NonZeroInnerConstant,
    TruncatedSeries,
    _conv,
    _div_raw,
    lagrange_coefficients,
    revert_direct,
)
from revsym.symbols import (
    ANY_TILES,
    EVEN_ONLY,
    NO_TRIANGLES,
    TRIANGLES_ONLY,
    Polynomial,
    ReversiveSymbol,
    catalog,
    parse_symbol,
    verify_inverse,
)
from revsym.dissection_oracle import enumerate_count

TS = TruncatedSeries


def series(*coeffs):
    return TS(coeffs)


small_int = st.integers(min_value=-4, max_value=4)
small_series = st.lists(small_int, min_size=1, max_size=6).map(TS)
small_inner = st.lists(small_int, max_size=5).map(lambda cs: TS([0, *cs]))
unit_series = small_series.filter(lambda s: s.coeffs[0] in (1, -1))
non_unit_constant = st.sampled_from([2, -2, 3, -3])


@st.composite
def random_symbols(draw):
    """Valid symbols of degree <= 4 with p_1 = q_0 in {+-1, +-2, +-3}."""
    unit = draw(st.sampled_from([1, -1, 2, -2, 3, -3]))
    small = st.integers(min_value=-3, max_value=3)
    num = (0, unit, *draw(st.lists(small, max_size=3)))
    den = (unit, *draw(st.lists(small, max_size=4)))
    return ReversiveSymbol("fuzz", Polynomial(num), Polynomial(den))


class TestArithmetic:
    def test_add(self):
        one_plus_x = series(1, 1, 0)
        x_squared = series(0, 0, 1)
        assert one_plus_x + x_squared == series(1, 1, 1)

    def test_add_zero_identity(self):
        s = series(3, -2, 5)
        assert s + TS.zero(2) == s

    def test_add_negation_cancels(self):
        s = series(3, -2, 5)
        assert s + (-s) == TS.zero(2)

    def test_min_precision_propagation(self):
        assert (series(1, 1, 1) + series(1, 1)).precision == 1

    def test_mul(self):
        assert series(1, 1, 0) * series(1, -1, 0) == series(1, 0, -1)

    def test_mul_geometric_cancellation(self):
        n = 9
        one_minus = TS([1, -1] + [0] * (n - 1))
        geom = TS([1] * (n + 1))
        assert one_minus * geom == TS.one(n)

    def test_mul_truncation_drops_high_terms(self):
        x = series(0, 1)
        assert x * x == TS.zero(1)

    def test_pow(self):
        assert series(1, 1, 0) ** 2 == series(1, 2, 1)
        assert series(0, 1, 4) ** 0 == TS.one(2)
        assert (TS([1, 1, 0, 0]) ** 5)[3] == 10  # C(5,3)

    def test_reciprocal_geometric(self):
        assert series(1, -1, 0, 0).reciprocal() == series(1, 1, 1, 1)

    def test_reciprocal_constant(self):
        with pytest.raises(NonIntegerCoefficient, match=r"^quotient_0 = 1/2 is not an integer$"):
            series(2).reciprocal()

    def test_reciprocal_nonunit_raises(self):
        with pytest.raises(NonUnitSeries):
            series(0, 1, 1).reciprocal()

    def test_compose_identity_inner(self):
        outer = series(1, 1, 1)
        assert outer.compose(TS.identity(2)) == outer

    def test_compose_catalan_start(self):
        # (x + x^2) - (x + x^2)^2 = x - 2x^3 - x^4, so x to precision 2
        outer = series(0, 1, -1)
        inner = series(0, 1, 1)
        assert outer.compose(inner) == series(0, 1, 0)

    def test_compose_nonzero_constant_raises(self):
        with pytest.raises(NonZeroInnerConstant):
            series(1, 1).compose(series(1, 1))

    @given(small_series, small_inner)
    def test_compose_is_sum_of_powers(self, s, t):
        n = min(s.precision, t.precision)
        expected = TS.zero(n)
        for k in range(n + 1):
            expected = expected + TS(s[k] * c for c in (t.truncate(n) ** k).coeffs)
        assert s.compose(t) == expected

    @given(small_series, small_series)
    def test_mul_commutative(self, s, t):
        assert s * t == t * s

    @given(small_series, small_series, small_series)
    @settings(max_examples=60)
    def test_mul_associative(self, s, t, u):
        assert (s * t) * u == s * (t * u)

    @given(small_series, small_series, small_series)
    @settings(max_examples=60)
    def test_distributive(self, s, t, u):
        n = min(s.precision, t.precision, u.precision)
        lhs = s * (t + u)
        rhs = s * t + s * u
        assert lhs.truncate(n) == rhs.truncate(n)

    @given(unit_series)
    def test_reciprocal_involution(self, s):
        assert s.reciprocal().reciprocal() == s

    @given(unit_series)
    def test_reciprocal_is_inverse(self, s):
        assert s * s.reciprocal() == TS.one(s.precision)

    @given(st.lists(small_int, min_size=1, max_size=6), non_unit_constant, st.lists(small_int, max_size=5))
    def test_division_undoes_product(self, p, q0, q_rest):
        q = [q0, *q_rest]
        n = len(p) - 1
        assert _div_raw(_conv(p, q, n), q, n) == p

    @given(st.lists(small_int, min_size=1, max_size=6), non_unit_constant, st.lists(small_int, max_size=5),
           st.data())
    def test_division_that_is_not_exact_raises(self, p, q0, q_rest, data):
        # (p*q + x^m) / q = p + x^m/q, whose first non-integral coefficient is 1/q0 at x^m
        q = [q0, *q_rest]
        n = len(p) - 1
        m = data.draw(st.integers(min_value=0, max_value=n))
        dividend = _conv(p, q, n)
        dividend[m] += 1
        with pytest.raises(NonIntegerCoefficient, match=rf"^quotient_{m} = "):
            _div_raw(dividend, q, n)


def _catalog_symbol(name):
    for entry in catalog():
        if entry.symbol.name == name:
            return entry.symbol
    raise KeyError(name)


class TestLagrange:
    def test_catalan_terms_match_exhaustive_triangulations(self):
        expected = [enumerate_count(n, TRIANGLES_ONLY) for n in range(6)]
        assert expected == [1, 1, 2, 5, 14, 42]
        assert lagrange_coefficients(_catalog_symbol("catalan"), 5) == expected

    def test_schroeder_terms_match_exhaustive_dissections(self):
        expected = [enumerate_count(n, ANY_TILES) for n in range(6)]
        assert expected == [1, 1, 3, 11, 45, 197]
        assert lagrange_coefficients(_catalog_symbol("schroeder"), 5) == expected

    def test_triangle_free_terms_match_exhaustive(self):
        expected = [enumerate_count(n, NO_TRIANGLES) for n in range(7)]
        assert expected == [1, 0, 1, 1, 4, 8, 25]
        assert lagrange_coefficients(_catalog_symbol("trianglefree"), 6) == expected

    def test_even_terms_match_exhaustive_and_vanish_at_odd(self):
        expected = [enumerate_count(n, EVEN_ONLY) for n in range(7)]
        assert expected == [1, 0, 1, 0, 4, 0, 21]
        assert lagrange_coefficients(_catalog_symbol("eventiles"), 6) == expected

    def test_n_zero_gives_single_term(self):
        for sym in (entry.symbol for entry in catalog()):
            assert lagrange_coefficients(sym, 0) == revert_direct(sym, 0) == [1]

    def test_non_integer_coefficient_raises(self):
        # unit slope (2/2), but the inverse series is not integral
        bad = ReversiveSymbol("bad", Polynomial((0, 2, -1)), Polynomial((2,)))
        for route in (lagrange_coefficients, revert_direct):
            with pytest.raises(NonIntegerCoefficient, match=r"^a_1 = 1/2 is not an integer$"):
                route(bad, 3)


class TestRevertDirect:
    def test_catalan_shifted(self):
        assert revert_direct(_catalog_symbol("catalan"), 3) == [1, 1, 2, 5]

    def test_identity(self):
        assert revert_direct(parse_symbol("(0,1)/(1)"), 4) == [1, 0, 0, 0, 0]

    def test_matches_lagrange_shifted_by_one(self):
        n = 40
        for sym in (entry.symbol for entry in catalog()):
            assert revert_direct(sym, n) == lagrange_coefficients(sym, n), sym.name

    def test_round_trip_composition(self):
        for sym in (entry.symbol for entry in catalog()):
            assert verify_inverse(sym, revert_direct(sym, 40)), sym.name

    @settings(max_examples=300, deadline=None)
    @given(random_symbols())
    def test_random_symbols_agree_with_lagrange(self, sym):
        outcomes = []
        for route in (revert_direct, lagrange_coefficients):
            try:
                outcomes.append(route(sym, 20))
            except NonIntegerCoefficient as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], list):
            assert verify_inverse(sym, outcomes[0])


class TestSeriesBasics:
    def test_constructor_rejects_empty(self):
        with pytest.raises(ValueError):
            TS([])

    def test_constructor_rejects_floats(self):
        with pytest.raises(TypeError):
            TS([0.5])

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError):
            series(1, 2).truncate(5)

    def test_constructor_rejects_fractions(self):
        with pytest.raises(TypeError):
            TS([1, Fraction(4, 2)])

    def test_index_beyond_precision_raises(self):
        with pytest.raises(IndexError):
            series(1, 2)[5]

    def test_assignment_raises_and_keeps_hash(self):
        s = series(1, 2)
        d = {s: "kept"}
        with pytest.raises(AttributeError):
            s.coeffs = (5,)
        assert s in d and d[s] == "kept"
