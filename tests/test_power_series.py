"""Series kernels on int lists, the two reversion routes, and a symbol as a series."""

import pytest
from hypothesis import given, settings, strategies as st

from revsym import power_series
from revsym.exact_arith import NonIntegerCoefficient
from revsym.power_series import (
    _compose_raw,
    _conv,
    _div_raw,
    lagrange_coefficients,
    revert_direct,
    verify_inverse,
)
from revsym.symbols import (
    ANY_TILES,
    EVEN_ONLY,
    NO_TRIANGLES,
    TRIANGLES_ONLY,
    ReversiveSymbol,
    catalog,
    parse_symbol,
)
from revsym.dissection_oracle import enumerate_counts


def one(n):
    return [1] + [0] * n


small_int = st.integers(min_value=-4, max_value=4)
small_series = st.lists(small_int, min_size=1, max_size=6)
small_inner = st.lists(small_int, max_size=5).map(lambda cs: [0, *cs])
unit_series = small_series.filter(lambda s: s[0] in (1, -1))
non_unit_constant = st.sampled_from([2, -2, 3, -3])


@st.composite
def random_symbols(draw):
    """Valid symbols of degree <= 4 with p_1 = q_0 in {+-1, +-2, +-3}."""
    unit = draw(st.sampled_from([1, -1, 2, -2, 3, -3]))
    small = st.integers(min_value=-3, max_value=3)
    num = (0, unit, *draw(st.lists(small, max_size=3)))
    den = (unit, *draw(st.lists(small, max_size=4)))
    return ReversiveSymbol("fuzz", num, den)


class TestArithmetic:
    def test_mul(self):
        assert _conv([1, 1, 0], [1, -1, 0], 2) == [1, 0, -1]

    def test_mul_geometric_cancellation(self):
        n = 9
        assert _conv([1, -1], [1] * (n + 1), n) == one(n)

    def test_mul_truncation_drops_high_terms(self):
        assert _conv([0, 1], [0, 1], 1) == [0, 0]

    def test_pow(self):
        # repeated products give the binomial row: [x^3] (1 + x)^5 = C(5, 3)
        power = one(3)
        for _ in range(5):
            power = _conv(power, [1, 1], 3)
        assert power == [1, 5, 10, 10]

    def test_reciprocal_geometric(self):
        assert _div_raw((1,), [1, -1, 0, 0], 3) == [1, 1, 1, 1]

    def test_reciprocal_constant(self):
        with pytest.raises(NonIntegerCoefficient, match=r"^quotient_0 = 1/2 is not an integer$"):
            _div_raw((1,), [2], 0)

    def test_reciprocal_nonunit_raises(self):
        # no caller divides by a zero constant term: symbols have q_0 != 0,
        # and the counter and Lagrange divide by constant term 1
        with pytest.raises(ZeroDivisionError):
            _div_raw([1], [0, 1], 2)

    def test_compose_identity_inner(self):
        assert _compose_raw([[1, 1, 1]], [0, 1, 0], 2) == [[1, 1, 1]]

    def test_compose_catalan_start(self):
        # (x + x^2) - (x + x^2)^2 = x - 2x^3 - x^4, so x to degree 2
        assert _compose_raw([[0, 1, -1]], [0, 1, 1], 2) == [[0, 1, 0]]

    @given(small_series, small_inner)
    def test_compose_is_sum_of_powers(self, s, t):
        n = min(len(s), len(t)) - 1
        expected = [0] * (n + 1)
        power = one(n)
        for k in range(n + 1):
            expected = [e + s[k] * c for e, c in zip(expected, power)]
            power = _conv(power, t, n)
        assert _compose_raw([s[: n + 1]], t, n) == [expected]

    @given(small_series, small_series)
    def test_mul_commutative(self, s, t):
        n = min(len(s), len(t)) - 1
        assert _conv(s, t, n) == _conv(t, s, n)

    @given(small_series, small_series, small_series)
    @settings(max_examples=60)
    def test_mul_associative(self, s, t, u):
        n = min(len(s), len(t), len(u)) - 1
        assert _conv(_conv(s, t, n), u, n) == _conv(s, _conv(t, u, n), n)

    @given(small_series, small_series, small_series)
    @settings(max_examples=60)
    def test_distributive(self, s, t, u):
        n = min(len(s), len(t), len(u)) - 1
        t_plus_u = [a + b for a, b in zip(t, u)]
        lhs = _conv(s, t_plus_u, n)
        rhs = [a + b for a, b in zip(_conv(s, t, n), _conv(s, u, n))]
        assert lhs == rhs

    @given(unit_series)
    def test_reciprocal_involution(self, s):
        n = len(s) - 1
        assert _div_raw((1,), _div_raw((1,), s, n), n) == s

    @given(unit_series)
    def test_reciprocal_is_inverse(self, s):
        n = len(s) - 1
        assert _conv(s, _div_raw((1,), s, n), n) == one(n)

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


def _sum_of_powers(outer, inner, n):
    """Reference composition: sum_k outer[k] inner^k, powers by repeated products."""
    expected = [0] * (n + 1)
    power = one(n)
    for c in outer:
        expected = [e + c * p for e, p in zip(expected, power)]
        power = _conv(power, inner, n)
    return expected


def _record_conv_degrees(monkeypatch):
    """Wrap the product kernel so that it records the degree n of every call."""
    degrees = []
    real = power_series._conv

    def recording(a, b, n):
        degrees.append(n)
        return real(a, b, n)

    monkeypatch.setattr(power_series, "_conv", recording)
    return degrees


@st.composite
def sparse_outers(draw):
    """Polynomials with one to five nonzero coefficients, gaps of 1 to 20 apart."""
    outer = [0] * draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 5))):
        outer += [0] * (draw(st.integers(1, 20)) - 1) + [draw(small_int.filter(bool))]
    return outer


class TestSparseKernels:
    @settings(max_examples=150, deadline=None)
    @given(sparse_outers(), small_inner, st.integers(0, 40))
    def test_compose_is_sum_of_powers_for_sparse_outers(self, outer, inner, n):
        assert _compose_raw([outer], inner, n) == [_sum_of_powers(outer, inner, n)]

    @settings(max_examples=100, deadline=None)
    @given(sparse_outers(), sparse_outers(), small_inner, st.integers(0, 40))
    def test_composing_outers_together_equals_composing_each_alone(self, first, second, inner, n):
        together = _compose_raw([first, second], inner, n)
        assert together == [*_compose_raw([first], inner, n), *_compose_raw([second], inner, n)]

    def test_compose_ignores_outer_terms_above_the_degree(self, monkeypatch):
        # inner^50 vanishes mod x^4, so no product is taken for it
        degrees = _record_conv_degrees(monkeypatch)
        assert _compose_raw([[0] * 50 + [1]], [0, 1, 1, 1], 3) == [[0, 0, 0, 0]]
        assert degrees == []

    def test_high_power_is_built_only_as_far_as_it_is_read(self, monkeypatch):
        # y + y^599 over y = x/(1-x): Horner multiplies by y^598 and by y at
        # degree 599, and y^598 = y^299 y^299 is the one table entry read that
        # far; its halves are read only up to degree 300 and below
        n = 599
        degrees = _record_conv_degrees(monkeypatch)
        composed = _compose_raw([[0, 1] + [0] * 597 + [1]], [0] + [1] * n, n)
        assert composed == [[0] + [1] * (n - 1) + [2]]
        assert degrees.count(n) <= 3

    @given(small_series, small_series, st.integers(0, 8))
    def test_zero_padding_of_the_second_operand_changes_nothing(self, a, b, pad):
        # products and quotients skip b's zeros at either end
        n = len(a) + pad
        padded = [0] * pad + b + [0] * pad
        shifted = _conv(a, [0] * pad + b, n)
        assert _conv(a, padded, n) == shifted
        if b[0] in (1, -1):
            assert _div_raw(a, b + [0] * n, n) == _div_raw(a, b, n)


@st.composite
def sparse_symbols(draw, top=60):
    """Symbols of degree <= top whose P and Q each have 2 to 4 nonzero coefficients."""
    unit = draw(st.sampled_from([1, -1, 2, -2, 3, -3]))
    num, den = [0, unit], [unit]
    for poly, lowest in ((num, 2), (den, 1)):
        for k in draw(st.sets(st.integers(lowest, top), min_size=1, max_size=3)):
            poly += [0] * (k + 1 - len(poly))
            poly[k] = draw(small_int.filter(bool))
    return ReversiveSymbol("sparse", num, den)


def _assert_routes_agree(sym, n):
    """Route 2 equals Lagrange to degree n, or both raise with the same text."""
    outcomes = []
    for route in (revert_direct, lagrange_coefficients):
        try:
            outcomes.append(route(sym, n))
        except NonIntegerCoefficient as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], list):
        assert verify_inverse(sym, outcomes[0])


class TestSparseSymbols:
    @settings(max_examples=60, deadline=None)
    @given(sparse_symbols())
    def test_direct_reversion_equals_lagrange(self, sym):
        # N passes the symbol's degree, so every row of route 2 is reached
        _assert_routes_agree(sym, max(len(sym.numerator), len(sym.denominator)) + 3)

    @settings(max_examples=150, deadline=None)
    @given(sparse_symbols(top=16))
    def test_square_rows_at_every_level_of_halving_equal_lagrange(self, sym):
        # exponents up to 16 halve into squares such as 16 = 8 + 8 = ...
        # = 1 + 1, beside odd rows such as 7 = 3 + 4, each filled at both
        # parities of the column
        _assert_routes_agree(sym, 30)


def _catalog_symbol(name):
    for entry in catalog():
        if entry.symbol.name == name:
            return entry.symbol
    raise KeyError(name)


class TestSymbolSeries:
    # P/Q as a series, by the one division; the certificates avoid it
    @pytest.mark.parametrize("name, k, expected", [
        ("schroeder", 4, [0, 1, -1, -1, -1]),
        ("catalan", 4, [0, 1, -1, 0, 0]),
        ("eventiles", 5, [0, 1, 0, -1, 0, -1]),
    ], ids=["schroeder", "catalan-is-polynomial", "eventiles"])
    def test_catalog_expansion(self, name, k, expected):
        sym = _catalog_symbol(name)
        assert _div_raw(sym.numerator, sym.denominator, k) == expected

    def test_expansion_starts_with_unit_slope(self):
        for sym in (entry.symbol for entry in catalog()):
            assert _div_raw(sym.numerator, sym.denominator, 6)[:2] == [0, 1], sym.name

    def test_non_integral_expansion_raises(self):
        # (2F - F^2)/2 = F - F^2/2
        sym = parse_symbol("(0,2,-1)/(2)")
        with pytest.raises(NonIntegerCoefficient, match=r"^quotient_2 = -1/2 is not an integer$"):
            _div_raw(sym.numerator, sym.denominator, 3)


class TestLagrange:
    def test_catalan_terms_match_exhaustive_triangulations(self):
        expected = enumerate_counts(5, TRIANGLES_ONLY)
        assert expected == [1, 1, 2, 5, 14, 42]
        assert lagrange_coefficients(_catalog_symbol("catalan"), 5) == expected

    def test_schroeder_terms_match_exhaustive_dissections(self):
        expected = enumerate_counts(5, ANY_TILES)
        assert expected == [1, 1, 3, 11, 45, 197]
        assert lagrange_coefficients(_catalog_symbol("schroeder"), 5) == expected

    def test_triangle_free_terms_match_exhaustive(self):
        expected = enumerate_counts(6, NO_TRIANGLES)
        assert expected == [1, 0, 1, 1, 4, 8, 25]
        assert lagrange_coefficients(_catalog_symbol("trianglefree"), 6) == expected

    def test_even_terms_match_exhaustive_and_vanish_at_odd(self):
        expected = enumerate_counts(6, EVEN_ONLY)
        assert expected == [1, 0, 1, 0, 4, 0, 21]
        assert lagrange_coefficients(_catalog_symbol("eventiles"), 6) == expected

    def test_n_zero_gives_single_term(self):
        for sym in (entry.symbol for entry in catalog()):
            assert lagrange_coefficients(sym, 0) == revert_direct(sym, 0) == [1]

    def test_negative_n_raises(self):
        for route in (lagrange_coefficients, revert_direct):
            with pytest.raises(ValueError, match=r"^N must be >= 0$"):
                route(_catalog_symbol("catalan"), -1)

    def test_non_integer_coefficient_raises(self):
        # unit slope (2/2), but the inverse series is not integral
        bad = ReversiveSymbol("bad", (0, 2, -1), (2,))
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
        _assert_routes_agree(sym, 20)

    @pytest.mark.parametrize("name, most", [("catalan", 10_100), ("trianglefree", 30_000)])
    def test_square_rows_take_half_the_products(self, monkeypatch, name, most):
        # catalan reads only F^2, a square of about n/2 products per column
        # where a general row takes n; trianglefree's row 2 is a square and
        # its row 3 = 1 + 2 is not
        count = 0
        real = power_series.mul

        def counting(a, b):
            nonlocal count
            count += 1
            return real(a, b)

        monkeypatch.setattr(power_series, "mul", counting)
        sym = _catalog_symbol(name)
        assert revert_direct(sym, 200) == lagrange_coefficients(sym, 200)
        assert count <= most
