"""Series kernels on int lists, the two reversion routes, a symbol as a series, the
tile-equation counter (route 4), and the two certificates, verify_inverse and
verify_tautological."""

import contextlib
from math import comb, perm

import pytest
from hypothesis import assume, given, settings, strategies as st

from revsym import power_series
from revsym.exact_arith import NonIntegerCoefficient, exact_div
from revsym.power_series import (
    _compose_raw,
    _conv,
    _div_raw,
    _halving_plan,
    count_by_series,
    lagrange_coefficients,
    revert_direct,
    unroll_ode,
    verify_inverse,
    verify_tautological,
)
from revsym.symbols import (
    ANY_TILES,
    EVEN_ONLY,
    NO_TRIANGLES,
    ODD_ONLY,
    TRIANGLES_ONLY,
    ReversiveSymbol,
    TileRule,
    catalog,
    parse_symbol,
    parse_tile_spec,
    symbol_from_tile_rule,
)
from revsym.dissection_oracle import enumerate_counts

from shared import ALL_RULES, CUSTOM_RULES, TAIL_RULES, catalog_entry


def one(n):
    return [1] + [0] * n


small_int = st.integers(min_value=-4, max_value=4)
small_series = st.lists(small_int, min_size=1, max_size=6)
small_inner = st.lists(small_int, max_size=5).map(lambda cs: [0, *cs])
monic_series = st.lists(small_int, max_size=5).map(lambda cs: [1, *cs])
non_unit_constant = st.sampled_from([2, -1, 0])


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
        assert _div_raw((3,), [1], 0) == [3]
        with pytest.raises(ValueError, match=r"^the divisor's constant term is 2, not 1$"):
            _div_raw((1,), [2], 0)

    def test_reciprocal_nonunit_raises(self):
        # the counter and Lagrange divide by constant term 1, so the kernel
        # takes no other, not even a unit or a zero
        for q0 in (-1, 0):
            with pytest.raises(ValueError, match=rf"^the divisor's constant term is {q0}, not 1$"):
                _div_raw([1], [q0, 1], 2)

    def test_compose_identity_inner(self):
        assert _compose_raw([[1, 1, 1]], [0, 1, 0], [2]) == [[1, 1, 1]]

    def test_compose_catalan_start(self):
        # (x + x^2) - (x + x^2)^2 = x - 2x^3 - x^4, so x to degree 2
        assert _compose_raw([[0, 1, -1]], [0, 1, 1], [2]) == [[0, 1, 0]]

    @given(small_series, small_inner)
    def test_compose_is_sum_of_powers(self, s, t):
        n = min(len(s), len(t)) - 1
        expected = [0] * (n + 1)
        power = one(n)
        for k in range(n + 1):
            expected = [e + s[k] * c for e, c in zip(expected, power)]
            power = _conv(power, t, n)
        assert _compose_raw([s[: n + 1]], t, [n]) == [expected]

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

    @given(monic_series)
    def test_reciprocal_involution(self, s):
        n = len(s) - 1
        assert _div_raw((1,), _div_raw((1,), s, n), n) == s

    @given(monic_series)
    def test_reciprocal_is_inverse(self, s):
        n = len(s) - 1
        assert _conv(s, _div_raw((1,), s, n), n) == one(n)

    @given(small_series, monic_series)
    def test_division_undoes_product(self, p, q):
        n = len(p) - 1
        assert _div_raw(_conv(p, q, n), q, n) == p

    @given(small_series, non_unit_constant, st.lists(small_int, max_size=5), st.data())
    def test_division_that_is_not_exact_raises(self, p, q0, q_rest, data):
        # a divisor whose constant term is not 1 is refused before any step,
        # whether p*q / q is exact or (p*q + x^m) / q leaves the integers
        q = [q0, *q_rest]
        n = len(p) - 1
        m = data.draw(st.integers(min_value=0, max_value=n))
        dividend = _conv(p, q, n)
        for extra in (0, 1):
            dividend[m] += extra
            with pytest.raises(ValueError, match=rf"^the divisor's constant term is {q0}, not 1$"):
                _div_raw(dividend, q, n)


def _sum_of_powers(outer, inner, n):
    """Reference composition: sum_k outer[k] inner^k, powers by repeated products."""
    expected = [0] * (n + 1)
    power = one(n)
    for c in outer:
        expected = [e + c * p for e, p in zip(expected, power)]
        power = _conv(power, inner, n)
    return expected


class _Factor(int):
    """An int that logs the index pair of every product it is the left factor of."""

    def __new__(cls, value, index, log):
        factor = super().__new__(cls, value)
        factor.index, factor.log = index, log
        return factor

    def __mul__(self, other):
        self.log.append((self.index, other.index))
        return int(self) * int(other)

    def __rmul__(self, other):
        # 2 * factor, a doubled coefficient: no product of two coefficients, and it keeps its index
        return _Factor(other * int(self), self.index, self.log)


class _Point(int):
    """An int that logs every product it is a factor of."""

    def __new__(cls, value, log):
        point = super().__new__(cls, value)
        point.log = log
        return point

    def __mul__(self, other):
        self.log.append(None)
        return int(self) * other

    __rmul__ = __mul__


def _factors(coeffs, log):
    return [_Factor(c, k, log) for k, c in enumerate(coeffs)]


def _count_row_products(monkeypatch):
    """A list as long as the number of products route 2 takes: it fills its rows through ``mul`` alone."""
    products = []
    real = power_series.mul

    def counting(a, b):
        products.append(None)
        return real(a, b)

    monkeypatch.setattr(power_series, "mul", counting)
    return products


def _record_table_builds(monkeypatch):
    """Per call of the composition kernel, the ``(k, n)`` of each power inner^k that a product builds at degree n.

    A product is a table entry when both operands are the inner series or
    entries built from it in the same call; Horner's products multiply a
    running sum by an entry, and the sum is neither.
    """
    steps = []
    exponent = {}  # id of the inner or an entry -> (the list, kept alive, and its k)
    real_compose, real_conv = power_series._compose_raw, power_series._conv

    def compose(outers, inner, degrees):
        exponent.clear()
        exponent[id(inner)] = (inner, 1)
        steps.append([])
        return real_compose(outers, inner, degrees)

    def conv(a, b, n, lo=0):
        out = real_conv(a, b, n, lo)
        if id(a) in exponent and id(b) in exponent:
            k = exponent[id(a)][1] + exponent[id(b)][1]
            exponent[id(out)] = (out, k)
            steps[-1].append((k, n))
        return out

    monkeypatch.setattr(power_series, "_compose_raw", compose)
    monkeypatch.setattr(power_series, "_conv", conv)
    return steps


def _record_conv_calls(monkeypatch):
    """Wrap the product kernel so that it records ``(n, lo)`` for every call."""
    calls = []
    real = power_series._conv

    def recording(a, b, n, lo=0):
        calls.append((n, lo))
        return real(a, b, n, lo)

    monkeypatch.setattr(power_series, "_conv", recording)
    return calls


@st.composite
def sparse_outers(draw):
    """Polynomials with one to five nonzero coefficients, gaps of 1 to 20 apart."""
    outer = [0] * draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 5))):
        outer += [0] * (draw(st.integers(1, 20)) - 1) + [draw(small_int.filter(bool))]
    return outer


class TestConvLowerBound:
    @settings(max_examples=200, deadline=None)
    @given(small_series, st.lists(small_int, max_size=8), st.integers(0, 12), st.integers(0, 14))
    def test_takes_no_product_below_lo(self, a, b, n, lo):
        log = []
        out = _conv(_factors(a, log), _factors(b, log), n, lo)
        # every product it needs, each once, and none below degree lo
        assert sorted(log) == [(i, j) for i, ai in enumerate(a) for j, bj in enumerate(b)
                               if ai and bj and lo <= i + j <= n]
        assert out == [c if k >= lo else 0 for k, c in enumerate(_conv(a, b, n))]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(small_int, max_size=10), st.integers(0, 20), st.integers(0, 22))
    def test_square_equals_the_product_of_two_lists(self, s, n, lo):
        # the same list twice takes the square branch, a copy the general one
        assert _conv(s, s, n, lo) == _conv(s, list(s), n, lo)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(small_int, max_size=10), st.integers(0, 20))
    def test_square_takes_each_unordered_pair_once(self, a, n):
        log = []
        factors = _factors(a, log)
        _conv(factors, factors, n)
        # a_i a_j and a_j a_i are one product, doubled, and a_i^2 is taken once
        assert sorted(log) == [(i, j) for i, ai in enumerate(a) for j, aj in enumerate(a)
                               if i <= j and ai and aj and i + j <= n]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_int, max_size=10), st.integers(0, 20), st.integers(1, 22))
    def test_square_from_above_degree_0_takes_every_ordered_pair(self, a, n, lo):
        # no caller squares from above degree 0, so such a square takes the general loop
        log = []
        factors = _factors(a, log)
        _conv(factors, factors, n, lo)
        assert sorted(log) == [(i, j) for i, ai in enumerate(a) for j, aj in enumerate(a)
                               if ai and aj and lo <= i + j <= n]


class TestSparseKernels:
    @settings(max_examples=150, deadline=None)
    @given(sparse_outers(), small_inner, st.integers(0, 40))
    def test_compose_is_sum_of_powers_for_sparse_outers(self, outer, inner, n):
        assert _compose_raw([outer], inner, [n]) == [_sum_of_powers(outer, inner, n)]

    @settings(max_examples=100, deadline=None)
    @given(sparse_outers(), sparse_outers(), small_inner, st.integers(0, 40), st.integers(-1, 40))
    def test_composing_outers_together_equals_composing_each_alone(self, first, second, inner, n, m):
        # each outer at its own degree, over one table of powers read to the larger
        together = _compose_raw([first, second], inner, [n, m])
        assert together == [*_compose_raw([first], inner, [n]), *_compose_raw([second], inner, [m])]

    def test_compose_ignores_outer_terms_above_the_degree(self, monkeypatch):
        # inner^50 vanishes mod x^4, so no product is taken for it
        calls = _record_conv_calls(monkeypatch)
        assert _compose_raw([[0] * 50 + [1]], [0, 1, 1, 1], [3]) == [[0, 0, 0, 0]]
        assert calls == []

    def test_each_half_is_built_to_the_degree_it_is_read(self, monkeypatch):
        # y^7 = y^3 y^4 at degree 20; y^h starts at degree h, so y^3 is read
        # to 20 - 4 and y^4 to 20 - 3, and y^2, half of both y^4 = y^2 y^2
        # and y^3 = y y^2, to 17 - 2 = 16 - 1 = 15
        assert _halving_plan({7: 20}) == {7: 20, 4: 17, 3: 16, 2: 15}
        calls = _record_conv_calls(monkeypatch)
        n = 20
        composed = _compose_raw([[0] * 7 + [1]], [0] + [1] * n, [n])  # y^7, y = x/(1-x)
        assert composed == [[0] * 7 + [comb(d - 1, 6) for d in range(7, n + 1)]]
        # y^2, y^3, y^4 and y^7, then one Horner product by y^7
        assert calls == [(15, 0), (16, 0), (17, 0), (20, 0), (20, 0)]

    def test_high_power_is_built_only_as_far_as_it_is_read(self, monkeypatch):
        # y + y^599 over y = x/(1-x): Horner multiplies by y^598 and by y at
        # degree 599, and y^598 = y^299 y^299 is the one table entry read that
        # far; its halves are read only up to degree 300 and below
        n = 599
        calls = _record_conv_calls(monkeypatch)
        composed = _compose_raw([[0, 1] + [0] * 597 + [1]], [0] + [1] * n, [n])
        assert composed == [[0] + [1] * (n - 1) + [2]]
        assert [m for m, _ in calls].count(n) <= 3

    @given(small_series, small_series, st.integers(0, 8))
    def test_zero_padding_of_the_second_operand_changes_nothing(self, a, b, pad):
        # products and quotients skip b's zeros at either end
        n = len(a) + pad
        padded = [0] * pad + b + [0] * pad
        shifted = _conv(a, [0] * pad + b, n)
        assert _conv(a, padded, n) == shifted
        monic = [1, *b[1:]]
        assert _div_raw(a, monic + [0] * n, n) == _div_raw(a, monic, n)


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


class TestSymbolSeries:
    # P/Q as a series, by the quotient kernel, for q_0 = 1; the certificates avoid it
    @pytest.mark.parametrize("name, k, expected", [
        ("schroeder", 4, [0, 1, -1, -1, -1]),
        ("catalan", 4, [0, 1, -1, 0, 0]),
        ("eventiles", 5, [0, 1, 0, -1, 0, -1]),
    ], ids=["schroeder", "catalan-is-polynomial", "eventiles"])
    def test_catalog_expansion(self, name, k, expected):
        sym = catalog_entry(name).symbol
        assert _div_raw(sym.numerator, sym.denominator, k) == expected

    def test_expansion_starts_with_unit_slope(self):
        for sym in (entry.symbol for entry in catalog()):
            assert _div_raw(sym.numerator, sym.denominator, 6)[:2] == [0, 1], sym.name

    def test_non_integral_expansion_raises(self):
        # (2F - F^2)/2 = F - F^2/2: the kernel divides by no q_0 but 1
        sym = parse_symbol("(0,2,-1)/(2)")
        with pytest.raises(ValueError, match=r"^the divisor's constant term is 2, not 1$"):
            _div_raw(sym.numerator, sym.denominator, 3)


class TestLagrange:
    @pytest.mark.parametrize("name, rule, n, expected", [
        ("catalan", TRIANGLES_ONLY, 5, [1, 1, 2, 5, 14, 42]),
        ("schroeder", ANY_TILES, 5, [1, 1, 3, 11, 45, 197]),
        ("trianglefree", NO_TRIANGLES, 6, [1, 0, 1, 1, 4, 8, 25]),
        ("eventiles", EVEN_ONLY, 6, [1, 0, 1, 0, 4, 0, 21]),  # vanishes at odd n
    ], ids=["catalan", "schroeder", "trianglefree", "eventiles"])
    def test_terms_match_exhaustive_enumeration(self, name, rule, n, expected):
        assert enumerate_counts(n, rule) == expected
        assert lagrange_coefficients(catalog_entry(name).symbol, n) == expected

    def test_n_zero_gives_single_term(self):
        for sym in (entry.symbol for entry in catalog()):
            assert lagrange_coefficients(sym, 0) == revert_direct(sym, 0) == [1]

    def test_negative_n_raises(self):
        for route in (lagrange_coefficients, revert_direct):
            with pytest.raises(ValueError, match=r"^N must be >= 0$"):
                route(catalog_entry("catalan").symbol, -1)

    def test_non_integer_coefficient_raises(self):
        # unit slope (2/2), but the inverse series is not integral
        bad = ReversiveSymbol("bad", (0, 2, -1), (2,))
        for route in (lagrange_coefficients, revert_direct):
            with pytest.raises(NonIntegerCoefficient, match=r"^a_1 = 1/2 is not an integer$"):
                route(bad, 3)


def _unroll_by_coefficient(ode, N):
    """The unroll term by term: one product per coefficient c_{k,j}, its falling factorial from perm."""
    if N < 0:
        raise ValueError("N must be >= 0")
    constant = ode[0]
    terms = [(k - j, k, c) for k, row in enumerate(ode[1:]) for j, c in enumerate(row) if c]
    lead = max(terms)[0]
    if lead > 2:
        raise ValueError(f"the recurrence's leading shift {lead} exceeds 2")
    f = [0, 1]
    for m in range(2, N + 2):
        n = m - lead
        rhs = -constant[n] if n < len(constant) else 0
        divisor = 0
        for s, k, c in terms:
            i = n + s
            if i == m:
                divisor += c * perm(m, k)
            elif i >= 0:
                rhs -= c * perm(i, k) * f[i]
        f.append(exact_div(rhs, divisor, m - 1))
    return f[1:]


def _outcome(unroll, ode, N):
    """The terms, or the type and text of what the unroll raised."""
    try:
        return unroll(ode, N)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def random_odes(draw):
    """Equations of order <= 3 and x-degree <= 3, coefficients in -3..3, leading shift <= 2."""
    small = st.integers(-3, 3)
    ode = [draw(st.lists(small, max_size=4))]  # the constant column
    for k in range(draw(st.integers(1, 4))):
        ode.append([c if k - j <= 2 else 0 for j, c in enumerate(draw(st.lists(small, max_size=4)))])
    assume(any(map(any, ode[1:])))
    return tuple(map(tuple, ode))


@st.composite
def unit_leading_odes(draw):
    """Equations +-F + sum_{j > k} c_{k,j} x^j F^(k) = the constant column, of order <= 3.

    The leading shift is 0 and L = +-1, so every term is an integer and the
    unroll runs to N; each lower shift s = k - j lies in -4..-1 and folds
    into a polynomial of degree k, coefficients in -3..3.
    """
    small = st.integers(-3, 3)
    ode = [draw(st.lists(small, max_size=4))]  # the constant column
    for k in range(draw(st.integers(1, 4))):
        ode.append([0] * (k + 1) + draw(st.lists(small, max_size=4)))
    ode[1][0] = draw(st.sampled_from([-1, 1]))
    return tuple(map(tuple, ode))


class TestUnrollOde:
    """The unroll of a catalog entry's equation from a_0 = 1 alone equals direct reversion."""

    @pytest.mark.parametrize("name", [entry.symbol.name for entry in catalog()])
    def test_equals_direct_reversion(self, name):
        # every leading coefficient vanishes only at f_0 or f_1, so a_0 alone starts it
        sym, *_, ode = catalog_entry(name)
        assert unroll_ode(ode, 300) == revert_direct(sym, 300)

    def test_catalan_from_a_0(self):
        assert unroll_ode(catalog_entry("catalan").ode, 8) == [1, 1, 2, 5, 14, 42, 132, 429, 1430]

    def test_n_zero_gives_a_0(self):
        assert unroll_ode(catalog_entry("schroeder").ode, 0) == [1]

    def test_negative_n_raises(self):
        with pytest.raises(ValueError, match=r"^N must be >= 0$"):
            unroll_ode(catalog_entry("catalan").ode, -1)

    def test_shift_past_two_raises(self):
        # F''' = 0 solves [x^n] for f_{n+3}, so f_1 alone cannot reach f_2
        with pytest.raises(ValueError, match=r"^the recurrence's leading shift 3 exceeds 2$"):
            unroll_ode(((), (), (), (), (1,)), 5)

    def test_wrong_equation_raises(self):
        # (1 - 3x) F' + 2F - 1 = 0 is not catalan's: its f_2 is 1/2
        with pytest.raises(NonIntegerCoefficient, match=r"^a_1 = 1/2 is not an integer$"):
            unroll_ode(((-1,), (2,), (1, -3)), 5)

    @pytest.mark.parametrize("ode", [(), ((1,),), ((), (0,))], ids=["empty", "constant-only", "zero-row"])
    def test_equation_without_a_derivative_term_raises(self, ode):
        with pytest.raises(ValueError, match=r"^the equation has no nonzero coefficient of F or its derivatives$"):
            unroll_ode(ode, 3)

    def test_vanishing_leading_coefficient_raises(self):
        # x F' - 2F = 0 gives (m - 2) f_m = 0, which leaves f_2 free
        with pytest.raises(ZeroDivisionError):
            unroll_ode(((), (-2,), (0, 1)), 3)

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(random_odes(), unit_leading_odes()), st.integers(0, 40))
    def test_fold_per_shift_equals_the_unroll_per_coefficient(self, ode, N):
        # up to 40 terms run each difference chain, of up to 3 orders, well
        # past the differences it starts from, and the first terms of a
        # shift below lead - 2 read f_i below f_0.  Most random equations
        # stop at a non-integral a_1..a_3; those with L = +-1 run to N, so
        # about 4 draws in 10 give nonzero terms past a_0
        assert _outcome(unroll_ode, ode, N) == _outcome(_unroll_by_coefficient, ode, N)

    @pytest.mark.parametrize("name", [entry.symbol.name for entry in catalog()])
    def test_each_shift_is_tabulated_once_and_each_term_takes_one_product_per_lower_shift(self, monkeypatch, name):
        # shift s = k - j folds into a polynomial of degree D = max k over its
        # c_{k,j}.  Its table starts from its D + 1 forward differences and
        # runs on by D running sums, D max(0, N - D) + D (D - 1) / 2
        # additions for N terms, so a zero difference or a table built
        # longer than it is read costs additions, and a table rebuilt per
        # term costs tables.  Each table entry is a _Point, so every product
        # of one by a term is logged
        sym, *_, ode = catalog_entry(name)
        degree = {}
        for k, row in enumerate(ode[1:]):
            for j, c in enumerate(row):
                if c:
                    degree[k - j] = k  # rows come by ascending k
        terms = revert_direct(sym, 40)
        real_tabulate, real_accumulate = power_series._tabulate, power_series.accumulate
        for N in (0, 3, 40):
            tables, additions, products = [], [], []

            def tabulated(poly, start, count):
                tables.append((max(poly), count))
                return [_Point(v, products) for v in real_tabulate(poly, start, count)]

            def summed(column, initial):
                additions.append(len(column))  # one per entry after the initial one
                return real_accumulate(column, initial=initial)

            monkeypatch.setattr(power_series, "_tabulate", tabulated)
            monkeypatch.setattr(power_series, "accumulate", summed)
            assert unroll_ode(ode, N) == terms[:N + 1]
            assert sorted(tables) == sorted((d, N) for d in degree.values())
            assert sum(additions) == sum(d * max(0, N - d) + d * (d - 1) // 2 for d in degree.values())
            assert len(products) == N * (len(degree) - 1)


class TestRevertDirect:
    def test_catalan_shifted(self):
        assert revert_direct(catalog_entry("catalan").symbol, 3) == [1, 1, 2, 5]

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
        products = _count_row_products(monkeypatch)
        sym = catalog_entry(name).symbol
        assert revert_direct(sym, 200) == lagrange_coefficients(sym, 200)
        assert len(products) <= most

    def test_each_product_reads_both_slices_to_the_end(self, monkeypatch):
        # a row entry is one map(mul, ...) over a slice of each factor row;
        # map stops at the shorter, so a longer slice is copied but never read
        lengths = []

        def checked(func, a, b):
            lengths.append((len(a), len(b)))
            return map(func, a, b)

        monkeypatch.setattr(power_series, "map", checked, raising=False)
        # catalan's row 2 is a square, trianglefree's row 3 = 1 + 2 is not,
        # and 3,601 halves its row 600 down to row 2
        for sym, n in [(catalog_entry("catalan").symbol, 60), (catalog_entry("trianglefree").symbol, 60),
                       (symbol_from_tile_rule(parse_tile_spec("3,601")), 599)]:
            revert_direct(sym, n)
        assert lengths and all(a == b for a, b in lengths)

    def test_each_row_is_filled_to_the_last_column_read(self, monkeypatch):
        # 3,601's symbol is (F - F^2 - F^600)/1: row 2 is read to column 600
        # and takes sum_{n=2}^{600} ((n+1)//2 - 1) = 89,700 products.  Row
        # 600 = 300 + 300 is read only at column 600, so row 300 is read
        # only at its own first column, and so on down the halving: the
        # other 12 rows take 6 products together.  Filling every half-row
        # to column 600 would take 1,503,955
        products = _count_row_products(monkeypatch)
        rule = parse_tile_spec("3,601")
        assert revert_direct(symbol_from_tile_rule(rule), 599) == count_by_series(599, rule)
        assert len(products) == 89_706


class TestCountBySeries:
    def test_all_dissections(self):
        assert count_by_series(5, ANY_TILES) == [1, 1, 3, 11, 45, 197]

    def test_triangulations(self):
        assert count_by_series(5, TRIANGLES_ONLY) == [1, 1, 2, 5, 14, 42]

    def test_odd_tiles_pins_later_terms(self):
        # n <= 6 re-derived exhaustively here; the tail values 71 and 264
        # were first produced by this counter and frozen after that check
        got = count_by_series(6, ODD_ONLY)
        assert got == enumerate_counts(6, ODD_ONLY)
        assert got == [1, 1, 2, 6, 20, 71, 264]

    def test_zero_terms(self):
        for rule in ALL_RULES:
            assert count_by_series(0, rule) == [1]

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=r"^need n_max >= 0$"):
            count_by_series(-1, ANY_TILES)

    @pytest.mark.parametrize("rule", ALL_RULES + CUSTOM_RULES, ids=TileRule.label)
    def test_matches_enumeration_to_seven(self, rule):
        assert count_by_series(7, rule) == enumerate_counts(7, rule)

    @pytest.mark.parametrize("rule", ALL_RULES + CUSTOM_RULES + TAIL_RULES, ids=TileRule.label)
    def test_newton_matches_direct_reversion_at_every_precision(self, rule):
        # n = 2^k takes one Newton step more than n = 2^k - 1; 0..40 crosses
        # that boundary for every k <= 5, and 63..128 for k = 6 and 7.  The
        # step to n = 1 reads the Jacobian to degree 0 and the steps to
        # n = 2 and 3 to degree 1
        expected = revert_direct(symbol_from_tile_rule(rule), 128)
        for n in [*range(41), 63, 64, 127, 128]:
            series = count_by_series(n, rule)
            assert all(type(v) is int for v in series)
            assert series == expected[: n + 1], n

    @pytest.mark.parametrize("spec, most", [("3,5,7+", 8), ("4,3+3", 7), ("3+", 4)])
    def test_last_step_reads_the_jacobian_at_half_precision(self, monkeypatch, spec, most):
        # the step to degree 255 composes Ng and Dg at 255 but Ng' and Dg'
        # only at 126, in the same call, so only Ng's and Dg's Horner
        # products, the table entries they read at 255 and psi's two run at
        # the top degree
        calls = _record_conv_calls(monkeypatch)
        count_by_series(255, parse_tile_spec(spec))
        assert [n for n, _ in calls].count(255) <= most

    def test_each_step_takes_its_products_at_fixed_degrees(self, monkeypatch):
        # A = 1 + x A^2 + x^2 A^3 has Ng = y + y^2, Dg = 1.  A step from
        # degree e to n composes Ng at n (two products by xA; y^2 lies
        # above degree 1 in the first step), Ng' = 1 + 2y at m - 1 with
        # m = n - e - 1 (one product, none below degree 0), then takes psi's
        # two products from degree e + 1 and the slope's two at m - 1
        calls = _record_conv_calls(monkeypatch)
        assert count_by_series(20, parse_tile_spec("3,4"))[-1] == 2177832612120
        assert calls == [
            (1, 0), (1, 1), (1, 1), (-1, 0), (-1, 0),  # 0 -> 1
            (2, 0), (2, 0), (2, 2), (2, 2), (-1, 0), (-1, 0),  # 1 -> 2
            (5, 0), (5, 0), (1, 0), (5, 3), (5, 3), (1, 0), (1, 0),  # 2 -> 5
            (10, 0), (10, 0), (3, 0), (10, 6), (10, 6), (3, 0), (3, 0),  # 5 -> 10
            (20, 0), (20, 0), (8, 0), (20, 11), (20, 11), (8, 0), (8, 0),  # 10 -> 20
        ]

    @pytest.mark.parametrize("spec", ["3,5,7+", "4,10"])
    def test_each_step_builds_one_table_of_powers(self, monkeypatch, spec):
        # each step composes Ng, Dg, Ng' and Dg' with xA in one call, so a
        # power of xA that both Ng and Ng' read is built once, by one product
        steps = _record_table_builds(monkeypatch)
        count_by_series(255, parse_tile_spec(spec))
        assert len(steps) == 8  # the steps to 1, 3, 7, ..., 255
        for built in steps:
            exponents = [k for k, _ in built]
            assert len(exponents) == len(set(exponents))
        if spec == "4,10":
            # Ng = y^2 + y^8 reads y^6 and y^2 at 255, and Ng' = 2y + 8y^7
            # reads y^6 at 126; y^6 = y^3 y^3 and y^2 = y y are squares,
            # and y^3 = y y^2 is read to 255 - 3
            assert steps[-1] == [(2, 255), (3, 252), (6, 255)]

    @pytest.mark.parametrize("spec", ["3+", "3,5,7+", "4,3+3"])
    def test_psi_is_computed_from_the_degree_it_is_read(self, monkeypatch, spec):
        # the step from degree e to n = 2e + 1 reads Psi only from degree
        # e + 1, so its two products start there: the steps to 1, 3, ..., 255
        calls = _record_conv_calls(monkeypatch)
        count_by_series(255, parse_tile_spec(spec))
        steps = [(2 * e + 1, e + 1) for e in (0, 1, 3, 7, 15, 31, 63, 127)]
        assert sorted(call for call in calls if call[1]) == sorted(2 * steps)


@st.composite
def sparse_tile_rules(draw):
    """Random sparse rules: one to three sizes in 3..60, plus an optional tail."""
    start = draw(st.none() | st.integers(3, 60))
    sizes = draw(st.frozensets(st.integers(3, 60), min_size=0 if start else 1, max_size=3))
    return TileRule(sizes, start, draw(st.integers(1, 20)))


class TestSparseRules:
    @settings(max_examples=40, deadline=None)
    @given(sparse_tile_rules())
    def test_newton_and_both_reversion_routes_agree(self, rule):
        # N passes the largest size, so every nonzero coefficient of the
        # generating pair takes part in the power tables and rows
        n = max((*rule.sizes, rule.start or 0)) + 8
        series = count_by_series(n, rule)
        symbol = symbol_from_tile_rule(rule)
        assert revert_direct(symbol, n) == series, rule.label()
        assert lagrange_coefficients(symbol, n) == series, rule.label()


def _divisor_constant_terms(route, *args):
    """Run ``route(*args)`` with the quotient kernel wrapped; each divisor's constant term.

    A non-integral term of the route is not the kernel's, so it is let pass.
    """
    constants = []
    real = power_series._div_raw

    def recording(p, q, n):
        constants.append(q[0])
        return real(p, q, n)

    with pytest.MonkeyPatch.context() as patch, contextlib.suppress(NonIntegerCoefficient):
        patch.setattr(power_series, "_div_raw", recording)
        route(*args)
    return constants


class TestUnitDivisors:
    # both series quotients divide by constant term 1, so the kernel divides nothing
    @settings(max_examples=200, deadline=None)
    @given(random_symbols(), st.integers(0, 12))
    def test_lagrange_divides_by_constant_term_1(self, sym, n):
        # P(cu)/(c^2 u) starts at p_1/c = 1
        assert _divisor_constant_terms(lagrange_coefficients, sym, n) == [1]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([*ALL_RULES, *CUSTOM_RULES, *TAIL_RULES, parse_tile_spec("4,3+3"),
                            parse_tile_spec("3,601")]) | sparse_tile_rules(),
           st.integers(0, 40))
    def test_counter_divides_by_constant_term_1(self, rule, n):
        # one Jacobian per Newton step, with constant term Dg(0) - Ng(0) = 1
        assert _divisor_constant_terms(count_by_series, n, rule) == [1] * n.bit_length()


class TestVerifiers:
    def test_verify_inverse_accepts_exhaustive_catalan_counts(self):
        sym, rule, *_ = catalog_entry("catalan")
        terms = enumerate_counts(4, rule)
        assert terms == [1, 1, 2, 5, 14]
        assert verify_inverse(sym, terms)

    def test_verify_inverse_rejects_perturbation(self):
        sym = catalog_entry("catalan").symbol
        assert not verify_inverse(sym, [1, 1, 2, 5, 15])

    def test_verify_inverse_accepts_exhaustive_schroeder_counts(self):
        sym, rule, *_ = catalog_entry("schroeder")
        terms = enumerate_counts(4, rule)
        assert terms == [1, 1, 3, 11, 45]
        assert verify_inverse(sym, terms)

    def test_verify_inverse_needs_no_division(self):
        # schroeder with P and Q doubled has the same inverse; (2F - F^2)/2 has no integral one
        doubled = parse_symbol("(0,2,-4)/(2,-2)")
        assert verify_inverse(doubled, [1, 1, 3, 11, 45])
        assert not verify_inverse(doubled, [1, 1, 3, 11, 46])
        assert not verify_inverse(parse_symbol("(0,2,-1)/(2)"), [1, 0, 0])

    def test_verify_inverse_takes_no_quotient(self, monkeypatch):
        # checked as P(F) = x Q(F), with no quotient P/Q.
        # Lagrange divides, so its terms are computed before the patch
        reverted = [(e.symbol, lagrange_coefficients(e.symbol, 30)) for e in catalog()]

        def no_division(*args):
            raise AssertionError("verify_inverse divided")

        monkeypatch.setattr(power_series, "_div_raw", no_division)
        for sym, terms in reverted:
            assert verify_inverse(sym, terms), sym.name
            terms[30] += 1
            assert not verify_inverse(sym, terms), sym.name

    def test_verify_tautological_needs_no_division(self, monkeypatch):
        # checked as Dg(xA) (A - 1) = A Ng(xA), with no quotient Ng/Dg.
        # Lagrange divides, so its terms are computed before the patch
        tiled = [(e, lagrange_coefficients(e.symbol, 30)) for e in catalog() if e.rule is not None]

        def no_division(*args):
            raise AssertionError("verify_tautological divided")

        monkeypatch.setattr(power_series, "_div_raw", no_division)
        for e, terms in tiled:
            assert verify_tautological(e.rule, terms), e.symbol.name
            terms[30] += 1
            assert not verify_tautological(e.rule, terms), e.symbol.name

    def test_verifiers_need_a_0(self):
        sym, rule, *_ = catalog_entry("catalan")
        with pytest.raises(ValueError, match=r"^need at least a_0$"):
            verify_inverse(sym, [])
        with pytest.raises(ValueError, match=r"^need at least a_0$"):
            verify_tautological(rule, [])

    def test_verify_tautological_accepts_exhaustive_counts(self):
        terms = enumerate_counts(5, NO_TRIANGLES)
        assert terms == [1, 0, 1, 1, 4, 8]
        assert verify_tautological(NO_TRIANGLES, terms)

    def test_verify_tautological_catalan_recurrence(self):
        assert verify_tautological(TRIANGLES_ONLY, [1, 1, 2, 5, 14])

    def test_verify_tautological_rejects_perturbation(self):
        assert not verify_tautological(ANY_TILES, [1, 1, 3, 11, 46])

    def test_all_catalog_symbols_verify_at_depth_sixty(self):
        for e in catalog():
            terms = lagrange_coefficients(e.symbol, 60)
            assert verify_inverse(e.symbol, terms), e.symbol.name
            if e.rule is not None:
                assert verify_tautological(e.rule, terms), e.symbol.name

    def test_custom_rule_closes_the_loop(self):
        # synthesized symbol, reversion terms, exhaustive counts and the
        # tile equation must all tell the same story
        rule = TileRule({3}, start=6)
        sym = symbol_from_tile_rule(rule)
        terms = lagrange_coefficients(sym, 7)
        assert terms == enumerate_counts(7, rule)
        assert verify_inverse(sym, terms)
        assert verify_tautological(rule, terms)
