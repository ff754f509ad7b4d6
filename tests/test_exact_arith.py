"""Binomial convention and checked division."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

from revsym.exact_arith import NonIntegerCoefficient, binomial, exact_div


class TestBinomial:
    def test_standard_value(self):
        assert binomial(4, 2) == 6

    def test_negative_lower_is_zero(self):
        # needed so the k=0 term C(n-1, -1) of the triangle-free sum vanishes
        assert binomial(3, -1) == 0
        assert binomial(-5, -2) == 0

    def test_generalized_upper(self):
        assert binomial(-1, 2) == 1  # (-1)(-2)/2!
        assert binomial(-1, 3) == -1
        assert binomial(-2, 4) == 5

    def test_empty_product(self):
        assert binomial(0, 0) == 1
        assert binomial(-7, 0) == 1

    def test_upper_below_lower_is_zero(self):
        for r in range(0, 12):
            for k in range(r + 1, r + 6):
                assert binomial(r, k) == 0

    def test_factorial_cross_check(self):
        # independent oracle: r!/(k!(r-k)!) for 0 <= k <= r <= 30
        for r in range(31):
            for k in range(r + 1):
                expected = math.factorial(r) // (math.factorial(k) * math.factorial(r - k))
                assert binomial(r, k) == expected

    def test_falling_factorial_cross_check(self):
        # independent oracle for negative upper arguments
        for r in range(-12, 0):
            for k in range(0, 10):
                num = 1
                for i in range(k):
                    num *= r - i
                assert binomial(r, k) * math.factorial(k) == num

    @given(st.integers(-60, 60), st.integers(0, 40))
    def test_pascal_recurrence(self, r, k):
        assert binomial(r, k) == binomial(r - 1, k - 1) + binomial(r - 1, k)


class TestExactDiv:
    def test_plain(self):
        assert exact_div(20, 5, 0) == 4

    def test_schroeder_prefactor(self):
        # 44 is the raw inner sum of the n=3 dissection formula; dividing by
        # n+1 = 4 must give the 11 pentagon dissections counted exhaustively
        assert exact_div(44, 4, 3) == 11

    def test_negative_operands(self):
        assert exact_div(-20, 5, 0) == -4
        assert exact_div(20, -5, 0) == -4
        assert exact_div(-20, -5, 0) == 4

    def test_indivisible_raises(self):
        with pytest.raises(NonIntegerCoefficient, match=r"^a_3 = 7/2 is not an integer$"):
            exact_div(7, 2, 3)
        with pytest.raises(NonIntegerCoefficient, match=r"^quotient_0 = -1/3 is not an integer$"):
            exact_div(2, -6, 0, "quotient")
        # a 5,000-digit numerator, beyond the interpreter's default str() digit limit
        limit = sys.get_int_max_str_digits()
        with pytest.raises(NonIntegerCoefficient) as exc:
            exact_div(-(10**5000 - 1) * 3, 6, 7)
        assert sys.get_int_max_str_digits() == limit
        assert str(exc.value) == f"a_7 = -{'9' * 5000}/2 is not an integer"

    def test_indivisible_raises_on_a_python_without_the_digit_limit(self, monkeypatch):
        # Python 3.10 before 3.10.7 has neither function; str() then has no limit to lift
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        with pytest.raises(NonIntegerCoefficient, match=r"^a_3 = 7/2 is not an integer$"):
            exact_div(7, 2, 3)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(7, 0, 0)

    @given(st.integers(-10**12, 10**12), st.integers(-10**6, 10**6).filter(lambda b: b != 0))
    def test_round_trip(self, a, b):
        assert exact_div(a * b, b, 0) == a
