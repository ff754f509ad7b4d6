"""Checked division."""

import sys

import pytest
from hypothesis import given, strategies as st

from revsym.exact_arith import NonIntegerCoefficient, exact_div


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
        with pytest.raises(NonIntegerCoefficient, match=r"^a_0 = -1/3 is not an integer$"):
            exact_div(2, -6, 0)
        with pytest.raises(TypeError):
            exact_div(2, -6, 0, "quotient")  # every message names a term a_<index>
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
