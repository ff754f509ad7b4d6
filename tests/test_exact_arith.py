"""Checked division, and the interpreter floor its digit limit needs."""

import sys
from pathlib import Path

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

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(7, 0, 0)

    @given(st.integers(-10**12, 10**12), st.integers(-10**6, 10**6).filter(lambda b: b != 0))
    def test_round_trip(self, a, b):
        assert exact_div(a * b, b, 0) == a


class TestInterpreterFloor:
    def test_floor_has_the_int_str_digit_limit(self):
        # _unlimited_digits calls sys.get_int_max_str_digits, and the input guard is
        # that limit: CPython has both since 3.10.7; read as text, since 3.10 has no tomllib
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        lines = [line for line in pyproject.splitlines() if line.startswith("requires-python")]
        assert len(lines) == 1, lines
        spec = lines[0].split("=", 1)[1].strip().strip('"')
        assert spec.startswith(">="), spec
        floor = tuple(int(part) for part in spec[2:].split(",")[0].strip().split("."))
        assert floor + (0,) * (3 - len(floor)) >= (3, 10, 7), spec
