"""Exact scalar arithmetic: the one checked division.

Python's built-in ``int`` is already an arbitrary-precision integer, so it
is used directly as the one scalar type, and :func:`math.comb` is the one
binomial coefficient.  What this module adds is :func:`exact_div`, the
division that refuses to round, and the lifted digit limit under which a
term of any length is written out in decimal.  The limit itself, which
CPython has had since 3.10.7 (the package's floor), guards the parsing of
input: an oversized number in a symbol, a tile spec, a config file or a
count is refused before its conversion can take quadratic time.
Every scalar division goes through :func:`exact_div`: the closed forms'
prefactors, Lagrange's 1/(n c^{n-1}), direct reversion's 1/c and the unroll's
1/L(m), so every non-integral quotient raises the same
:class:`NonIntegerCoefficient`.  The series quotient in
:mod:`revsym.power_series` is by a series with constant term 1 and divides
nothing.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from math import gcd
from typing import Iterator

__all__ = [
    "NonIntegerCoefficient",
    "exact_div",
]


class NonIntegerCoefficient(ArithmeticError):
    """A quotient that must be an integer is not one.

    Raised instead of rounding: every sequence term in this package is an
    exact integer, so a failed division signals a formula or convention bug
    or a symbol whose inverse series is not integral.
    """


def exact_div(value: int, divisor: int, index: int) -> int:
    """a_<index> = value / divisor as an exact int.

    Raises NonIntegerCoefficient, with the reduced value, where divisor does
    not divide value, and ZeroDivisionError for a zero divisor.
    """
    q, r = divmod(value, divisor)
    if r != 0:
        g = gcd(value, divisor) if divisor > 0 else -gcd(value, divisor)
        with _unlimited_digits():
            message = f"a_{index} = {value // g}/{divisor // g} is not an integer"
        raise NonIntegerCoefficient(message)
    return q


@contextmanager
def _unlimited_digits() -> Iterator[None]:
    """Lift the interpreter's int-to-str digit limit for the block, and restore it after.

    The limit guards the parsing of input; a term of any length may be
    written out.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
