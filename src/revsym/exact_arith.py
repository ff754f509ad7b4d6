"""Exact scalar arithmetic: generalized binomials and the one checked division.

Python's built-in ``int`` is already an arbitrary-precision integer, so it
is used directly as the one scalar type.  What this module adds is the
binomial-coefficient convention the rest of the package depends on,
:func:`exact_div`, the division that refuses to round, and the decimal
text of an integer of any length.  The closed forms, the series division
kernel and both reversion routes divide through :func:`exact_div`, so
every non-integral quotient raises the same :class:`NonIntegerCoefficient`.
"""

from __future__ import annotations

import sys
from math import comb, gcd

__all__ = [
    "NonIntegerCoefficient",
    "binomial",
    "exact_div",
]


class NonIntegerCoefficient(ArithmeticError):
    """A quotient that must be an integer is not one.

    Raised instead of rounding: every sequence term in this package is an
    exact integer, so a failed division signals a formula or convention bug
    or a symbol whose inverse series is not integral.
    """


def binomial(r: int, k: int) -> int:
    """Generalized binomial coefficient C(r, k) for any integers r, k.

    Convention:
      * k < 0           -> 0
      * k >= 0, any r   -> r(r-1)...(r-k+1) / k!

    The falling-factorial form is an exact integer for every integer r,
    including negative upper arguments, e.g. C(-1, 2) = (-1)(-2)/2 = 1.
    For r < 0 this is evaluated as (-1)^k * C(k - r - 1, k).
    """
    if k < 0:
        return 0
    if r >= 0:
        return comb(r, k) if k <= r else 0
    sign = -1 if k % 2 else 1
    return sign * comb(k - r - 1, k)


def exact_div(value: int, divisor: int, index: int, name: str = "a") -> int:
    """<name>_<index> = value / divisor as an exact int.

    Raises NonIntegerCoefficient, with the reduced value, where divisor does
    not divide value, and ZeroDivisionError for a zero divisor.
    """
    q, r = divmod(value, divisor)
    if r != 0:
        g = gcd(value, divisor) if divisor > 0 else -gcd(value, divisor)
        raise NonIntegerCoefficient(
            f"{name}_{index} = {_decimal(value // g)}/{_decimal(divisor // g)} is not an integer"
        )
    return q


def _decimal(value: int) -> str:
    """An integer in decimal, however many digits it has.

    The interpreter's int-to-str digit limit, which guards the parsing of
    input, is lifted for this one conversion and then restored.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return str(value)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)
