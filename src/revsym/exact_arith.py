"""Exact scalar arithmetic: generalized binomials and the one checked division.

Python's built-in ``int`` is already an arbitrary-precision integer, so it
is used directly as the one scalar type.  What this module adds is the
binomial-coefficient convention the rest of the package depends on, and
:func:`exact_div`, the division that refuses to round.  The closed forms,
the series division kernel and both reversion routes divide through it, so
every non-integral quotient raises the same :class:`NonIntegerCoefficient`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

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
        raise NonIntegerCoefficient(f"{name}_{index} = {Fraction(value, divisor)} is not an integer")
    return q
