"""Exact scalar arithmetic: generalized binomials and checked division.

Python's built-in ``int`` is already an arbitrary-precision integer, so it
is used directly as the one scalar type.  What this module adds is the
binomial-coefficient convention the rest of the package depends on, and
division that refuses to round.
"""

from __future__ import annotations

from math import comb

__all__ = [
    "DivisibilityViolation",
    "ZeroDivisor",
    "binomial",
    "exact_div",
]

class ZeroDivisor(ZeroDivisionError):
    """exact_div was asked to divide by zero."""


class DivisibilityViolation(ArithmeticError):
    """A quotient that must be an integer is not one.

    Raised instead of rounding: every sequence term in this package is an
    exact integer, so a failed division signals a formula or convention bug
    rather than a numeric edge case.
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


def exact_div(a: int, b: int) -> int:
    """Return a // b, insisting that b divides a exactly."""
    if b == 0:
        raise ZeroDivisor(f"exact_div({a}, 0)")
    q, r = divmod(a, b)
    if r != 0:
        raise DivisibilityViolation(f"{b} does not divide {a}")
    return q
