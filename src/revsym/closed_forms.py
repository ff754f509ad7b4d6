"""Closed binomial-sum evaluators for the catalog sequences.

Each function evaluates its summation formula exactly, over exact integers,
with the 1/(n+1) (or 1/(2m+1)) prefactor enforced as an exact division: a
remainder raises NonIntegerCoefficient, naming a_n and its reduced value,
instead of ever rounding.  Each sum runs over its summand's support alone,
the k where every binomial C(r, k) has 0 <= k <= r, so every binomial is a
plain :func:`math.comb`; a range one step too wide either raises its
``ValueError`` or adds a zero term.

The n = 0 boundary: the triangle-free, odd, even and schroeder sums are
empty at n = 0 and give 0, while reversion forces a_0 = 1 for every
unit-slope symbol (the catalan and motzkin forms give 1 there themselves).

* ``triangle_free_term(0)``, ``even_term(0)`` and ``schroeder_term(0)``
  return 1 directly.
* ``odd_term(0)`` is refused with DomainError: the formula's own value, 0,
  is not the count, and rather than replace it the boundary term is left
  out of the formula path; callers that need a_0 use the reversion route.

A DomainError is the one record of where a formula is undefined; the
CLI's ``verify`` table prints ``excluded`` wherever it is raised.
"""

from __future__ import annotations

from math import comb

from .exact_arith import exact_div

__all__ = [
    "DomainError",
    "triangle_free_term",
    "odd_term",
    "even_term",
    "schroeder_term",
    "catalan_term",
    "motzkin_term",
]


class DomainError(ValueError):
    """The formula path is undefined at the requested index."""


def triangle_free_term(n: int) -> int:
    """Dissections of the (n+2)-gon with no triangular tile:

        a_n = 1/(n+1) * sum_{k=1}^{floor(n/2)} C(n+k, k) C(n-k-1, k-1)

    with a_0 = 1 for the 2-gon.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return 1
    total = sum(comb(n + k, k) * comb(n - k - 1, k - 1) for k in range(1, n // 2 + 1))
    return exact_div(total, n + 1, n)


def odd_term(n: int) -> int:
    """Dissections of the (n+2)-gon with every tile an odd-gon:

        a_n = 1/(n+1) * sum_{k=0}^{floor((n-1)/2)} C(2n-2k, n-2k) C(n-k-1, k)

    Defined for n >= 1 only; see the module notes on n = 0.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        raise DomainError("the odd-tile closed form is undefined at n=0 (boundary anomaly)")
    total = sum(comb(2 * n - 2 * k, n - 2 * k) * comb(n - k - 1, k) for k in range((n - 1) // 2 + 1))
    return exact_div(total, n + 1, n)


def even_term(n: int) -> int:
    """Dissections of the (n+2)-gon with every tile an even-gon.

    Zero for odd n, and for n = 2m >= 2:

        a_{2m} = 1/(2m+1) * sum_{k=1}^{m} C(2m+k, k) C(m-1, k-1)

    with a_0 = 1 for the 2-gon.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return 1
    if n % 2 == 1:
        return 0
    m = n // 2
    total = sum(comb(2 * m + k, k) * comb(m - 1, k - 1) for k in range(1, m + 1))
    return exact_div(total, 2 * m + 1, n)


def schroeder_term(n: int) -> int:
    """All dissections of the (n+2)-gon (no tile restriction):

        s_n = 1/(n+1) * sum_{k=0}^{n-1} C(2n-k, n) C(n-1, k)

    with s_0 = 1 for the 2-gon.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return 1
    total = sum(comb(2 * n - k, n) * comb(n - 1, k) for k in range(n))
    return exact_div(total, n + 1, n)


def catalan_term(n: int) -> int:
    """Triangulations of the (n+2)-gon: C(2n, n)/(n+1)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return exact_div(comb(2 * n, n), n + 1, n)


def motzkin_term(n: int) -> int:
    """Disjoint-chord placements on n labelled circle points:

        M_n = 1/(n+1) * sum_{k=ceil((n+2)/2)}^{n+1} C(n+1, k) C(k, 2k-n-2)
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    total = sum(comb(n + 1, k) * comb(k, 2 * k - n - 2) for k in range((n + 3) // 2, n + 2))
    return exact_div(total, n + 1, n)
