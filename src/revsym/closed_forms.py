"""Closed binomial-sum evaluators for the catalog sequences.

Each function evaluates its summation formula exactly as written, over
exact integers, with the 1/(n+1) (or 1/(2m+1)) prefactor enforced as an
exact division: a remainder raises NonIntegerCoefficient, naming a_n and
its reduced value, instead of ever rounding.  All binomials follow the
convention of :func:`revsym.exact_arith.binomial` (zero for negative lower
argument, falling-factorial form for any integer upper argument).

Boundary conventions, pinned by the reversion ground truth a_0 = 1 that
every unit-slope symbol forces:

* ``triangle_free_term(0)`` and ``schroeder_term(0)`` return 1 directly;
  their raw sums give 0 at n = 0 under this binomial convention.
* ``even_term(0)`` returns 1, bypassing the formula (whose raw sum gives 0
  at m = 0).
* ``odd_term(0)`` is refused with DomainError.  The value is genuinely
  convention-dependent: a two-sided Newton-series reading that sets
  C(-2,-2) = 1 would yield -1 for the 2-gon, while reversion forces +1
  (and this module's convention happens to make the raw sum +1 as well).
  Rather than silently pick a side, the boundary term is excluded from the
  formula path; callers that need a_0 use the reversion route.

A DomainError is the one record of where a formula is undefined; the
CLI's ``verify`` table prints ``excluded`` wherever it is raised.
"""

from __future__ import annotations

from .exact_arith import binomial, exact_div

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

        a_n = 1/(n+1) * sum_{k=0}^{ceil((n-1)/2)} C(n+k, k) C(n-k-1, k-1)

    with a_0 = 1 for the 2-gon by convention.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return 1
    upper = (n - 1 + 1) // 2  # ceil((n-1)/2) for n >= 1
    total = sum(binomial(n + k, k) * binomial(n - k - 1, k - 1) for k in range(upper + 1))
    return exact_div(total, n + 1, n)


def odd_term(n: int) -> int:
    """Dissections of the (n+2)-gon with every tile an odd-gon:

        a_n = 1/(n+1) * sum_{k=0}^{ceil((n+1)/2)} C(2n-2k, n-2k) C(n-k-1, k)

    Defined for n >= 1 only; see the module notes on the n = 0 anomaly.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        raise DomainError("the odd-tile closed form is undefined at n=0 (boundary anomaly)")
    upper = (n + 2) // 2  # ceil((n+1)/2)
    total = sum(binomial(2 * n - 2 * k, n - 2 * k) * binomial(n - k - 1, k) for k in range(upper + 1))
    return exact_div(total, n + 1, n)


def even_term(n: int) -> int:
    """Dissections of the (n+2)-gon with every tile an even-gon.

    Zero for odd n, and for n = 2m >= 2:

        a_{2m} = 1/(2m+1) * sum_{k=0}^{m} C(2m+k, k) C(m-1, k-1)

    a_0 = 1 bypasses the formula (reversion ground truth; the raw sum is 0).
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return 1
    if n % 2 == 1:
        return 0
    m = n // 2
    total = sum(binomial(2 * m + k, k) * binomial(m - 1, k - 1) for k in range(m + 1))
    return exact_div(total, 2 * m + 1, n)


def schroeder_term(n: int) -> int:
    """All dissections of the (n+2)-gon (no tile restriction):

        s_n = 1/(n+1) * sum_{k=0}^{n+1} C(2n-k, n) C(n-1, k)

    with s_0 = 1 for the 2-gon (the formula path starts at n = 1, where the
    generalized C(n-1, k) values are unambiguous).
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return 1
    total = sum(binomial(2 * n - k, n) * binomial(n - 1, k) for k in range(n + 2))
    return exact_div(total, n + 1, n)


def catalan_term(n: int) -> int:
    """Triangulations of the (n+2)-gon: C(2n, n)/(n+1)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return exact_div(binomial(2 * n, n), n + 1, n)


def motzkin_term(n: int) -> int:
    """Disjoint-chord placements on n labelled circle points:

        M_n = 1/(n+1) * sum_{k=0}^{n+1} C(n+1, k) C(k, 2k-n-2)
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    total = sum(binomial(n + 1, k) * binomial(k, 2 * k - n - 2) for k in range(n + 2))
    return exact_div(total, n + 1, n)
