"""Truncated power-series kernels on plain ``int`` lists, and series reversion.

A series is a list of coefficients c_0..c_N; every kernel takes the degree
n to truncate at and returns exactly n + 1 coefficients, so all identities
hold modulo x^{n+1}.  There is no series class: the kernels are the
truncated product :func:`_conv`, the exact quotient :func:`_div_raw` and
the composition :func:`_compose_raw`.

Coefficients are Python ints.  The one division, :func:`_div_raw`, divides
each step exactly by the divisor's constant term through
:func:`revsym.exact_arith.exact_div`, which raises ``NonIntegerCoefficient``
where the quotient would leave the integers, so nothing is ever rounded.

Two independent reversion routes take a reversive symbol alpha = P/Q and
return the inverse-series coefficients a_0..a_N, certifying that every one
is an integer:

* :func:`lagrange_coefficients` extracts
  a_{n-1} = (1/n) [t^{n-1}] (t/alpha(t))^n.
* :func:`revert_direct` solves [x^n] alpha(F(x)) = delta_{n,1} coefficient
  by coefficient, written as P(F) = x Q(F), without the Lagrange formula,
  and serves as a cross-check on the first route.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .exact_arith import exact_div

if TYPE_CHECKING:
    from .symbols import ReversiveSymbol

__all__ = [
    "lagrange_coefficients",
    "revert_direct",
]


def _conv(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Cauchy product of coefficient lists, truncated at degree n."""
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n:
            continue
        hi = min(n - i, len(b) - 1)
        for j in range(hi + 1):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _div_raw(p: Sequence[int], q: Sequence[int], n: int) -> list[int]:
    """p/q mod x^{n+1} by the triangular recurrence, each step divided exactly by q[0].

    A zero q[0] raises ZeroDivisionError.
    """
    q0 = q[0]
    out = [0] * (n + 1)
    for m in range(n + 1):
        s = p[m] if m < len(p) else 0
        for k in range(1, min(m, len(q) - 1) + 1):
            qk = q[k]
            if qk:
                s -= qk * out[m - k]
        out[m] = exact_div(s, q0, m, "quotient")
    return out


def _compose_raw(outer: Sequence[int], inner: Sequence[int], n: int) -> list[int]:
    """outer(inner(x)) mod x^{n+1} by Horner; inner[0] must be 0."""
    res = [0] * (n + 1)
    res[0] = outer[-1]
    for c in reversed(outer[:-1]):
        res = _conv(res, inner, n)
        res[0] += c
    return res


def lagrange_coefficients(alpha: "ReversiveSymbol", N: int) -> list[int]:
    """Inverse-series coefficients a_0..a_N of a reversive symbol.

    a_{n-1} = (1/n) [t^{n-1}] (t/alpha(t))^n for n = 1..N+1, each division
    checked exact.  F(x) = sum a_n x^{n+1} then satisfies alpha(F(x)) = x.

    With c = p_1 = q_0, the ratio R(t) = t/alpha(t) = Q(t) / (P(t)/t) is
    taken as S(u) = R(cu) = (Q(cu)/c) / (P(cu)/(c^2 u)): both quotients have
    constant term 1 and coefficients q_k c^{k-1} and p_{k+1} c^{k-1}, so S is
    integral and a_{n-1} = [u^{n-1}] S^n / (n c^{n-1}).  The powers are
    built incrementally, S^n = S^{n-1} * S at full precision.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    c = alpha.denominator.coeffs[0]
    num = alpha.numerator.coeffs[1 : N + 2]  # P/t; valid because P(0) = 0
    den = alpha.denominator.coeffs[: N + 1]
    ratio = _div_raw([qk * c**k // c for k, qk in enumerate(den)],
                     [pk * c**k // c for k, pk in enumerate(num)], N)
    out: list[int] = []
    power = ratio
    for n in range(1, N + 2):
        out.append(exact_div(power[n - 1], n * c ** (n - 1), n - 1))
        if n <= N:
            power = _conv(power, ratio, N)
    return out


def revert_direct(alpha: "ReversiveSymbol", N: int) -> list[int]:
    """Inverse-series coefficients a_0..a_N of a reversive symbol, no Lagrange formula.

    Same contract as :func:`lagrange_coefficients`.  With alpha = P/Q and
    F = f_1 x + f_2 x^2 + ... (a_n = f_{n+1}), the condition
    [x^n] alpha(F) = delta_{n,1} is [x^n] P(F) = [x^{n-1}] Q(F), i.e.

        p_1 f_n = sum_k q_k [x^{n-1}] F^k - sum_{k>=2} p_k [x^n] F^k,

    where every term on the right involves only f_1..f_{n-1} (F^k starts
    at x^k).  Only the rows [x^j] F^k for k <= d = max(deg P, deg Q) are
    kept, filled one column j at a time, so N terms cost O(d N^2) integer
    operations and O(d N) memory.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    # F^k starts at x^k, so coefficients above degree N+1 never reach a_N
    p = alpha.numerator.coeffs[: N + 2]
    q = alpha.denominator.coeffs[: N + 2]
    d = max(len(p), len(q)) - 1
    # rows[k][j] = [x^j] F^k; row 0 is the constant 1 and row 1 is F itself
    rows = [[0] * (N + 2) for _ in range(d + 1)]
    rows[0][0] = 1
    f = rows[1]
    for n in range(1, N + 2):
        for k in range(2, d + 1):
            prev = rows[k - 1]
            rows[k][n] = sum(f[i] * prev[n - i] for i in range(1, n - k + 2))
        rhs = sum(qk * row[n - 1] for qk, row in zip(q, rows))
        rhs -= sum(pk * row[n] for pk, row in zip(p[2:], rows[2:]))
        f[n] = exact_div(rhs, p[1], n - 1)
    return f[1:]
