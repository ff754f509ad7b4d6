"""Truncated formal power series over the integers.

A series here is a finite coefficient vector c_0..c_N ("precision N"); all
identities hold modulo x^{N+1}.  Binary operations truncate to the smaller
precision of their operands and never extend a series with invented
coefficients.

Coefficients are Python ints.  The one division, :func:`_div_raw`, divides
each step exactly by the divisor's constant term and raises
:class:`NonIntegerCoefficient` where the quotient would leave the integers,
so nothing is ever rounded.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .symbols import ReversiveSymbol

__all__ = [
    "TruncatedSeries",
    "NonUnitSeries",
    "NonZeroInnerConstant",
    "NonIntegerCoefficient",
    "lagrange_coefficients",
    "revert_direct",
]


class NonUnitSeries(ValueError):
    """Division by a series whose constant term is zero."""


class NonZeroInnerConstant(ValueError):
    """Composition with an inner series whose constant term is nonzero."""


class NonIntegerCoefficient(ArithmeticError):
    """A series or reversion coefficient failed the exact-integrality check."""


def _exact_term(value: int, divisor: int, index: int, name: str = "a") -> int:
    """<name>_<index> = value / divisor as an exact int, or NonIntegerCoefficient."""
    q, r = divmod(value, divisor)
    if r != 0:
        raise NonIntegerCoefficient(f"{name}_{index} = {Fraction(value, divisor)} is not an integer")
    return q


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
    """p/q mod x^{n+1} by the triangular recurrence, each step divided exactly by q[0]."""
    q0 = q[0]
    if q0 == 0:
        raise NonUnitSeries("division requires a nonzero constant term")
    out = [0] * (n + 1)
    for m in range(n + 1):
        s = p[m] if m < len(p) else 0
        for k in range(1, min(m, len(q) - 1) + 1):
            qk = q[k]
            if qk:
                s -= qk * out[m - k]
        out[m] = _exact_term(s, q0, m, "quotient")
    return out


def _pow_raw(base: Sequence[int], e: int, n: int) -> list[int]:
    """base**e mod x^{n+1} by repeated squaring; e >= 0."""
    res = [0] * (n + 1)
    res[0] = 1
    b = list(base[: n + 1])
    while e:
        if e & 1:
            res = _conv(res, b, n)
        e >>= 1
        if e:
            b = _conv(b, b, n)
    return res


def _compose_raw(outer: Sequence[int], inner: Sequence[int], n: int) -> list[int]:
    """outer(inner(x)) mod x^{n+1} by Horner; inner[0] must be 0."""
    res = [0] * (n + 1)
    res[0] = outer[-1]
    for c in reversed(outer[:-1]):
        res = _conv(res, inner, n)
        res[0] += c
    return res


@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """Immutable truncated power series c_0 + c_1 x + ... + c_N x^N, integer coefficients."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"series coefficients must be int, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", cs)

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, precision: int) -> TruncatedSeries:
        return cls([0] * (precision + 1))

    @classmethod
    def one(cls, precision: int) -> TruncatedSeries:
        return cls([1] + [0] * precision)

    @classmethod
    def identity(cls, precision: int) -> TruncatedSeries:
        """The series x (requires precision >= 1)."""
        if precision < 1:
            raise ValueError("identity series needs precision >= 1")
        return cls([0, 1] + [0] * (precision - 1))

    def __getitem__(self, i: int) -> int:
        if not 0 <= i <= self.precision:
            raise IndexError(f"coefficient {i} is beyond precision {self.precision}")
        return self.coeffs[i]

    def truncate(self, precision: int) -> TruncatedSeries:
        if precision > self.precision:
            raise ValueError("cannot extend a series beyond its known precision")
        return TruncatedSeries(self.coeffs[: precision + 1])

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(-c for c in self.coeffs)

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.precision, other.precision)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(a[i] + b[i] for i in range(n + 1))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.precision, other.precision)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(a[i] - b[i] for i in range(n + 1))

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.precision, other.precision)
        return TruncatedSeries(_conv(self.coeffs, other.coeffs, n))

    def __pow__(self, e: int) -> TruncatedSeries:
        if e < 0:
            raise ValueError("negative powers: use reciprocal() first")
        return TruncatedSeries(_pow_raw(self.coeffs, e, self.precision))

    def reciprocal(self) -> TruncatedSeries:
        """Multiplicative inverse r with self * r = 1 to this precision.

        Raises NonIntegerCoefficient where r would not be integral.
        """
        return TruncatedSeries(_div_raw((1,), self.coeffs, self.precision))

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """self(inner(x)), truncated to the smaller precision."""
        if inner.coeffs[0] != 0:
            raise NonZeroInnerConstant("composition needs inner constant term 0")
        n = min(self.precision, inner.precision)
        return TruncatedSeries(_compose_raw(self.coeffs[: n + 1], inner.coeffs[: n + 1], n))


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
        out.append(_exact_term(power[n - 1], n * c ** (n - 1), n - 1))
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
        f[n] = _exact_term(rhs, p[1], n - 1)
    return f[1:]
