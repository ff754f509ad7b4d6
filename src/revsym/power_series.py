"""Truncated formal power series over exact rationals.

A series here is a finite coefficient vector c_0..c_N ("precision N"); all
identities hold modulo x^{N+1}.  Binary operations truncate to the smaller
precision of their operands and never extend a series with invented
coefficients.

Coefficients are Python ints whenever the value is integral and
``fractions.Fraction`` otherwise, so the convolution kernels run on machine
integers for the (common) integer-coefficient case without giving up
exactness anywhere.

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
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:
    from .symbols import ReversiveSymbol

__all__ = [
    "Coeff",
    "TruncatedSeries",
    "NonUnitSeries",
    "NonZeroInnerConstant",
    "NonIntegerCoefficient",
    "lagrange_coefficients",
    "revert_direct",
]

Coeff = Union[int, Fraction]


class NonUnitSeries(ValueError):
    """Reciprocal of a series whose constant term is zero."""


class NonZeroInnerConstant(ValueError):
    """Composition with an inner series whose constant term is nonzero."""


class NonIntegerCoefficient(ArithmeticError):
    """A reversion coefficient failed the exact-integrality check."""


def _norm(c: Coeff) -> Coeff:
    """Canonical scalar: plain int when integral, Fraction otherwise."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"series coefficients must be int or Fraction, got {type(c).__name__}")


def _conv(a: Sequence[Coeff], b: Sequence[Coeff], n: int) -> list[Coeff]:
    """Cauchy product of coefficient lists, truncated at degree n."""
    out: list[Coeff] = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n:
            continue
        hi = min(n - i, len(b) - 1)
        for j in range(hi + 1):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _recip_raw(q: Sequence[Coeff], n: int) -> list[Coeff]:
    """1/q mod x^{n+1} via the standard triangular recurrence."""
    q0 = q[0]
    if q0 == 0:
        raise NonUnitSeries("reciprocal requires a nonzero constant term")
    # a unit constant term is its own inverse, so everything stays in the ground ring
    inv: Coeff = q0 if q0 in (1, -1) else Fraction(1, q0)
    out: list[Coeff] = [0] * (n + 1)
    out[0] = inv
    for m in range(1, n + 1):
        s = 0
        for k in range(1, min(m, len(q) - 1) + 1):
            qk = q[k]
            if qk:
                s += qk * out[m - k]
        out[m] = -s * inv
    return out


def _pow_raw(base: Sequence[Coeff], e: int, n: int) -> list[Coeff]:
    """base**e mod x^{n+1} by repeated squaring; e >= 0."""
    res: list[Coeff] = [0] * (n + 1)
    res[0] = 1
    b = list(base[: n + 1])
    while e:
        if e & 1:
            res = _conv(res, b, n)
        e >>= 1
        if e:
            b = _conv(b, b, n)
    return res


def _compose_raw(outer: Sequence[Coeff], inner: Sequence[Coeff], n: int) -> list[Coeff]:
    """outer(inner(x)) mod x^{n+1} by Horner; inner[0] must be 0."""
    res: list[Coeff] = [0] * (n + 1)
    res[0] = outer[-1]
    for c in reversed(outer[:-1]):
        res = _conv(res, inner, n)
        res[0] += c
    return res


@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """Immutable truncated power series c_0 + c_1 x + ... + c_N x^N."""

    coeffs: tuple[Coeff, ...]

    def __init__(self, coeffs: Iterable[Coeff]):
        cs = tuple(_norm(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant coefficient")
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

    def __getitem__(self, i: int) -> Coeff:
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
        """Multiplicative inverse r with self * r = 1 to this precision."""
        return TruncatedSeries(_recip_raw(self.coeffs, self.precision))

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """self(inner(x)), truncated to the smaller precision."""
        if inner.coeffs[0] != 0:
            raise NonZeroInnerConstant("composition needs inner constant term 0")
        n = min(self.precision, inner.precision)
        return TruncatedSeries(_compose_raw(self.coeffs[: n + 1], inner.coeffs[: n + 1], n))


def _symbol_ratio_raw(alpha: "ReversiveSymbol", n: int) -> list[Coeff]:
    """Coefficients of t/alpha(t) = Q(t) / (P(t)/t) to precision n."""
    num = alpha.numerator.coeffs
    den = alpha.denominator.coeffs
    shifted = list(num[1:])  # P/t; valid because P(0) = 0
    return _conv(den, _recip_raw(shifted, n), n)


def _exact_term(value: Coeff, divisor: int, index: int) -> int:
    """a_index = value / divisor as an exact int, or NonIntegerCoefficient."""
    q, r = divmod(value, divisor)
    if r != 0:
        raise NonIntegerCoefficient(f"a_{index} = {Fraction(value) / divisor} is not an integer")
    return q


def lagrange_coefficients(alpha: "ReversiveSymbol", N: int) -> list[int]:
    """Inverse-series coefficients a_0..a_N of a reversive symbol.

    a_{n-1} = (1/n) [t^{n-1}] (t/alpha(t))^n for n = 1..N+1, each division
    checked exact.  F(x) = sum a_n x^{n+1} then satisfies alpha(F(x)) = x.
    The powers are built incrementally, R^n = R^{n-1} * R at full precision.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    ratio = _symbol_ratio_raw(alpha, N)
    out: list[int] = []
    power = ratio
    for n in range(1, N + 2):
        out.append(_exact_term(power[n - 1], n, n - 1))
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
