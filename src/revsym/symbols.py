"""Reversive symbols: rational functions that encode dissection counts.

A reversive symbol is a rational function alpha(F) = P(F)/Q(F) with integer
coefficients, P(0) = 0 and unit slope; the compositional inverse of alpha is
x * A(x) where A is the generating function of the counting sequence the
symbol stands for.  This module holds the symbol and tile-rule types, the
six-entry catalog, synthesis of a symbol from a tile-size rule, the two
functional-equation verifiers, and the one-line text format used by the CLI.

A tile rule S (a set of permitted tile side-counts, each >= 3) turns into a
symbol through the root-edge decomposition of a dissection: a tile with s
sides glued to the root edge contributes x^{s-2} A^{s-1}, so

    A = 1 + sum_{s in S} x^{s-2} A^{s-1}

and substituting F = xA gives alpha(F) = F - sum_{s in S} F^{s-1}, summed in
closed rational form whenever S is finite or finite plus an arithmetic tail.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import closed_forms
from .power_series import TruncatedSeries, _conv, _div_raw

__all__ = [
    "Polynomial",
    "ReversiveSymbol",
    "TileRule",
    "CatalogEntry",
    "InvalidTileSet",
    "ParseError",
    "ANY_TILES",
    "TRIANGLES_ONLY",
    "NO_TRIANGLES",
    "ODD_ONLY",
    "EVEN_ONLY",
    "catalog",
    "symbol_from_tile_rule",
    "expand",
    "verify_inverse",
    "verify_tautological",
    "format_symbol",
    "parse_symbol",
    "parse_tile_spec",
]


class InvalidTileSet(ValueError):
    """A tile rule that admits no side-count, or one below 3."""


class ParseError(ValueError):
    """Malformed symbol text or tile-rule spec."""


@dataclass(frozen=True)
class Polynomial:
    """Integer-coefficient polynomial, coeffs[i] the coefficient of degree i.

    Trailing zero coefficients are trimmed; the zero polynomial is ().
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("polynomial coefficients must be int")
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: Polynomial) -> Polynomial:
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: Polynomial) -> Polynomial:
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.coeff(i) - other.coeff(i) for i in range(n))

    def __mul__(self, other: Polynomial) -> Polynomial:
        if self.is_zero() or other.is_zero():
            return Polynomial(())
        return Polynomial(_conv(self.coeffs, other.coeffs, self.degree + other.degree))

    def shifted(self, k: int) -> Polynomial:
        """Multiply by y^k."""
        if self.is_zero():
            return self
        return Polynomial((0,) * k + self.coeffs)


@dataclass(frozen=True)
class ReversiveSymbol:
    """Named rational function alpha(F) = numerator/denominator.

    Invariants, checked at construction: numerator has no constant term,
    the denominator has a nonzero constant term, and the expanded series
    has linear coefficient exactly 1 (unit slope), which forces the
    inverse series to start x + ... , i.e. a_0 = 1.
    """

    name: str
    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self) -> None:
        if self.numerator.coeff(0) != 0:
            raise ValueError(f"symbol {self.name!r}: numerator must vanish at 0")
        q0 = self.denominator.coeff(0)
        if q0 == 0:
            raise ValueError(f"symbol {self.name!r}: denominator must not vanish at 0")
        if self.numerator.coeff(1) != q0:
            raise ValueError(f"symbol {self.name!r}: expansion must have unit slope")


@dataclass(frozen=True)
class TileRule:
    """Permitted tile side-counts: finite sizes plus at most one arithmetic tail.

    The tail ``start, start+step, start+2*step, ...`` is stored as ``start``
    and ``step`` (``start`` is None for a finite rule).  Construction
    canonicalises: sizes the tail covers are dropped and sizes that extend
    it downwards are folded into it, so rules compare equal exactly when
    they allow the same side-counts.
    """

    sizes: tuple[int, ...]
    start: Optional[int]
    step: int

    def __init__(self, sizes: Iterable[int] = (), start: Optional[int] = None, step: int = 1):
        finite = set(sizes)
        if not finite and start is None:
            raise InvalidTileSet("tile rule admits no side-count")
        if any(s < 3 for s in finite) or (start is not None and start < 3):
            raise InvalidTileSet("tile side-counts must be >= 3")
        if step < 1:
            raise InvalidTileSet("tail step must be >= 1")
        if start is None:
            step = 1
        else:
            while start - step in finite:
                start -= step
            finite = {s for s in finite if not self._in_tail(s, start, step)}
        object.__setattr__(self, "sizes", tuple(sorted(finite)))
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "step", step)

    @staticmethod
    def _in_tail(side_count: int, start: Optional[int], step: int) -> bool:
        return start is not None and side_count >= start and (side_count - start) % step == 0

    def allows(self, side_count: int) -> bool:
        return side_count in self.sizes or self._in_tail(side_count, self.start, self.step)

    def label(self) -> str:
        """The rule as a tile spec, e.g. ``3,6+`` or ``4+2``."""
        parts = [str(s) for s in self.sizes]
        if self.start is not None:
            parts.append(f"{self.start}+{self.step if self.step > 1 else ''}")
        return ",".join(parts)

    def generating_pair(self) -> tuple[Polynomial, Polynomial]:
        """g(y) = sum of y^{s-2} over the allowed s, as (numerator, denominator).

        The finite sizes give a polynomial; the tail adds y^{start-2}/(1-y^step).
        """
        one = Polynomial((1,))
        finite = Polynomial(())
        for s in self.sizes:
            finite = finite + one.shifted(s - 2)
        if self.start is None:
            return finite, one
        den = one - one.shifted(self.step)
        return finite * den + one.shifted(self.start - 2), den


ANY_TILES = TileRule(start=3)
TRIANGLES_ONLY = TileRule({3})
NO_TRIANGLES = TileRule(start=4)
ODD_ONLY = TileRule(start=3, step=2)
EVEN_ONLY = TileRule(start=4, step=2)


def symbol_from_tile_rule(rule: TileRule) -> ReversiveSymbol:
    """Synthesize alpha(F) = F - sum_{s in S} F^{s-1} in closed rational form.

    With g(y) = sum_{s in S} y^{s-2} = Ng/Dg this is
    alpha = F (Dg(F) - Ng(F)) / Dg(F).
    """
    g_num, g_den = rule.generating_pair()
    numerator = (g_den - g_num).shifted(1)
    return ReversiveSymbol(f"tiles({rule.label()})", numerator, g_den)


def _poly_series(p: Polynomial, precision: int) -> TruncatedSeries:
    return TruncatedSeries(p.coeff(i) for i in range(precision + 1))


def expand(symbol: ReversiveSymbol, precision: int) -> TruncatedSeries:
    """Taylor coefficients of numerator/denominator to the given precision.

    Raises NonIntegerCoefficient where a coefficient is not an integer.
    """
    return TruncatedSeries(_div_raw(symbol.numerator.coeffs, symbol.denominator.coeffs, precision))


@dataclass(frozen=True)
class CatalogEntry:
    """A shipped sequence and everything known about it.

    ``rule`` is the tile rule the sequence counts; None means it counts
    chord diagrams and is checked against the chord oracle instead.
    ``closed_form`` evaluates the binomial sum for one n, which is defined
    from ``closed_from`` on (1 where the 2-gon value is a boundary anomaly).
    """

    symbol: ReversiveSymbol
    rule: Optional[TileRule]
    closed_form: Callable[[int], int]
    closed_from: int = 0


# The six catalog entries.  Coefficient tuples are in increasing degree, so
# e.g. schroeder is (F - 2F^2)/(1 - F).
_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(ReversiveSymbol("trianglefree", Polynomial((0, 1, -1, -1)), Polynomial((1, -1))),
                 NO_TRIANGLES, closed_forms.triangle_free_term),
    CatalogEntry(ReversiveSymbol("oddtiles", Polynomial((0, 1, -1, -1)), Polynomial((1, 0, -1))),
                 ODD_ONLY, closed_forms.odd_term, closed_from=1),
    CatalogEntry(ReversiveSymbol("eventiles", Polynomial((0, 1, 0, -2)), Polynomial((1, 0, -1))),
                 EVEN_ONLY, closed_forms.even_term),
    CatalogEntry(ReversiveSymbol("schroeder", Polynomial((0, 1, -2)), Polynomial((1, -1))),
                 ANY_TILES, closed_forms.schroeder_term),
    CatalogEntry(ReversiveSymbol("catalan", Polynomial((0, 1, -1)), Polynomial((1,))),
                 TRIANGLES_ONLY, closed_forms.catalan_term),
    CatalogEntry(ReversiveSymbol("motzkin", Polynomial((0, 1, -1)), Polynomial((1, 0, 0, -1))),
                 None, closed_forms.motzkin_term),
)


def catalog() -> list[CatalogEntry]:
    """The shipped entries, in display order."""
    return list(_CATALOG)


def verify_inverse(symbol: ReversiveSymbol, terms: Sequence[int]) -> bool:
    """Check alpha(F(x)) = x to precision N+1 for F = sum terms[n] x^{n+1}.

    Checked as P(F) = x Q(F), which is equivalent because Q(F) has the
    nonzero constant term q_0, and needs no division.
    """
    if not terms:
        raise ValueError("need at least a_0")
    n = len(terms)  # precision N+1
    inverse = TruncatedSeries([0, *terms])
    p_of_f = _poly_series(symbol.numerator, n).compose(inverse)
    q_of_f = _poly_series(symbol.denominator, n).compose(inverse)
    return p_of_f == TruncatedSeries([0, *q_of_f.coeffs[:n]])


def verify_tautological(rule: TileRule, terms: Sequence[int]) -> bool:
    """Check A = 1 + sum_{s in S} x^{s-2} A^{s-1} to precision N.

    A is the series with the given coefficients; the sum is evaluated in
    its closed rational form g, so sizes with s-2 > N drop out exactly as
    the truncation demands.
    """
    if not terms:
        raise ValueError("need at least a_0")
    n = len(terms) - 1
    a = TruncatedSeries(terms)
    xa = TruncatedSeries([0, *terms[:n]])
    num_xa, den_xa = (_poly_series(p, n).compose(xa).coeffs for p in rule.generating_pair())
    g = TruncatedSeries(_div_raw(num_xa, den_xa, n))
    rhs = TruncatedSeries.one(n) + a * g
    return rhs == a


def format_symbol(symbol: ReversiveSymbol, include_name: bool = True) -> str:
    """Render as ``name: (p0,p1,...)/(q0,q1,...)`` (or bare, without name)."""
    num = ",".join(str(c) for c in symbol.numerator.coeffs)
    den = ",".join(str(c) for c in symbol.denominator.coeffs)
    body = f"({num})/({den})"
    return f"{symbol.name}: {body}" if include_name else body


def _parse_int_list(text: str, what: str) -> list[int]:
    items = [p.strip() for p in text.split(",")]
    if items == [""]:
        raise ParseError(f"empty {what} coefficient list")
    try:
        return [int(p) for p in items]
    except ValueError as exc:
        raise ParseError(f"bad integer in {what}: {exc}") from None


def parse_symbol(text: str, default_name: str = "custom") -> ReversiveSymbol:
    """Parse the symbol text format; the ``name:`` prefix is optional."""
    body = text.strip()
    name = default_name
    if ":" in body:
        name, body = body.split(":", 1)
        name = name.strip()
        body = body.strip()
        if not name:
            raise ParseError("empty symbol name")
    if "/" not in body:
        raise ParseError("expected (numerator)/(denominator)")
    num_part, den_part = body.split("/", 1)
    num_part = num_part.strip()
    den_part = den_part.strip()
    for part in (num_part, den_part):
        if not (part.startswith("(") and part.endswith(")")):
            raise ParseError(f"expected a parenthesized coefficient list, got {part!r}")
    num = _parse_int_list(num_part[1:-1], "numerator")
    den = _parse_int_list(den_part[1:-1], "denominator")
    try:
        return ReversiveSymbol(name, Polynomial(num), Polynomial(den))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_SPEC_ENTRY = re.compile(r"(\d+)(\+(\d*))?")
_RULE_KEYWORDS = {
    "any": "3+",
    "triangles": "3",
    "notriangles": "4+",
    "odd": "3+2",
    "even": "4+2",
}


def parse_tile_spec(text: str) -> TileRule:
    """Parse a tile rule: a keyword, or ``3,5`` / ``4+`` / ``3,6+`` / ``3+2`` lists.

    A ``k+`` on the last entry means "and every size from k on"; ``k+d``
    means "and k, k+d, k+2d, ...".
    """
    spec = text.strip().lower()
    if not spec:
        raise ParseError("empty tile spec")
    spec = _RULE_KEYWORDS.get(spec, spec)
    sizes: set[int] = set()
    start: Optional[int] = None
    step = 1
    parts = spec.split(",")
    for idx, part in enumerate(parts):
        part = part.strip()
        if not part:
            raise ParseError(f"empty entry in tile spec {text!r}")
        match = _SPEC_ENTRY.fullmatch(part)
        if match is None:
            raise ParseError(f"bad tile size {part!r}")
        size, tail, tail_step = match.groups()
        if tail and idx != len(parts) - 1:
            raise ParseError("'+' is only allowed on the last entry")
        try:
            if tail:
                start, step = int(size), int(tail_step or 1)
            else:
                sizes.add(int(size))
        except ValueError:  # more digits than int() accepts
            raise ParseError(f"bad tile size {part!r}") from None
    return TileRule(sizes, start, step)
