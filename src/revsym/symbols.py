"""Reversive symbols: rational functions that encode dissection counts.

A reversive symbol is a rational function alpha(F) = P(F)/Q(F) with integer
coefficients, P(0) = 0 and unit slope; the compositional inverse of alpha
is x * A(x) where A is the generating function of the counting sequence the
symbol stands for.  P and Q, like every polynomial here, are plain ``int``
tuples, lowest degree first; there is no polynomial class.  This module
holds the symbol and tile-rule types, the six-entry catalog, synthesis of a
symbol from a tile-size rule, and the one-line text format used by the
CLI.  It does no series arithmetic.

The record types :class:`ReversiveSymbol`, :class:`TileRule` and
:class:`CatalogEntry` are NamedTuples: immutable, hashable, and printed as
their field lists.  The first two check and canonicalise their fields in
``__new__``, and their ``_make``, hence ``_replace``, goes through it, so no
path builds an unchecked record.  A record is a tuple, so it equals the
plain tuple of its fields.  NamedTuples, not dataclasses, because importing
:mod:`dataclasses` (and the :mod:`inspect` it pulls in) was about a third
of the start-up of every command.

A tile rule S (a set of permitted tile side-counts, each >= 3) turns into a
symbol through the root-edge decomposition of a dissection: a tile with s
sides glued to the root edge contributes x^{s-2} A^{s-1}, so

    A = 1 + sum_{s in S} x^{s-2} A^{s-1}

and substituting F = xA gives alpha(F) = F - sum_{s in S} F^{s-1}, summed in
closed rational form whenever S is finite or finite plus an arithmetic tail.
"""

from __future__ import annotations

import re
from itertools import zip_longest
from typing import Callable, Iterable, NamedTuple, Optional

from . import closed_forms

__all__ = [
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
    "format_symbol",
    "parse_symbol",
    "parse_tile_spec",
]


class InvalidTileSet(ValueError):
    """A tile rule that admits no side-count, or one below 3."""


class ParseError(ValueError):
    """Input the package cannot use: symbol text, spec, sequence name, method or config file."""


def _int_tuple(coeffs: Iterable[int]) -> tuple[int, ...]:
    """Polynomial coefficients, lowest degree first, with trailing zeros trimmed.

    The zero polynomial is ().  Raises TypeError for a coefficient that is
    not an int.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not all(isinstance(c, int) for c in cs):
        raise TypeError("polynomial coefficients must be int")
    return tuple(cs)


class _SymbolFields(NamedTuple):
    name: str
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]


class ReversiveSymbol(_SymbolFields):
    """Named rational function alpha(F) = numerator/denominator.

    The two polynomials are int tuples, lowest degree first, trimmed of
    trailing zeros at construction.  Invariants, also checked at
    construction, ``_replace`` included: numerator has no constant term,
    the denominator has a nonzero constant term, and the expanded series
    has linear coefficient exactly 1 (unit slope), which forces the
    inverse series to start x + ... , i.e. a_0 = 1.
    """

    __slots__ = ()

    def __new__(cls, name: str, numerator: Iterable[int], denominator: Iterable[int]) -> ReversiveSymbol:
        num, den = _int_tuple(numerator), _int_tuple(denominator)
        p0, p1 = (*num, 0, 0)[:2]
        q0 = (*den, 0)[0]
        if p0 != 0:
            raise ValueError(f"symbol {name!r}: numerator must vanish at 0")
        if q0 == 0:
            raise ValueError(f"symbol {name!r}: denominator must not vanish at 0")
        if p1 != q0:
            raise ValueError(f"symbol {name!r}: expansion must have unit slope")
        return super().__new__(cls, name, num, den)

    @classmethod
    def _make(cls, iterable: Iterable) -> ReversiveSymbol:
        return cls(*iterable)


class _RuleFields(NamedTuple):
    sizes: tuple[int, ...]
    start: Optional[int]
    step: int


class TileRule(_RuleFields):
    """Permitted tile side-counts: finite sizes plus at most one arithmetic tail.

    The tail ``start, start+step, start+2*step, ...`` is stored as ``start``
    and ``step`` (``start`` is None for a finite rule).  Construction,
    ``_replace`` included, canonicalises: sizes the tail covers are dropped
    and sizes that extend it downwards are folded into it, so rules compare
    equal exactly when they allow the same side-counts.  Sizes, ``start``
    and ``step`` must be ints, as a symbol's coefficients must: anything
    else raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, sizes: Iterable[int] = (), start: Optional[int] = None, step: int = 1) -> TileRule:
        finite = set(sizes)
        if not all(isinstance(v, int) for v in (*finite, step)) or not isinstance(start, (int, type(None))):
            raise TypeError("tile side-counts and the tail step must be int")
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
            finite = {s for s in finite if not cls._in_tail(s, start, step)}
        return super().__new__(cls, tuple(sorted(finite)), start, step)

    @classmethod
    def _make(cls, iterable: Iterable) -> TileRule:
        return cls(*iterable)

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

    def generating_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """g(y) = sum of y^{s-2} over the allowed s, as (numerator, denominator).

        Each finite size adds y^{s-2}.  With a tail, g is taken over the
        common denominator 1 - y^step: each finite size also subtracts
        y^{s-2+step}, and the tail adds y^{start-2}.
        """
        num = [0] * (max((*self.sizes, self.start or 0)) + self.step)
        for s in self.sizes:
            num[s - 2] += 1
            if self.start is not None:
                num[s - 2 + self.step] -= 1
        if self.start is None:
            return _int_tuple(num), (1,)
        num[self.start - 2] += 1
        return _int_tuple(num), (1, *[0] * (self.step - 1), -1)


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
    numerator = (0, *(d - n for d, n in zip_longest(g_den, g_num, fillvalue=0)))
    return ReversiveSymbol(f"tiles({rule.label()})", numerator, g_den)


class CatalogEntry(NamedTuple):
    """A shipped sequence and everything known about it.

    ``rule`` is the tile rule the sequence counts; None means it counts
    chord diagrams and is checked against the chord oracle instead.
    ``closed_form`` evaluates the binomial sum for one n, and raises
    :class:`~revsym.closed_forms.DomainError` where it is undefined (odd
    tiles at n = 0, a boundary anomaly).

    ``ode`` is a linear differential equation that the inverse series F
    of the symbol satisfies, sum_{k,j} c_{k,j} x^j F^(k) = 0, as rows of
    integer coefficients: ``ode[k + 1][j]`` is c_{k,j}, and the first row,
    k = -1, is the constant column.  F is algebraic, so such an equation
    exists (Stanley 1980); these were found once by a search over order
    and degree and are stored, not derived per command.  tests/test_ode.py
    proves each from the symbol.
    """

    symbol: ReversiveSymbol
    rule: Optional[TileRule]
    closed_form: Callable[[int], int]
    ode: tuple[tuple[int, ...], ...]


# The six catalog entries.  Coefficient tuples are in increasing degree, so
# e.g. schroeder is (F - 2F^2)/(1 - F), and its equation
# (x - 1) + (3 - x) F + (1 - 6x + x^2) F' = 0.
_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(ReversiveSymbol("trianglefree", (0, 1, -1, -1), (1, -1)),
                 NO_TRIANGLES, closed_forms.triangle_free_term,
                 ((8, 6), (24, 18), (-8, -240, 42, -8), (35, -76, -192, 156, -16))),
    CatalogEntry(ReversiveSymbol("oddtiles", (0, 1, -1, -1), (1, 0, -1)),
                 ODD_ONLY, closed_forms.odd_term,
                 ((11, 0, 24), (-8, 36, -18, 8), (-41, 44, -126, 26, -8), (15, -67, -22, 16, -8, 28, -8))),
    CatalogEntry(ReversiveSymbol("eventiles", (0, 1, 0, -2), (1, 0, -1)),
                 EVEN_ONLY, closed_forms.even_term,
                 ((0, 48, 0, 8), (35, 0, 54), (0, -323, 0, -102), (40, 0, -371, 0, 162, 0, -8))),
    CatalogEntry(ReversiveSymbol("schroeder", (0, 1, -2), (1, -1)),
                 ANY_TILES, closed_forms.schroeder_term,
                 ((-1, 1), (3, -1), (1, -6, 1))),
    CatalogEntry(ReversiveSymbol("catalan", (0, 1, -1), (1,)),
                 TRIANGLES_ONLY, closed_forms.catalan_term,
                 ((-1,), (2,), (1, -4))),
    CatalogEntry(ReversiveSymbol("motzkin", (0, 1, -1), (1, 0, 0, -1)),
                 None, closed_forms.motzkin_term,
                 ((0, -2), (1, -1), (0, 1, -2, -3))),
)


def catalog() -> list[CatalogEntry]:
    """The shipped entries, in display order."""
    return list(_CATALOG)


def format_symbol(symbol: ReversiveSymbol, include_name: bool = True) -> str:
    """Render as ``name: (p0,p1,...)/(q0,q1,...)`` (or bare, without name)."""
    num = ",".join(str(c) for c in symbol.numerator)
    den = ",".join(str(c) for c in symbol.denominator)
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


def parse_symbol(text: str) -> ReversiveSymbol:
    """Parse the symbol text format; the ``name:`` prefix is optional (default ``custom``)."""
    body = text.strip()
    name = "custom"
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
        return ReversiveSymbol(name, num, den)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_SPEC_ENTRY = re.compile(r"(\d+)(\+(\d*))?")
_RULE_KEYWORDS = {
    "any": ANY_TILES,
    "triangles": TRIANGLES_ONLY,
    "notriangles": NO_TRIANGLES,
    "odd": ODD_ONLY,
    "even": EVEN_ONLY,
}


def parse_tile_spec(text: str) -> TileRule:
    """Parse a tile rule: a keyword, or ``3,5`` / ``4+`` / ``3,6+`` / ``3+2`` lists.

    A ``k+`` on the last entry means "and every size from k on"; ``k+d``
    means "and k, k+d, k+2d, ...".
    """
    spec = text.strip().lower()
    if not spec:
        raise ParseError("empty tile spec")
    if spec in _RULE_KEYWORDS:
        return _RULE_KEYWORDS[spec]
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
