"""Exact counting of restricted polygon dissections via reversive symbols.

A reversive symbol is a small rational function alpha(F) whose compositional
inverse, divided by x, generates a dissection-counting sequence.  The package
computes such sequences five ways (Lagrange inversion, direct series
reversion, closed binomial sums, the tile-equation series counter, and
brute-force enumeration) and cross-checks them against each other.
Lagrange inversion and the series counter share the integer product,
exact-division and composition kernels of :mod:`revsym.power_series`;
direct reversion runs its own integer recurrence on the symbol's
coefficients, and the closed forms, the two brute-force counters and the
benchmark's own counter (``perfbench/reference.py``) use none of those
kernels.  A series is a plain list of Python ``int`` coefficients and a
polynomial, such as a symbol's numerator or denominator, a plain tuple of
them, both lowest degree first.  Every division goes through
:func:`revsym.exact_arith.exact_div`, which raises
:class:`NonIntegerCoefficient` instead of rounding.
"""

from .closed_forms import (
    DomainError,
    catalan_term,
    even_term,
    motzkin_term,
    odd_term,
    schroeder_term,
    triangle_free_term,
)
from .dissection_oracle import (
    CapExceeded,
    Dissection,
    count_by_series,
    count_chord_diagrams,
    enumerate_count,
    iter_dissections,
    tiles_of,
)
from .exact_arith import NonIntegerCoefficient, binomial, exact_div
from .power_series import lagrange_coefficients, revert_direct
from .symbols import (
    ANY_TILES,
    EVEN_ONLY,
    NO_TRIANGLES,
    ODD_ONLY,
    TRIANGLES_ONLY,
    CatalogEntry,
    InvalidTileSet,
    ParseError,
    ReversiveSymbol,
    TileRule,
    catalog,
    expand,
    format_symbol,
    parse_symbol,
    parse_tile_spec,
    symbol_from_tile_rule,
    verify_inverse,
    verify_tautological,
)

__version__ = "0.1.0"

__all__ = [
    "ANY_TILES",
    "CapExceeded",
    "CatalogEntry",
    "Dissection",
    "DomainError",
    "EVEN_ONLY",
    "InvalidTileSet",
    "NO_TRIANGLES",
    "NonIntegerCoefficient",
    "ODD_ONLY",
    "ParseError",
    "ReversiveSymbol",
    "TRIANGLES_ONLY",
    "TileRule",
    "binomial",
    "catalan_term",
    "catalog",
    "count_by_series",
    "count_chord_diagrams",
    "enumerate_count",
    "even_term",
    "exact_div",
    "expand",
    "format_symbol",
    "iter_dissections",
    "lagrange_coefficients",
    "motzkin_term",
    "odd_term",
    "parse_symbol",
    "parse_tile_spec",
    "revert_direct",
    "schroeder_term",
    "symbol_from_tile_rule",
    "tiles_of",
    "triangle_free_term",
    "verify_inverse",
    "verify_tautological",
]
