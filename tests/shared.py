"""Tile rules and the catalog lookup that several test modules share.

pytest puts this directory on ``sys.path`` for the test modules in it, so
they read these with ``from shared import ...``.
"""

from revsym.symbols import (
    ANY_TILES,
    EVEN_ONLY,
    NO_TRIANGLES,
    ODD_ONLY,
    TRIANGLES_ONLY,
    TileRule,
    catalog,
)

KEYWORD_RULES = {
    "any": ANY_TILES,
    "triangles": TRIANGLES_ONLY,
    "notriangles": NO_TRIANGLES,
    "odd": ODD_ONLY,
    "even": EVEN_ONLY,
}
ALL_RULES = list(KEYWORD_RULES.values())
CUSTOM_RULES = [TileRule({4}), TileRule({3}, start=6), TileRule({4}, start=3, step=3)]
TAIL_RULES = [TileRule(set(), start=6, step=4), TileRule({3, 5}, start=7)]


def catalog_entry(name):
    """The catalog's entry named ``name``: its symbol, rule and closed form."""
    for entry in catalog():
        if entry.symbol.name == name:
            return entry
    raise KeyError(name)
