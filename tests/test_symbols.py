"""Symbol catalog, tile-rule synthesis, the text format, and the record types."""

import re
from itertools import product

import pytest
from hypothesis import given, strategies as st

from revsym.power_series import _conv, _div_raw
from revsym.symbols import (
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
    format_symbol,
    parse_symbol,
    parse_tile_spec,
    symbol_from_tile_rule,
)

from shared import catalog_entry


@st.composite
def random_rules(draw):
    """Sizes 3..14 plus an optional tail with start 3..14 and step 1..4."""
    sizes = draw(st.sets(st.integers(min_value=3, max_value=14), max_size=5))
    tail = draw(st.none() | st.tuples(st.integers(min_value=3, max_value=14),
                                       st.integers(min_value=1, max_value=4)))
    if tail is None:
        return TileRule(sizes or {3})
    return TileRule(sizes, *tail)


class TestCatalog:
    def test_has_exactly_six_entries(self):
        assert len(catalog()) == 6

    def test_names_in_order(self):
        names = [e.symbol.name for e in catalog()]
        assert names == ["trianglefree", "oddtiles", "eventiles", "schroeder", "catalan", "motzkin"]

    @pytest.mark.parametrize("name, numerator, denominator, rule", [
        ("catalan", (0, 1, -1), (1,), TRIANGLES_ONLY),
        ("trianglefree", (0, 1, -1, -1), (1, -1), NO_TRIANGLES),
        ("oddtiles", (0, 1, -1, -1), (1, 0, -1), ODD_ONLY),
        ("eventiles", (0, 1, 0, -2), (1, 0, -1), EVEN_ONLY),
        ("schroeder", (0, 1, -2), (1, -1), ANY_TILES),
        ("motzkin", (0, 1, -1), (1, 0, 0, -1), None),  # no rule: it counts chord diagrams
    ], ids=["catalan", "trianglefree", "oddtiles", "eventiles", "schroeder", "motzkin-has-no-rule"])
    def test_symbol_and_rule(self, name, numerator, denominator, rule):
        sym, entry_rule, *_ = catalog_entry(name)
        assert sym.numerator == numerator
        assert sym.denominator == denominator
        assert entry_rule == rule


class TestSymbolInvariants:
    def test_rejects_constant_term_in_numerator(self):
        with pytest.raises(ValueError):
            ReversiveSymbol("x", (1, 1), (1,))

    def test_rejects_vanishing_denominator(self):
        with pytest.raises(ValueError):
            ReversiveSymbol("x", (0, 1), (0, 1))

    def test_rejects_non_unit_slope(self):
        with pytest.raises(ValueError):
            ReversiveSymbol("x", (0, 2, -1), (1,))

    def test_accepts_scaled_unit_slope(self):
        # slope p1/q0 = 2/2 = 1 is allowed even though p1 != 1
        ReversiveSymbol("x", (0, 2, -1), (2,))

    def test_trims_trailing_zeros(self):
        sym = ReversiveSymbol("c", (0, 1, -1, 0), (1, 0))
        catalan = catalog_entry("catalan").symbol
        assert (sym.numerator, sym.denominator) == (catalan.numerator, catalan.denominator)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            ReversiveSymbol("x", (0, 1.5), (1,))


class TestTileRule:
    def test_custom_requires_some_size(self):
        with pytest.raises(InvalidTileSet):
            TileRule()

    def test_custom_rejects_small_sizes(self):
        with pytest.raises(InvalidTileSet):
            TileRule({2, 4})
        with pytest.raises(InvalidTileSet):
            TileRule({4}, start=2)

    def test_rejects_zero_step(self):
        with pytest.raises(InvalidTileSet):
            TileRule(start=3, step=0)

    @pytest.mark.parametrize("fields", [
        dict(sizes={3.5}), dict(sizes={3, 4.0}), dict(start=3.5), dict(start=3, step=1.5),
    ], ids=["size", "integral-float-size", "start", "step"])
    def test_rejects_non_int(self, fields):
        with pytest.raises(TypeError, match=r"^tile side-counts and the tail step must be int$"):
            TileRule(**fields)

    def test_allows(self):
        assert ANY_TILES.allows(3) and ANY_TILES.allows(17)
        assert TRIANGLES_ONLY.allows(3) and not TRIANGLES_ONLY.allows(4)
        assert NO_TRIANGLES.allows(4) and not NO_TRIANGLES.allows(3)
        assert ODD_ONLY.allows(5) and not ODD_ONLY.allows(6)
        assert EVEN_ONLY.allows(6) and not EVEN_ONLY.allows(5)
        custom = TileRule({3}, start=6)
        assert custom.allows(3) and not custom.allows(4)
        assert custom.allows(6) and custom.allows(11)
        stepped = TileRule({4}, start=3, step=3)
        assert stepped.allows(4) and stepped.allows(9) and not stepped.allows(7)

    def test_finite_and_tail_folds_overlap(self):
        rule = TileRule({5, 3, 9}, start=7)
        assert (rule.sizes, rule.start, rule.step) == ((3, 5), 7, 1)

    @pytest.mark.parametrize("rule", [
        ANY_TILES, TRIANGLES_ONLY, NO_TRIANGLES, ODD_ONLY, EVEN_ONLY,
        TileRule({3, 5}), TileRule({3}, start=6), TileRule({4}, start=3, step=3),
    ], ids=lambda r: r.label())
    def test_label_round_trips_through_spec(self, rule):
        assert parse_tile_spec(rule.label()) == rule

    @given(random_rules())
    def test_generating_pair_expands_to_the_allowed_sizes(self, rule):
        # g(y) = sum of y^{s-2} over the allowed s
        num, den = rule.generating_pair()
        assert num[-1] != 0
        assert _div_raw(num, den, 40) == [0] + [int(rule.allows(s)) for s in range(3, 43)]


class TestSynthesis:
    @pytest.mark.parametrize("rule, numerator, denominator", [
        (NO_TRIANGLES, (0, 1, -1, -1), (1, -1)),
        (ODD_ONLY, (0, 1, -1, -1), (1, 0, -1)),
        (TRIANGLES_ONLY, (0, 1, -1), (1,)),
        (TileRule({4}), (0, 1, 0, -1), (1,)),
    ], ids=["no_triangles", "odd_only", "triangles_only", "single_custom_size"])
    def test_symbol_of_rule(self, rule, numerator, denominator):
        sym = symbol_from_tile_rule(rule)
        assert sym.numerator == numerator
        assert sym.denominator == denominator

    def test_matches_catalog_after_cross_multiplication(self):
        # P1 Q2 == P2 Q1 identifies equal rational functions
        for e in catalog():
            if e.rule is None:
                continue
            built = symbol_from_tile_rule(e.rule)
            n = len(built.numerator) + len(e.symbol.denominator)
            assert (_conv(built.numerator, e.symbol.denominator, n)
                    == _conv(e.symbol.numerator, built.denominator, n))

    def test_output_satisfies_symbol_invariants(self):
        rules = [
            ANY_TILES,
            TRIANGLES_ONLY,
            NO_TRIANGLES,
            ODD_ONLY,
            EVEN_ONLY,
            TileRule({4}),
            TileRule({3, 7}),
            TileRule({5}, start=9),
            TileRule(start=3),
            TileRule({4}, start=3, step=3),
        ]
        for rule in rules:
            sym = symbol_from_tile_rule(rule)  # constructor re-checks invariants
            assert sym.numerator[0] == 0
            assert sym.denominator[0] != 0
            assert sym.numerator[1] == sym.denominator[0]

    def test_custom_tail_reconstructs_triangle_free(self):
        sym = symbol_from_tile_rule(TileRule(start=4))
        ref = catalog_entry("trianglefree").symbol
        assert sym.numerator == ref.numerator
        assert sym.denominator == ref.denominator


class TestTextFormat:
    def test_format_known_entries(self):
        texts = [format_symbol(e.symbol) for e in catalog()]
        assert "catalan: (0,1,-1)/(1)" in texts
        assert "schroeder: (0,1,-2)/(1,-1)" in texts

    def test_round_trip_all_catalog_symbols(self):
        for sym in (e.symbol for e in catalog()):
            assert parse_symbol(format_symbol(sym)) == sym

    def test_parse_bare_symbol(self):
        sym = parse_symbol("(0,1,-1)/(1)")
        assert sym.name == "custom"
        assert sym.numerator == (0, 1, -1)

    def test_parse_tolerates_spaces(self):
        sym = parse_symbol("cat: (0, 1, -1) / (1)")
        assert sym.name == "cat"
        assert sym.denominator == (1,)

    @pytest.mark.parametrize("text", [
        "",
        "(0,1,-1)",
        "(0,1,-1)/",
        "(0,1,-1)/()",
        "(a,b)/(1)",
        "0,1,-1/(1)",
        ": (0,1,-1)/(1)",
        "(1,1)/(1)",      # violates the no-constant-term invariant
        "(0,2)/(1)",      # violates unit slope
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_symbol(text)


class TestTileSpecParsing:
    def test_keywords(self):
        assert parse_tile_spec("any") == ANY_TILES
        assert parse_tile_spec("triangles") == TRIANGLES_ONLY
        assert parse_tile_spec("notriangles") == NO_TRIANGLES
        assert parse_tile_spec("odd") == ODD_ONLY
        assert parse_tile_spec("EVEN") == EVEN_ONLY

    @pytest.mark.parametrize("keyword, spec", [
        ("any", "3+"), ("triangles", "3"), ("notriangles", "4+"), ("odd", "3+2"), ("even", "4+2"),
    ])
    def test_keyword_equals_its_spec(self, keyword, spec):
        assert parse_tile_spec(keyword) == parse_tile_spec(spec)

    def test_tail_spec(self):
        assert parse_tile_spec("4+") == TileRule(start=4)

    def test_list_spec(self):
        assert parse_tile_spec("3,5") == TileRule({3, 5})

    def test_list_with_tail(self):
        assert parse_tile_spec("3,6+") == TileRule({3}, start=6)

    def test_stepped_tail(self):
        assert parse_tile_spec("4,3+3") == TileRule({4}, start=3, step=3)
        assert parse_tile_spec("3+1") == ANY_TILES

    @pytest.mark.parametrize("spec, equal", [
        ("3,5,4+", "3+"),
        ("4,6+2", "4+2"),
        ("5,3,7+2", "odd"),
        ("6,4,5,7+", "4+"),
        ("5,3", "3,5"),
    ])
    def test_canonical_equality(self, spec, equal):
        assert parse_tile_spec(spec) == parse_tile_spec(equal)

    def test_canonical_equality_with_constructor(self):
        assert parse_tile_spec("3,5,4+") == TileRule({3}, start=4)
        assert parse_tile_spec("4,7+2") == TileRule({4, 7}, start=9, step=2) != TileRule(start=4, step=2)
        assert TileRule({3}, step=5) == TRIANGLES_ONLY

    @pytest.mark.parametrize("text", ["", "3,,5", "3+,5", "x", "3;5", "3+x", "3++2", "3+2,5"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_tile_spec(text)

    def test_rejects_undersized(self):
        with pytest.raises(InvalidTileSet):
            parse_tile_spec("2")

    def test_reads_every_short_spec_as_the_regex_reader_does(self):
        # every string of up to 4 characters over Unicode digits inside and
        # outside \d, the separators and junk, plus sizes too long for int()
        texts = ["".join(chars) for k in range(5) for chars in product("3\u0663\u00b3+_,x ", repeat=k)]
        texts += ["3" * 5000, "3+" + "3" * 5000, "3" * 5000 + "+"]
        outcomes = {text: (_outcome(parse_tile_spec, text), _outcome(_regex_spec_reader, text)) for text in texts}
        assert {text: pair for text, pair in outcomes.items() if pair[0] != pair[1]} == {}
        kinds = {type(ours) if isinstance(ours, TileRule) else ours[0] for ours, _ in outcomes.values()}
        assert kinds == {TileRule, ParseError}


def _outcome(parse, text):
    """What parse gives for text: the rule, or the exception's type and text."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _regex_spec_reader(text):
    r"""A tile-spec list reader on the regex (\d+)(\+(\d*))?, keywords aside: the reference for parse_tile_spec."""
    spec = text.strip().lower()
    if not spec:
        raise ParseError("empty tile spec")
    sizes, start, step = set(), None, 1
    parts = spec.split(",")
    for idx, part in enumerate(parts):
        part = part.strip()
        if not part:
            raise ParseError(f"empty entry in tile spec {text!r}")
        match = re.fullmatch(r"(\d+)(\+(\d*))?", part)
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
        except ValueError:
            raise ParseError(f"bad tile size {part!r}") from None
    return TileRule(sizes, start, step)


SCHROEDER = catalog()[3]
RECORDS = [ANY_TILES, SCHROEDER.symbol, SCHROEDER]


class TestRecords:
    """The three record types subclass collections.namedtuple classes and keep
    the dataclass contract: immutable, printed as before, and checked by every
    constructor path."""

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr_is_the_field_list(self):
        assert repr(ANY_TILES) == "TileRule(sizes=(), start=3, step=1)"
        assert repr(SCHROEDER.symbol) == (
            "ReversiveSymbol(name='schroeder', numerator=(0, 1, -2), denominator=(1, -1))")
        assert repr(SCHROEDER).startswith(f"CatalogEntry(symbol={SCHROEDER.symbol!r}, rule={ANY_TILES!r}, ")

    @pytest.mark.parametrize("record, change, error, message", [
        (ANY_TILES, {"start": 2}, InvalidTileSet, ">= 3"),
        (ANY_TILES, {"step": 0}, InvalidTileSet, "step"),
        (SCHROEDER.symbol, {"numerator": (1, 1)}, ValueError, "vanish at 0"),
        (SCHROEDER.symbol, {"denominator": (2, -1)}, ValueError, "unit slope"),
    ])
    def test_replace_runs_the_constructor_checks(self, record, change, error, message):
        with pytest.raises(error, match=message):
            record._replace(**change)
        with pytest.raises(error, match=message):
            type(record)._make(change.get(field, value) for field, value in zip(record._fields, record))

    def test_valid_replace_equals_the_directly_built_record(self):
        # _replace canonicalises as the constructor does
        assert ANY_TILES._replace(step=2) == TileRule(start=3, step=2) == ODD_ONLY
        assert TileRule({3}, 6)._replace(sizes={5, 8}) == TileRule({5}, 6) == TileRule(start=5)
        trimmed = SCHROEDER.symbol._replace(numerator=[0, 1, -2, 0])
        assert trimmed == ReversiveSymbol("schroeder", (0, 1, -2), (1, -1)) == SCHROEDER.symbol
        assert SCHROEDER._replace(rule=None) == CatalogEntry(SCHROEDER.symbol, None, SCHROEDER.closed_form,
                                                             SCHROEDER.ode)

    def test_a_record_equals_the_tuple_of_its_fields(self):
        assert ANY_TILES == ((), 3, 1) and hash(ANY_TILES) == hash(((), 3, 1))
        assert tuple(SCHROEDER) == (SCHROEDER.symbol, ANY_TILES, SCHROEDER.closed_form, SCHROEDER.ode)
        assert len({ANY_TILES, TileRule(start=3), parse_tile_spec("3+")}) == 1
