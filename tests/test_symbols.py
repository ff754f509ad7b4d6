"""Symbol catalog, tile-rule synthesis, the two certificates on them, and the text format."""

import pytest
from hypothesis import given, strategies as st

from revsym import power_series
from revsym.dissection_oracle import Dissection, enumerate_counts
from revsym.power_series import _conv, _div_raw, lagrange_coefficients, verify_inverse, verify_tautological
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


@st.composite
def random_rules(draw):
    """Sizes 3..14 plus an optional tail with start 3..14 and step 1..4."""
    sizes = draw(st.sets(st.integers(min_value=3, max_value=14), max_size=5))
    tail = draw(st.none() | st.tuples(st.integers(min_value=3, max_value=14),
                                       st.integers(min_value=1, max_value=4)))
    if tail is None:
        return TileRule(sizes or {3})
    return TileRule(sizes, *tail)


def entry(name):
    for e in catalog():
        if e.symbol.name == name:
            return e.symbol, e.rule
    raise KeyError(name)


class TestCatalog:
    def test_has_exactly_six_entries(self):
        assert len(catalog()) == 6

    def test_names_in_order(self):
        names = [e.symbol.name for e in catalog()]
        assert names == ["trianglefree", "oddtiles", "eventiles", "schroeder", "catalan", "motzkin"]

    def test_catalan_symbol(self):
        sym, rule = entry("catalan")
        assert sym.numerator == (0, 1, -1)
        assert sym.denominator == (1,)
        assert rule == TRIANGLES_ONLY

    def test_triangle_free_symbol(self):
        sym, rule = entry("trianglefree")
        assert sym.numerator == (0, 1, -1, -1)
        assert sym.denominator == (1, -1)
        assert rule == NO_TRIANGLES

    def test_odd_symbol(self):
        sym, rule = entry("oddtiles")
        assert sym.numerator == (0, 1, -1, -1)
        assert sym.denominator == (1, 0, -1)
        assert rule == ODD_ONLY

    def test_even_symbol(self):
        sym, rule = entry("eventiles")
        assert sym.numerator == (0, 1, 0, -2)
        assert sym.denominator == (1, 0, -1)
        assert rule == EVEN_ONLY

    def test_schroeder_symbol(self):
        sym, rule = entry("schroeder")
        assert sym.numerator == (0, 1, -2)
        assert sym.denominator == (1, -1)
        assert rule == ANY_TILES

    def test_motzkin_symbol_has_no_rule(self):
        sym, rule = entry("motzkin")
        assert sym.numerator == (0, 1, -1)
        assert sym.denominator == (1, 0, 0, -1)
        assert rule is None


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
        catalan, _ = entry("catalan")
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
    def test_no_triangles(self):
        sym = symbol_from_tile_rule(NO_TRIANGLES)
        assert sym.numerator == (0, 1, -1, -1)
        assert sym.denominator == (1, -1)

    def test_odd_only(self):
        sym = symbol_from_tile_rule(ODD_ONLY)
        assert sym.numerator == (0, 1, -1, -1)
        assert sym.denominator == (1, 0, -1)

    def test_triangles_only(self):
        sym = symbol_from_tile_rule(TRIANGLES_ONLY)
        assert sym.numerator == (0, 1, -1)
        assert sym.denominator == (1,)

    def test_single_custom_size(self):
        sym = symbol_from_tile_rule(TileRule({4}))
        assert sym.numerator == (0, 1, 0, -1)
        assert sym.denominator == (1,)

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
        ref, _ = entry("trianglefree")
        assert sym.numerator == ref.numerator
        assert sym.denominator == ref.denominator


class TestVerifiers:
    def test_verify_inverse_accepts_exhaustive_catalan_counts(self):
        sym, rule = entry("catalan")
        terms = enumerate_counts(4, rule)
        assert terms == [1, 1, 2, 5, 14]
        assert verify_inverse(sym, terms)

    def test_verify_inverse_rejects_perturbation(self):
        sym, _ = entry("catalan")
        assert not verify_inverse(sym, [1, 1, 2, 5, 15])

    def test_verify_inverse_accepts_exhaustive_schroeder_counts(self):
        sym, rule = entry("schroeder")
        terms = enumerate_counts(4, rule)
        assert terms == [1, 1, 3, 11, 45]
        assert verify_inverse(sym, terms)

    def test_verify_inverse_needs_no_division(self):
        # schroeder with P and Q doubled has the same inverse; (2F - F^2)/2 has no integral one
        doubled = parse_symbol("(0,2,-4)/(2,-2)")
        assert verify_inverse(doubled, [1, 1, 3, 11, 45])
        assert not verify_inverse(doubled, [1, 1, 3, 11, 46])
        assert not verify_inverse(parse_symbol("(0,2,-1)/(2)"), [1, 0, 0])

    def test_verify_inverse_takes_no_quotient(self, monkeypatch):
        # checked as P(F) = x Q(F), with no quotient P/Q.
        # Lagrange divides, so its terms are computed before the patch
        reverted = [(e.symbol, lagrange_coefficients(e.symbol, 30)) for e in catalog()]

        def no_division(*args):
            raise AssertionError("verify_inverse divided")

        monkeypatch.setattr(power_series, "_div_raw", no_division)
        for sym, terms in reverted:
            assert verify_inverse(sym, terms), sym.name
            terms[30] += 1
            assert not verify_inverse(sym, terms), sym.name

    def test_verify_tautological_needs_no_division(self, monkeypatch):
        # checked as Dg(xA) (A - 1) = A Ng(xA), with no quotient Ng/Dg.
        # Lagrange divides, so its terms are computed before the patch
        tiled = [(e, lagrange_coefficients(e.symbol, 30)) for e in catalog() if e.rule is not None]

        def no_division(*args):
            raise AssertionError("verify_tautological divided")

        monkeypatch.setattr(power_series, "_div_raw", no_division)
        for e, terms in tiled:
            assert verify_tautological(e.rule, terms), e.symbol.name
            terms[30] += 1
            assert not verify_tautological(e.rule, terms), e.symbol.name

    def test_verifiers_need_a_0(self):
        sym, rule = entry("catalan")
        with pytest.raises(ValueError, match=r"^need at least a_0$"):
            verify_inverse(sym, [])
        with pytest.raises(ValueError, match=r"^need at least a_0$"):
            verify_tautological(rule, [])

    def test_verify_tautological_accepts_exhaustive_counts(self):
        terms = enumerate_counts(5, NO_TRIANGLES)
        assert terms == [1, 0, 1, 1, 4, 8]
        assert verify_tautological(NO_TRIANGLES, terms)

    def test_verify_tautological_catalan_recurrence(self):
        assert verify_tautological(TRIANGLES_ONLY, [1, 1, 2, 5, 14])

    def test_verify_tautological_rejects_perturbation(self):
        assert not verify_tautological(ANY_TILES, [1, 1, 3, 11, 46])

    def test_all_catalog_symbols_verify_at_depth_sixty(self):
        for e in catalog():
            terms = lagrange_coefficients(e.symbol, 60)
            assert verify_inverse(e.symbol, terms), e.symbol.name
            if e.rule is not None:
                assert verify_tautological(e.rule, terms), e.symbol.name

    def test_custom_rule_closes_the_loop(self):
        # synthesized symbol, reversion terms, exhaustive counts and the
        # tile equation must all tell the same story
        rule = TileRule({3}, start=6)
        sym = symbol_from_tile_rule(rule)
        terms = lagrange_coefficients(sym, 7)
        assert terms == enumerate_counts(7, rule)
        assert verify_inverse(sym, terms)
        assert verify_tautological(rule, terms)


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


SCHROEDER = catalog()[3]
RECORDS = [ANY_TILES, SCHROEDER.symbol, Dissection(3, [(0, 2)]), SCHROEDER]


class TestRecords:
    """The four record types are NamedTuples that keep the dataclass contract:
    immutable, printed as before, and checked by every constructor path."""

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
        assert repr(Dissection(3, [(2, 0)])) == "Dissection(n=3, diagonals=frozenset({(0, 2)}))"
        assert repr(SCHROEDER).startswith(f"CatalogEntry(symbol={SCHROEDER.symbol!r}, rule={ANY_TILES!r}, ")

    @pytest.mark.parametrize("record, change, error, message", [
        (ANY_TILES, {"start": 2}, InvalidTileSet, ">= 3"),
        (ANY_TILES, {"step": 0}, InvalidTileSet, "step"),
        (SCHROEDER.symbol, {"numerator": (1, 1)}, ValueError, "vanish at 0"),
        (SCHROEDER.symbol, {"denominator": (2, -1)}, ValueError, "unit slope"),
        (Dissection(3, [(0, 2)]), {"diagonals": [(0, 2), (1, 3)]}, ValueError, "cross"),
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
        assert Dissection(3, [(0, 2)])._replace(diagonals=[(3, 0)]) == Dissection(3, [(0, 3)])
        assert SCHROEDER._replace(rule=None) == CatalogEntry(SCHROEDER.symbol, None, SCHROEDER.closed_form)

    def test_a_record_equals_the_tuple_of_its_fields(self):
        assert ANY_TILES == ((), 3, 1) and hash(ANY_TILES) == hash(((), 3, 1))
        assert Dissection(3, [(2, 0)]) == (3, frozenset({(0, 2)}))
        assert tuple(SCHROEDER) == (SCHROEDER.symbol, ANY_TILES, SCHROEDER.closed_form)
        assert len({ANY_TILES, TileRule(start=3), parse_tile_spec("3+")}) == 1
