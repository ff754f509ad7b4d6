"""Acceptance suite: one test per shipped criterion, exact equality throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines as they complete.  The final criterion drives the CLI's
``verify`` across the whole catalog at count 20 with default caps, which
enumerates dissections up to the n = 12 cap and therefore takes 6.3 to
10.8 s (nine runs on Python 3.11.7, 2 vCPUs, shared host); everything else
finishes in seconds.
"""

import time
from contextlib import contextmanager

import pytest

from revsym import cli
from revsym.closed_forms import DomainError, even_term, motzkin_term, odd_term
from revsym.dissection_oracle import count_chord_diagrams, enumerate_counts
from revsym.exact_arith import NonIntegerCoefficient, exact_div
from revsym.power_series import (
    count_by_series,
    lagrange_coefficients,
    revert_direct,
    verify_inverse,
    verify_tautological,
)
from revsym.symbols import (
    ReversiveSymbol,
    catalog,
    parse_tile_spec,
)

from shared import catalog_entry

_cache: dict = {}


def terms_to(symbol, n):
    key = (symbol.name, n)
    if key not in _cache:
        _cache[key] = lagrange_coefficients(symbol, n)
    return _cache[key]


@contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL ({time.perf_counter() - t0:.1f}s): {desc}")
        raise
    print(f"[criterion {num}] PASS ({time.perf_counter() - t0:.1f}s): {desc}")


def test_criterion_1_lagrange_equals_direct_reversion():
    with criterion(1, "Lagrange terms = direct-reversion terms, n <= 100, all six symbols"):
        t0 = time.perf_counter()
        for sym in (e.symbol for e in catalog()):
            lag = terms_to(sym, 100)
            assert revert_direct(sym, 100) == lag, sym.name
        assert time.perf_counter() - t0 < 60.0, "three-way agreement must run in under a minute"


def test_criterion_2_closed_forms_equal_reversion_to_200():
    with criterion(2, "closed-form term = reversion term, 0 <= n <= 200, all six sequences"):
        excluded = []
        for e in catalog():
            rev = terms_to(e.symbol, 200)
            for n in range(201):
                try:
                    assert e.closed_form(n) == rev[n], (e.symbol.name, n)
                except DomainError:
                    excluded.append((e.symbol.name, n))
        assert excluded == [("oddtiles", 0)]


ANCHORS = {
    # hand-scale counts, each re-derivable by the exhaustive oracle
    "any": {1: 1, 2: 3, 3: 11, 4: 45, 5: 197},
    "triangles": {2: 2, 3: 5, 4: 14, 5: 42},
    "notriangles": {2: 1, 3: 1, 4: 4, 5: 8, 6: 25},
    "odd": {2: 2, 3: 6, 4: 20},
    "even": {2: 1, 3: 0, 4: 4, 5: 0, 6: 21},
}


def test_criterion_3_exhaustive_oracle_triangle():
    with criterion(3, "enumeration = series counter = reversion for n <= 10, five rules"):
        keyword_of = {parse_tile_spec(keyword): keyword for keyword in ANCHORS}
        by_rule = {keyword_of[e.rule]: (e.symbol, e.rule) for e in catalog() if e.rule is not None}
        assert set(by_rule) == set(ANCHORS)
        for kind, (sym, rule) in by_rule.items():
            counted = enumerate_counts(10, rule)
            series = count_by_series(10, rule)
            rev = terms_to(sym, 100)
            for n in range(1, 11):
                assert counted[n] == series[n] == rev[n], (kind, n)
                if n in ANCHORS[kind]:
                    assert counted[n] == ANCHORS[kind][n], (kind, n)


def test_criterion_4_functional_identities():
    with criterion(4, "alpha(F(x)) = x at precision 101; tile equation at count 100; parity"):
        for e in catalog():
            terms = terms_to(e.symbol, 100)
            assert verify_inverse(e.symbol, terms), e.symbol.name
            if e.rule is not None:
                assert verify_tautological(e.rule, terms), e.symbol.name
        even_entry = catalog_entry("eventiles").symbol
        rev = terms_to(even_entry, 199)
        for n in range(1, 200, 2):
            assert even_term(n) == 0, n
            assert rev[n] == 0, n


MOTZKIN_FIRST_ELEVEN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


def test_criterion_5_chord_model_equals_motzkin():
    with criterion(5, "disjoint-chord counts = motzkin terms for p <= 10"):
        chords = [count_chord_diagrams(p) for p in range(11)]
        assert chords == MOTZKIN_FIRST_ELEVEN
        assert chords == [motzkin_term(p) for p in range(11)]


def test_criterion_6_divisibility_and_integrality():
    with criterion(6, "every inner sum divides exactly; every reversion coefficient is integral"):
        # the evaluators and lagrange_coefficients raise on any violation,
        # so a clean sweep to n = 200 is the assertion
        excluded = []
        for e in catalog():
            for n in range(201):
                try:
                    e.closed_form(n)
                except DomainError:
                    excluded.append((e.symbol.name, n))
            terms_to(e.symbol, 200)
        assert excluded == [("oddtiles", 0)]
        # and the enforcement itself is live, not vacuous:
        with pytest.raises(NonIntegerCoefficient):
            exact_div(7, 2, 0)
        with pytest.raises(NonIntegerCoefficient):
            bad = ReversiveSymbol("bad", (0, 2, -1), (2,))
            lagrange_coefficients(bad, 3)


def test_criterion_7_boundary_anomaly_pinning():
    """The odd-tile sum is empty at n = 0 and gives 0, while series reversion
    forces a_0 = 1 for the 2-gon.  The implementation refuses to emit a number
    for it from the formula path; the even-tile sum, empty there too, returns
    the 1 directly."""
    with criterion(7, "odd_term(0) raises; even_term(0) = 1 by bypass; reversion a_0 = 1"):
        with pytest.raises(DomainError):
            odd_term(0)
        assert even_term(0) == 1
        for sym in (e.symbol for e in catalog()):
            assert terms_to(sym, 100)[0] == 1, sym.name


GOLDEN_CATALAN_6 = b"0 1\n1 1\n2 2\n3 5\n4 14\n5 42\n"


def test_criterion_8_cli_contract(tmp_path, capsys):
    with criterion(8, "verify exits 0 on the catalog at count 20; catalan b-file is byte-exact"):
        for sym in (e.symbol for e in catalog()):
            rc = cli.main(["verify", sym.name, "--count", "20"])
            capsys.readouterr()
            assert rc == 0, sym.name
        out = tmp_path / "b_catalan.txt"
        rc = cli.main(["bfile", "catalan", "--count", "6", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == GOLDEN_CATALAN_6
