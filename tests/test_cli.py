"""CLI contract: output formats, exit statuses, config handling."""

import argparse
import contextlib
import errno
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from revsym import cli, power_series, symbols
from revsym.closed_forms import DomainError
from revsym.dissection_oracle import CapExceeded, count_chord_diagrams, enumerate_counts
from revsym.exact_arith import NonIntegerCoefficient, exact_div
from revsym.power_series import count_by_series, revert_direct
from revsym.symbols import TileRule, catalog, format_symbol, parse_symbol, parse_tile_spec

from shared import catalog_entry


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _break_shared_conv(monkeypatch):
    """Patch the one product kernel with a defect.

    The defect adds 2520 = lcm(1..10) to the top coefficient from degree 6
    on, so every Lagrange division by n <= 10 stays exact and only the
    cross-checks can catch it.  ``power_series`` is the one module that
    binds the kernel, which tests/test_dependencies.py checks.
    """
    real = power_series._conv

    def faulty(a, b, n, lo=0):
        out = real(a, b, n, lo)
        if n >= 6:
            out[n] += 2520
        return out

    monkeypatch.setattr(power_series, "_conv", faulty)


def _perturbed(route, index):
    """``route``, a list of terms, with one more added to its term a_index."""
    def perturbed(*args, **kwargs):
        terms = route(*args, **kwargs)
        terms[index] += 1
        return terms
    return perturbed


def _perturbed_count(route, index):
    """``route``, a count for one n, with one more added to its count at n = index."""
    def perturbed(n, *args, **kwargs):
        return route(n, *args, **kwargs) + (n == index)
    return perturbed


def _never_called(*args, **kwargs):
    raise AssertionError("this route must not run here")


@st.composite
def non_unit_symbol_texts(draw):
    """Symbol text of degree <= 4 with p_1 = q_0 in {+-2, +-3}."""
    c = draw(st.sampled_from([2, -2, 3, -3]))
    small = st.integers(min_value=-3, max_value=3)
    num = [0, c, *draw(st.lists(small, max_size=3))]
    den = [c, *draw(st.lists(small, max_size=4))]
    return f"({','.join(map(str, num))})/({','.join(map(str, den))})"


class TestList:
    def test_six_entries_with_known_lines(self, capsys):
        rc, out, _ = run(capsys, "list")
        lines = out.strip().splitlines()
        assert rc == 0
        assert len(lines) == 6
        assert "catalan: (0,1,-1)/(1)" in lines
        assert "schroeder: (0,1,-2)/(1,-1)" in lines

    def test_round_trips_through_parser(self, capsys):
        from revsym.symbols import parse_symbol

        rc, out, _ = run(capsys, "list")
        assert rc == 0
        parsed = [parse_symbol(line) for line in out.strip().splitlines()]
        assert parsed == [e.symbol for e in catalog()]

    def test_module_runs_as_a_script(self, capsys, monkeypatch):
        # python -m revsym.cli exits with main's status; the child imports
        # the same revsym package as this process
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "revsym.cli", "list"],
                                capture_output=True, text=True, env=env)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines() == [format_symbol(e.symbol) for e in catalog()]
        # a subcommand's help comes from the one parser main builds for it
        result = subprocess.run([sys.executable, "-m", "revsym.cli", "bfile", "--help"],
                                capture_output=True, text=True, env=env)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: revsym bfile [-h] --count COUNT --out PATH name_or_symbol\n")
        with pytest.raises(SystemExit):
            cli.main(["bfile", "--help"])
        assert result.stdout == capsys.readouterr().out


class TestTerms:
    def test_motzkin_closed(self, capsys):
        rc, out, _ = run(capsys, "terms", "motzkin", "--count", "5", "--method", "closed")
        assert rc == 0
        assert out.splitlines() == ["0 1", "1 1", "2 2", "3 4", "4 9"]

    def test_bare_symbol_reversion(self, capsys):
        rc, out, _ = run(capsys, "terms", "(0,1,-1)/(1)", "--count", "4", "--method", "reversion")
        assert rc == 0
        assert out.splitlines() == ["0 1", "1 1", "2 2", "3 5"]

    def test_sparse_symbol_of_high_degree_runs_in_bounded_time(self, capsys):
        # alpha = F - F^1000, so F = x + F^1000 and a_999 = 1 is the only
        # other nonzero term; about 0.2 s on 2 vCPUs, 19.7 s with a power
        # row for each of the 1000 degrees
        symbol = f"({','.join(['0', '1', *['0'] * 998, '-1'])})/(1)"
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "terms", symbol, "--count", "1000")
        elapsed = time.perf_counter() - t0
        assert (rc, err) == (0, "")
        assert out.splitlines() == [f"{n} {int(n in (0, 999))}" for n in range(1000)]
        assert elapsed < 3.0

    def test_unknown_name_exits_2(self, capsys):
        rc, _, err = run(capsys, "terms", "nosuch", "--count", "3", "--method", "closed")
        assert rc == 2
        assert "unknown sequence" in err

    def test_malformed_symbol_exits_2(self, capsys):
        rc, _, err = run(capsys, "terms", "(0,1,-1)/(0,1)", "--count", "3")
        assert rc == 2
        assert "error:" in err

    def test_non_integer_term_reports_reduced_value(self, capsys):
        # a_1 = (1/2) [t] (3/(3-t))^2 = 1/3
        rc, out, err = run(capsys, "terms", "(0,3,-1)/(3)", "--count", "4")
        assert rc == 2
        assert out == ""
        assert err == "error: a_1 = 1/3 is not an integer\n"

    def test_non_integer_term_beyond_the_str_digit_limit_exits_2(self, capsys):
        # a_2 = (2 p_2 + ...)/4 has about 3,000 digits as a reduced fraction,
        # but its unreduced numerator passes the 4,300-digit limit on the way
        rc, out, err = run(capsys, "terms", f"(0,2,{'9' * 2999}8,1)/(2)", "--count", "4")
        assert (rc, out) == (2, "")
        assert err.startswith("error: a_2 = ")

    def test_scaled_symbol_runs_in_integers(self, capsys):
        # schroeder with P and Q doubled: the same terms, without rational arithmetic
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "terms", "(0,2,-4)/(2,-2)", "--count", "201")
        elapsed = time.perf_counter() - t0
        assert (rc, err) == (0, "")
        assert elapsed < 6.0
        _, expected, _ = run(capsys, "terms", "schroeder", "--count", "201")
        assert out == expected

    def test_terms_beyond_the_str_digit_limit_print(self, capsys):
        # a_2 = 2 X^2 has 8,001 digits, more than the interpreter converts by default
        limit = sys.get_int_max_str_digits()
        rc, out, err = run(capsys, "terms", f"(0,1,-{'9' * 4000})/(1)", "--count", "3")
        assert (rc, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit  # restored for in-process callers
        sys.set_int_max_str_digits(0)
        try:
            expected = f"2 {2 * (10**4000 - 1) ** 2}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert out.splitlines()[2] == expected

    @pytest.mark.parametrize("argv", [
        ("terms", f"(0,1,-{'9' * 5000})/(1)"),
        ("from-tiles", f"3,{'9' * 5000}"),
    ], ids=["symbol", "tile-spec"])
    def test_input_beyond_the_str_digit_limit_exits_2(self, capsys, argv):
        rc, out, err = run(capsys, *argv, "--count", "3")
        assert (rc, out) == (2, "")
        assert err.startswith("error:")

    @settings(max_examples=200, deadline=None)
    @given(non_unit_symbol_texts())
    def test_exit_status_follows_direct_reversion(self, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["terms", text, "--count", "12"])
        try:
            terms = revert_direct(parse_symbol(text), 11)
        except NonIntegerCoefficient as exc:
            assert (rc, out.getvalue(), err.getvalue()) == (2, "", f"error: {exc}\n")
        else:
            assert (rc, err.getvalue()) == (0, "")
            assert out.getvalue() == "".join(f"{i} {v}\n" for i, v in enumerate(terms))

    def test_closed_needs_catalog_name(self, capsys):
        rc, _, err = run(capsys, "terms", "(0,1,-1)/(1)", "--count", "3", "--method", "closed")
        assert rc == 2
        assert "catalog" in err

    def test_closed_form_divisibility_failure_exits_2(self, capsys, monkeypatch):
        patched = tuple(
            e._replace(closed_form=lambda n: exact_div(7, 2, n)) if e.symbol.name == "catalan" else e
            for e in symbols._CATALOG
        )
        monkeypatch.setattr(symbols, "_CATALOG", patched)
        rc, out, err = run(capsys, "terms", "catalan", "--method", "closed", "--count", "3")
        assert (rc, out) == (2, "")
        assert err == "error: a_0 = 7/2 is not an integer\n"

    def test_closed_refuses_oddtiles_range_with_zero(self, capsys):
        rc, _, err = run(capsys, "terms", "oddtiles", "--count", "5", "--method", "closed")
        assert rc == 2
        assert "n=0" in err

    def test_series_needs_tile_rule(self, capsys):
        rc, _, err = run(capsys, "terms", "motzkin", "--count", "5", "--method", "series")
        assert rc == 2
        assert "tile rule" in err

    def test_reversion_and_series_agree_on_catalog(self, capsys):
        for e in catalog():
            if e.rule is None:
                continue
            rc1, out1, _ = run(capsys, "terms", e.symbol.name, "--count", "100", "--method", "reversion")
            rc2, out2, _ = run(capsys, "terms", e.symbol.name, "--count", "100", "--method", "series")
            assert rc1 == rc2 == 0
            assert out1 == out2, e.symbol.name


# stdout of ``verify <entry> --count 12 --exhaustive-cap-n 8 --chord-cap-p 9``
# for the six catalog entries in catalog order; every command exits 0
GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify_count12.txt"
GOLDEN_VERIFY_ARGS = ("--count", "12", "--exhaustive-cap-n", "8", "--chord-cap-p", "9")


class TestVerify:
    def test_catalog_tables_match_golden_bytes(self, capsys):
        outs = []
        for entry in catalog():
            rc, out, err = run(capsys, "verify", entry.symbol.name, *GOLDEN_VERIFY_ARGS)
            assert (rc, err) == (0, "")
            outs.append(out)
        assert "".join(outs).encode("ascii") == GOLDEN_VERIFY.read_bytes()

    @pytest.mark.parametrize("name, route, perturbed, column, k, cells", [
        ("schroeder", "count_by_series", _perturbed(count_by_series, 5), "series", 5, "ok {} ok"),
        ("catalan", "enumerate_counts", _perturbed(enumerate_counts, 4), "oracle", 4, "ok ok {}"),
        ("motzkin", "count_chord_diagrams", _perturbed_count(count_chord_diagrams, 6), "oracle", 6, "ok - {}"),
    ], ids=["series", "dissection-oracle", "chord-oracle"])
    def test_mismatch_in_each_column_exits_1(self, capsys, monkeypatch, name, route, perturbed, column, k, cells):
        a_k = revert_direct(cli._resolve(name).symbol, k)[k]
        monkeypatch.setattr(cli, route, perturbed)
        rc, out, _ = run(capsys, "verify", name, "--count", "10", "--exhaustive-cap-n", "8")
        assert rc == 1
        assert out.splitlines()[-2:] == [
            f"{k} {a_k} " + cells.format(a_k + 1),
            f"MISMATCH at n={k}: {column}={a_k + 1}, reversion={a_k}",
        ]

    def test_schroeder_ok(self, capsys):
        rc, out, _ = run(capsys, "verify", "schroeder", "--count", "8")
        assert rc == 0
        assert out.splitlines()[-1].startswith("ok:")

    def test_eventiles_shows_zero_rows(self, capsys):
        rc, out, _ = run(capsys, "verify", "eventiles", "--count", "8")
        assert rc == 0
        assert "3 0 ok ok ok" in out.splitlines()

    def test_oddtiles_annotates_excluded_boundary(self, capsys):
        rc, out, _ = run(capsys, "verify", "oddtiles", "--count", "8")
        assert rc == 0
        lines = out.splitlines()
        assert lines[2].startswith("0 1 excluded")
        assert any(line.startswith("note: closed form excluded at n=0") for line in lines)

    def test_excluded_column_follows_domain_error(self, capsys, monkeypatch):
        def undefined_at_zero(n):
            if n == 0:
                raise DomainError("undefined at n=0")
            return real(n)

        real = catalog_entry("catalan").closed_form
        patched = tuple(
            e._replace(closed_form=undefined_at_zero) if e.symbol.name == "catalan" else e
            for e in symbols._CATALOG
        )
        monkeypatch.setattr(symbols, "_CATALOG", patched)
        rc, out, _ = run(capsys, "verify", "catalan", "--count", "4")
        lines = out.splitlines()
        assert rc == 0
        assert lines[2] == "0 1 excluded ok ok"
        assert "note: closed form excluded at n=0 (boundary convention anomaly; reversion pins a_0 = 1)" in lines

    def test_unknown_name_exits_2(self, capsys):
        rc, _, err = run(capsys, "verify", "nosuch", "--count", "5")
        assert rc == 2
        assert "unknown sequence" in err

    @pytest.mark.parametrize("text", ["(0,1,-1)/(1)", "schroeder: (0,1,-2)/(1,-1)", "3,5"])
    def test_only_a_catalog_entry_is_verified(self, capsys, monkeypatch, text):
        # symbol text resolves with neither a closed form nor a rule, and no
        # rule would send it to the chord oracle; a tile spec names nothing
        for route in ("lagrange_coefficients", "count_chord_diagrams", "enumerate_counts"):
            monkeypatch.setattr(cli, route, _never_called)
        rc, out, err = run(capsys, "verify", text, "--count", "5")
        assert (rc, out) == (2, "")
        assert err == f"error: unknown sequence {text!r}; try 'revsym list'\n"

    def test_malformed_symbol_text_reports_the_parse_error(self, capsys):
        rc, out, err = run(capsys, "verify", "(0,1", "--count", "5")
        assert (rc, out, err) == (2, "", "error: expected (numerator)/(denominator)\n")

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        patched = tuple(
            e._replace(closed_form=lambda n: 999) if e.symbol.name == "catalan" else e
            for e in symbols._CATALOG
        )
        monkeypatch.setattr(symbols, "_CATALOG", patched)
        rc, out, _ = run(capsys, "verify", "catalan", "--count", "4")
        assert rc == 1
        assert "MISMATCH at n=0: closed=999" in out

    def test_shared_kernel_defect_exits_1(self, capsys, monkeypatch):
        _break_shared_conv(monkeypatch)
        rc, out, _ = run(capsys, "verify", "catalan", "--count", "10", "--exhaustive-cap-n", "8")
        assert rc == 1
        assert "MISMATCH at n=9: closed=" in out

    @pytest.mark.parametrize("name", ["trianglefree", "eventiles"])
    def test_triangle_free_oracle_runs_in_bounded_time(self, capsys, name):
        # about 0.12 s on 2 vCPUs at the default cap 12: a closed triangle
        # skips its subtree at once, and one walk gives every n; walking
        # every dissection took about 20 s
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "verify", name, "--count", "20")
        elapsed = time.perf_counter() - t0
        assert (rc, err) == (0, "")
        assert out.splitlines()[-1].startswith("ok:")
        assert elapsed < 3.0

    def test_cap_exceeded_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise CapExceeded("forced for the exit-status contract")

        monkeypatch.setattr(cli, "enumerate_counts", boom)
        rc, _, err = run(capsys, "verify", "catalan", "--count", "4")
        assert rc == 3
        assert "forced" in err


class TestFromTiles:
    def test_tail_rule_reconstruction(self, capsys):
        rc, out, _ = run(capsys, "from-tiles", "4+", "--count", "7")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "(0,1,-1,-1)/(1,-1)"
        assert lines[1:] == ["0 1", "1 0", "2 1", "3 1", "4 4", "5 8", "6 25"]

    def test_single_size_three_gives_catalan(self, capsys):
        rc, out, _ = run(capsys, "from-tiles", "3", "--count", "6")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "(0,1,-1)/(1)"
        assert [line.split()[1] for line in lines[1:]] == ["1", "1", "2", "5", "14", "42"]

    def test_quadrilaterals_only_matches_exhaustive(self, capsys):
        rc, out, _ = run(capsys, "from-tiles", "4", "--count", "8")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "(0,1,0,-1)/(1)"
        values = [int(line.split()[1]) for line in lines[1:]]
        assert values == enumerate_counts(7, TileRule({4}))

    def test_stepped_tail_matches_exhaustive(self, capsys):
        rc, out, _ = run(capsys, "from-tiles", "3+3", "--count", "9")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "(0,1,-1,0,-1)/(1,0,0,-1)"
        values = [int(line.split()[1]) for line in lines[1:]]
        assert values == enumerate_counts(8, parse_tile_spec("3+3"))

    @pytest.mark.parametrize("spec", ["3,1000000000", "1000000000+", "3+1000000000"])
    def test_oversized_tile_refused_quickly(self, capsys, spec):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "from-tiles", spec, "--count", "5")
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert out == ""
        assert "1000000000" in err

    def test_largest_useful_size_accepted(self, capsys):
        # a 6-gon (n = 4, the last of five terms) is one hexagonal tile
        rc, out, _ = run(capsys, "from-tiles", "6", "--count", "5")
        assert rc == 0
        assert out.splitlines()[1:] == ["0 1", "1 0", "2 0", "3 0", "4 1"]

    def test_shared_kernel_defect_exits_1(self, capsys, monkeypatch):
        # reversion and the series counter use the kernel on different operands
        _break_shared_conv(monkeypatch)
        rc, out, _ = run(capsys, "from-tiles", "3,5,7+", "--count", "10")
        assert rc == 1
        _, mismatch = out.splitlines()  # the symbol line, then no term lines
        assert mismatch.startswith("MISMATCH at n=9: reversion=")

    def test_deep_count_runs_in_bounded_time(self, capsys):
        # about 0.35 s on 2 vCPUs; Lagrange plus the Picard fixed-point counter took 26 s
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "from-tiles", "3,5,7+", "--count", "400")
        elapsed = time.perf_counter() - t0
        assert (rc, err) == (0, "")
        assert len(out.splitlines()) == 401
        assert elapsed < 4.0

    def test_sparse_kernel_defect_exits_1(self, capsys, monkeypatch):
        # 4,11 has g = y^2 + y^9, so Newton's compositions multiply by the
        # power table's halved entries xA^7 = xA^3 xA^4 and xA^2
        _break_shared_conv(monkeypatch)
        rc, out, _ = run(capsys, "from-tiles", "4,11", "--count", "12")
        assert rc == 1
        _, mismatch = out.splitlines()
        assert mismatch.startswith("MISMATCH at n=11: reversion=")

    def test_sparse_rule_of_high_degree_runs_in_bounded_time(self, capsys):
        # about 0.15 s on 2 vCPUs, 1.2 s while each power of xA was built to
        # full degree, and 47 s while both routes paid for all 600 degrees
        # of g = y^599 and J = 1 - 600 y^599
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "from-tiles", "3,601", "--count", "600")
        elapsed = time.perf_counter() - t0
        assert (rc, err) == (0, "")
        assert len(out.splitlines()) == 601
        assert elapsed < 12.0

    def test_bad_spec_exits_2(self, capsys):
        for spec in ("x", "2", "3+,5"):
            rc, _, err = run(capsys, "from-tiles", spec, "--count", "4")
            assert rc == 2, spec
            assert "error:" in err


GOLDEN_CATALAN_6 = b"0 1\n1 1\n2 2\n3 5\n4 14\n5 42\n"


class TestBfile:
    def test_catalan_golden_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "b000108.txt"
        rc, _, _ = run(capsys, "bfile", "catalan", "--count", "6", "--out", str(out_path))
        assert rc == 0
        assert out_path.read_bytes() == GOLDEN_CATALAN_6

    def test_schroeder_terms(self, capsys, tmp_path):
        out_path = tmp_path / "b.txt"
        rc, _, _ = run(capsys, "bfile", "schroeder", "--count", "6", "--out", str(out_path))
        assert rc == 0
        assert out_path.read_bytes() == b"0 1\n1 1\n2 3\n3 11\n4 45\n5 197\n"

    def test_count_zero_writes_empty_file(self, capsys, tmp_path):
        out_path = tmp_path / "empty.txt"
        rc, _, _ = run(capsys, "bfile", "catalan", "--count", "0", "--out", str(out_path))
        assert rc == 0
        assert out_path.read_bytes() == b""

    def test_byte_stable_across_runs(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "bfile", "trianglefree", "--count", "40", "--out", str(p1))
        run(capsys, "bfile", "trianglefree", "--count", "40", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("name, count, seconds", [
        # about 0.03 s on 2 vCPUs; direct reversion throughout took about 0.35 s
        ("schroeder", 1000, 5.0),
        # about 3 s on 2 vCPUs, mostly turning 22,000-bit terms into decimal text
        ("oddtiles", 10000, 60.0),
    ], ids=["schroeder-1000", "oddtiles-10000"])
    def test_deep_bfile_runs_in_bounded_time(self, capsys, tmp_path, name, count, seconds):
        out_path = tmp_path / "b.txt"
        t0 = time.perf_counter()
        rc, _, err = run(capsys, "bfile", name, "--count", str(count), "--out", str(out_path))
        elapsed = time.perf_counter() - t0
        assert (rc, err) == (0, "")
        lines = out_path.read_bytes().splitlines()
        assert len(lines) == count
        assert lines[-1].startswith(b"%d " % (count - 1))
        assert elapsed < seconds

    @pytest.mark.parametrize("name", [*(e.symbol.name for e in catalog()), "(0,1,-2)/(1,-1)"])
    def test_every_line_is_ascii_index_and_term(self, capsys, tmp_path, name):
        # the file is written as UTF-8, whose bytes for this text are ASCII
        out_path = tmp_path / "b.txt"
        rc, _, err = run(capsys, "bfile", name, "--count", "50", "--out", str(out_path))
        assert (rc, err) == (0, "")
        data = out_path.read_bytes()
        data.decode("ascii")
        lines = data.splitlines(keepends=True)
        assert len(lines) == 50
        assert all(re.fullmatch(rb"\d+ -?\d+\n", line) for line in lines)

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        rc, _, err = run(capsys, "bfile", "catalan", "--count", "3",
                         "--out", str(tmp_path / "missing dir" / "b.txt"))
        assert rc == 2
        assert "missing dir" in err


class TestDigitLimit:
    """A listing or a mismatch lifts the int-to-str digit limit once for all its lines, then restores it."""

    @pytest.fixture
    def limit(self):
        # a limit other than the default, so that restoring the default would show
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        yield 5000
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("command", ["terms", "bfile"])
    def test_restored_after_a_listing(self, capsys, tmp_path, limit, command):
        # a_2 = 2 X^2 has 8,001 digits, past the limit
        out_path = tmp_path / "b.txt"
        argv = [command, f"(0,1,-{'9' * 4000})/(1)", "--count", "3"]
        if command == "bfile":
            argv += ["--out", str(out_path)]
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        listing = out if command == "terms" else out_path.read_text()
        assert len(listing.splitlines()[2]) == len("2 ") + 8001

    @pytest.mark.parametrize("argv, lines", [
        (("verify", "catalan", "--count", "4", "--exhaustive-cap-n", "3"),
         ["2 2 ok {} ok", "MISMATCH at n=2: series={}, reversion=2"]),
        (("from-tiles", "3", "--count", "4"), ["MISMATCH at n=2: reversion=2, series={}"]),
    ], ids=["verify", "from-tiles"])
    def test_restored_after_a_mismatch(self, capsys, monkeypatch, limit, argv, lines):
        # the series counter's a_2 becomes 10^5000, of 5,001 digits, past the limit
        big = 10**5000

        def series(top, rule):
            terms = count_by_series(top, rule)
            terms[2] = big
            return terms

        monkeypatch.setattr(cli, "count_by_series", series)
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (1, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)  # the fixture restores its saved limit
        assert out.splitlines()[-len(lines):] == [line.format(big) for line in lines]

    def test_restored_when_a_write_fails_midway(self, capsys, monkeypatch, limit):
        lifted = []

        class FullDisk(io.StringIO):
            def write(self, line):
                lifted.append(sys.get_int_max_str_digits())
                if len(lifted) > 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(line)

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        rc, _, err = run(capsys, "bfile", "catalan", "--count", "10", "--out", "b.txt")
        assert (rc, err) == (2, "error: i/o: No space left on device\n")
        assert lifted == [0, 0, 0, 0]  # lifted while the lines are made, once for all of them
        assert sys.get_int_max_str_digits() == limit

    def test_same_bytes_on_a_python_without_the_limit(self, capsys, monkeypatch, tmp_path):
        # Python 3.10 before 3.10.7 has neither function; str() then has no limit to lift
        with_limit, without = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "bfile", "oddtiles", "--count", "300", "--out", str(with_limit))
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        rc, _, err = run(capsys, "bfile", "oddtiles", "--count", "300", "--out", str(without))
        assert (rc, err) == (0, "")
        assert without.read_bytes() == with_limit.read_bytes()


class TestRoutes:
    """``terms`` and ``bfile`` unroll a catalog entry's equation and run direct
    reversion on symbol text; verify's a(n) column runs Lagrange."""

    def _listings(self, capsys, tmp_path):
        out_path = tmp_path / "b.txt"
        results = [
            run(capsys, "terms", "schroeder", "--count", "30"),
            run(capsys, "bfile", "catalan", "--count", "50", "--out", str(out_path)),
            run(capsys, "from-tiles", "3,5,7+", "--count", "30"),
        ]
        return results, out_path.read_bytes()

    def test_term_listing_does_not_run_lagrange(self, capsys, monkeypatch, tmp_path):
        expected = self._listings(capsys, tmp_path)
        monkeypatch.setattr(cli, "lagrange_coefficients", _never_called)
        assert self._listings(capsys, tmp_path) == expected

    def _listing_bytes(self, capsys, tmp_path, command, name_or_symbol, count):
        """What ``terms`` prints, or ``bfile`` writes, for the first count terms."""
        out_path = tmp_path / "b.txt"
        argv = [command, name_or_symbol, "--count", str(count)]
        if command == "bfile":
            argv += ["--out", str(out_path)]
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        return out.encode() if command == "terms" else out_path.read_bytes()

    def _listing_lines(self, capsys, tmp_path, command, name_or_symbol, count):
        return self._listing_bytes(capsys, tmp_path, command, name_or_symbol, count).decode().splitlines()

    @pytest.mark.parametrize("command", ["terms", "bfile"])
    def test_a_name_lists_the_unroll(self, capsys, monkeypatch, tmp_path, command):
        # each list line's listing, by direct reversion throughout
        expected = {
            (entry.symbol.name, count): self._listing_bytes(
                capsys, tmp_path, command, format_symbol(entry.symbol), count)
            for entry in catalog() for count in (1, 2, 12, 13, 60)
        }
        # a name's listing runs no direct reversion, not even for its first terms
        monkeypatch.setattr(cli, "revert_direct", _never_called)
        assert {key: self._listing_bytes(capsys, tmp_path, command, *key) for key in expected} == expected
        catalan = expected["catalan", 60].decode().splitlines()
        monkeypatch.setattr(cli, "unroll_ode", _perturbed(power_series.unroll_ode, 30))
        lines = self._listing_lines(capsys, tmp_path, command, "catalan", 60)
        assert lines[30] == f"30 {int(catalan[30].split()[1]) + 1}"
        assert lines[:30] + lines[31:] == catalan[:30] + catalan[31:]

    @pytest.mark.parametrize("command", ["terms", "bfile"])
    def test_symbol_text_lists_direct_reversion(self, capsys, monkeypatch, tmp_path, command):
        symbol = cli._resolve("catalan").symbol
        catalan = revert_direct(symbol, 49)
        monkeypatch.setattr(cli, "unroll_ode", _never_called)
        monkeypatch.setattr(cli, "revert_direct", _perturbed(revert_direct, 30))
        lines = self._listing_lines(capsys, tmp_path, command, format_symbol(symbol), 50)
        assert lines[30] == f"30 {catalan[30] + 1}"

    @pytest.mark.parametrize("command", ["terms", "bfile"])
    @pytest.mark.parametrize("name", [entry.symbol.name for entry in catalog()])
    def test_a_name_lists_what_its_list_line_lists(self, capsys, tmp_path, name, command):
        # the unroll against direct reversion, byte for byte
        assert self._listing_lines(capsys, tmp_path, command, name, 400) == self._listing_lines(
            capsys, tmp_path, command, format_symbol(cli._resolve(name).symbol), 400)

    def test_terms_of_a_name_runs_in_bounded_time(self, capsys):
        # about 0.05 s on 2 vCPUs; direct reversion took 3.3 to 4.2 s
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "terms", "schroeder", "--count", "2000")
        elapsed = time.perf_counter() - t0
        assert (rc, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 2000
        assert lines[-1] == f"1999 {catalog_entry('schroeder').closed_form(1999)}"
        assert elapsed < 1.0

    def test_from_tiles_checks_direct_reversion_against_the_series(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "revert_direct", _perturbed(revert_direct, 7))
        rc, out, _ = run(capsys, "from-tiles", "3,5,7+", "--count", "30")
        assert rc == 1
        _, mismatch = out.splitlines()
        assert mismatch.startswith("MISMATCH at n=7: reversion=")

    def test_verify_runs_lagrange(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "lagrange_coefficients", _perturbed(power_series.lagrange_coefficients, 4))
        rc, out, _ = run(capsys, "verify", "catalan", "--count", "10", "--exhaustive-cap-n", "6")
        assert rc == 1
        assert "MISMATCH at n=4: closed=14, reversion=15" in out


class TestConfig:
    def test_default_count_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "revsym.conf"
        cfg.write_text("# settings\ndefault_count = 3\n")
        rc, out, _ = run(capsys, "terms", "catalan", "--config", str(cfg))
        assert rc == 0
        assert len(out.splitlines()) == 3

    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "revsym.conf"
        cfg.write_text("default_count=3\n")
        rc, out, _ = run(capsys, "terms", "catalan", "--config", str(cfg), "--count", "2")
        assert rc == 0
        assert len(out.splitlines()) == 2

    def test_built_in_default_count(self, capsys):
        rc, out, _ = run(capsys, "terms", "catalan")
        assert rc == 0
        assert len(out.splitlines()) == cli.DEFAULT_COUNT

    def test_caps_from_file_respected(self, capsys, tmp_path):
        cfg = tmp_path / "revsym.conf"
        cfg.write_text("exhaustive_cap_n=3\nchord_cap_p=3\n")
        rc, out, _ = run(capsys, "verify", "catalan", "--count", "6", "--config", str(cfg))
        assert rc == 0
        # oracle column stops after the configured cap
        rows = out.splitlines()
        assert rows[2 + 3].split()[-1] == "ok"
        assert rows[2 + 4].split()[-1] == "-"

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "revsym.conf"
        cfg.write_text("wat=1\n")
        rc, _, err = run(capsys, "terms", "catalan", "--config", str(cfg))
        assert rc == 2
        assert "unknown setting" in err

    def test_bad_value_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "revsym.conf"
        cfg.write_text("default_count=zero\n")
        rc, _, err = run(capsys, "terms", "catalan", "--config", str(cfg))
        assert rc == 2

    @pytest.mark.parametrize("line, message", [
        ("default_count 3", "expected key=value, got 'default_count 3'"),
        ("default_count = 0", "default_count out of range: 0"),
        ("chord_cap_p=-1", "chord_cap_p out of range: -1"),
    ])
    def test_malformed_line_exits_2(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "revsym.conf"
        cfg.write_text(f"# settings\n{line}\n")
        rc, out, err = run(capsys, "terms", "catalan", "--config", str(cfg))
        assert (rc, out) == (2, "")
        assert err == f"error: {cfg}:2: {message}\n"

    def test_byte_order_mark_is_read_past(self, capsys, tmp_path):
        cfg = tmp_path / "revsym.conf"
        cfg.write_bytes(b"\xef\xbb\xbfdefault_count = 3\n")
        rc, out, err = run(capsys, "terms", "catalan", "--config", str(cfg))
        assert (rc, out, err) == (0, "0 1\n1 1\n2 2\n", "")
        # the offset of a bad byte counts the mark
        cfg.write_bytes(b"\xef\xbb\xbfa=1\n\xff\n")
        rc, out, err = run(capsys, "terms", "catalan", "--config", str(cfg))
        assert (rc, out, err) == (2, "", f"error: {cfg}: not UTF-8 text (byte 7)\n")

    def test_missing_file_exits_2(self, capsys, tmp_path):
        rc, _, err = run(capsys, "terms", "catalan", "--config", str(tmp_path / "nope.conf"))
        assert rc == 2
        assert "nope.conf" in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_bytes(b"\xff\xfedefault_count=3\n")
        rc, out, err = run(capsys, "terms", "catalan", "--config", str(cfg))
        assert (rc, out) == (2, "")
        assert err == f"error: {cfg}: not UTF-8 text (byte 0)\n"

    def test_empty_path_exits_2(self, capsys):
        # an unset shell variable passed as the path is an error, not the defaults
        rc, out, err = run(capsys, "terms", "catalan", "--count", "3", "--config", "")
        assert (rc, out, err) == (2, "", "error: --config: empty path\n")


class TestUsageErrors:
    def test_zero_count_rejected_for_terms(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["terms", "catalan", "--count", "0"])
        assert exc.value.code == 2

    def test_negative_count_rejected_for_bfile(self, capsys, tmp_path):
        out = tmp_path / "b.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bfile", "catalan", "--count", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("revsym bfile: error: argument --count: must be >= 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        [*sub, flag, value]
        for sub in (["list"], ["bfile", "catalan", "--count", "3", "--out", "b.txt"])
        for flag, value in (("--config", "missing.conf"), ("--exhaustive-cap-n", "3"), ("--chord-cap-p", "3"))
    ] + [
        [*sub, flag, "3"]
        for sub in (["terms", "catalan"], ["from-tiles", "odd"])
        for flag in ("--exhaustive-cap-n", "--chord-cap-p")
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_rejected_where_no_subcommand_reads_it(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_missing_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


# one case per message path: no command, root help, an unknown command,
# unrecognized arguments after each kind of subcommand, each subcommand's
# help, a bad value, and a flag that only another subcommand reads
_MESSAGE_CASES = [
    [], ["--help"], ["ter", "catalan"],
    ["list", "extra"], ["bfile", "catalan", "--count", "1", "--out", "X", "extra"],
    *([name, "--help"] for name in ("list", "terms", "verify", "from-tiles", "bfile")),
    ["terms", "catalan", "--count", "0"], ["verify", "catalan", "--count", "x"],
    ["bfile", "catalan", "--count", "1", "--out", "X", "--chord-cap-p", "3"],
    # lines that _read_argv leaves to argparse: a joined or shortened flag
    # with a bad value, a flag with no value, and help after a positional
    ["terms", "catalan", "--count=0"], ["terms", "catalan", "--cou", "0"],
    ["bfile", "catalan", "--out"], ["verify", "catalan", "-h"],
]


def _argv_id(argv):
    return " ".join(argv) or "no-arguments"


def _exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# every flag of every command, words that pass or fail their types and
# choices, and the forms that only argparse reads
_FLAGS = sorted({flag for _, _, arguments in cli._COMMANDS.values() for flag, _ in arguments if flag[0] == "-"})
_WORDS = ["0", "1", "3", "x", "", "catalan", "odd", "reversion", "series", "b.txt",
          "-h", "--", "--count=3", "--cou", "-1", "-"]


@st.composite
def command_lines(draw):
    """A command, most of its own arguments, and stray flags and words, in any order.

    An argument's value is one it accepts or, as often, any of ``_WORDS``.
    """
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    word = st.sampled_from(_WORDS)
    pieces = []
    for flag, options in cli._COMMANDS[command][2]:
        if draw(st.integers(0, 3)):
            fits = options.get("choices") or (["1", "3"] if "type" in options else ["catalan", "", "b.txt"])
            value = draw(st.one_of(st.sampled_from(fits), word))
            pieces.append([flag, value] if flag[0] == "-" else [value])
    pieces += draw(st.lists(st.one_of(st.tuples(st.sampled_from(_FLAGS), word),
                                      st.tuples(st.sampled_from(_WORDS + _FLAGS))), max_size=3))
    return [command, *(w for piece in draw(st.permutations(pieces)) for w in piece)]


class TestOneParserPerCommand:
    """``main`` reads a well-formed line without argparse and leaves every other line to it."""

    @settings(max_examples=500, deadline=None)
    @given(command_lines())
    def test_reader_agrees_with_argparse(self, argv):
        read = cli._read_argv(argv)
        if read is None:
            return
        try:
            parsed = cli._build_parser().parse_args(argv)
        except SystemExit as exc:
            raise AssertionError(f"argparse exits {exc.code} on {argv}, which _read_argv read") from None
        assert vars(read) == vars(parsed)

    @pytest.mark.parametrize("columns", [80, 40])
    @pytest.mark.parametrize("argv", _MESSAGE_CASES, ids=_argv_id)
    def test_messages_equal_the_all_commands_parser(self, capsys, monkeypatch, tmp_path, argv, columns):
        # compared in this interpreter, since argparse's wording differs between releases
        monkeypatch.setenv("COLUMNS", str(columns))
        monkeypatch.chdir(tmp_path)
        expected = _exit_and_output(capsys, lambda a: cli._build_parser().parse_args(a), argv)
        assert expected[0] in (0, 2) and expected[1] + expected[2]
        assert _exit_and_output(capsys, cli.main, argv) == expected
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, built", [
        (["list"], 0),
        (["terms", "catalan", "--count", "3"], 0),
        (["verify", "catalan", "--count", "3"], 0),
        (["from-tiles", "3", "--count", "3"], 0),
        (["bfile", "catalan", "--count", "3", "--out", "b.txt"], 0),
        (["terms", "catalan", "--count=3"], 6),
        (["terms", "catalan", "--cou", "3"], 6),
        (["--help"], 6),
        ([], 6),
    ], ids=lambda value: _argv_id(value) if isinstance(value, list) else None)
    def test_parsers_built(self, capsys, monkeypatch, tmp_path, argv, built):
        monkeypatch.chdir(tmp_path)
        created = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            created.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        with contextlib.suppress(SystemExit):
            cli.main(argv)
        assert len(created) == built
        if argv[:2] == ["terms", "catalan"]:  # every spelling of --count 3 prints its terms
            assert capsys.readouterr().out == "0 1\n1 1\n2 2\n"

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, tmp_path):
        # the console script calls main() with no arguments
        out_path = tmp_path / "b.txt"
        monkeypatch.setattr(sys, "argv", ["revsym", "bfile", "catalan", "--count", "6", "--out", str(out_path)])
        assert cli.main() == 0
        assert out_path.read_bytes() == GOLDEN_CATALAN_6
        monkeypatch.setattr(sys, "argv", ["revsym", "list", "extra"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "{list,terms,verify,from-tiles,bfile}" in err
        assert err.endswith("revsym: error: unrecognized arguments: extra\n")
