"""Command-line front end for the dissection-sequence catalog.

Subcommands: ``list``, ``terms``, ``verify``, ``from-tiles``, ``bfile``.
Exit status: 0 success, 1 verification mismatch, 2 usage or parse error.
``main`` returns 3 if an oracle raises ``CapExceeded``, which no command does
today: ``verify`` stops each oracle column at its cap and prints ``-`` past it.

``terms`` (by its default method), ``bfile`` and ``from-tiles`` take their
terms from direct reversion, and ``from-tiles`` checks them against the
tile-equation counter.  ``verify`` takes its ``a(n)`` column from Lagrange
inversion, the independent route, and checks the others against it: every
route runs, each to one column of terms, before the table prints.

Settings come from built-in defaults, optionally overridden by a plain
``key=value`` config file (keys ``exhaustive_cap_n``, ``chord_cap_p``,
``default_count``), overridden in turn by command flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from .closed_forms import DomainError
from .dissection_oracle import (
    DEFAULT_CHORD_CAP,
    DEFAULT_DISSECTION_CAP,
    CapExceeded,
    count_chord_diagrams,
    enumerate_counts,
)
from .exact_arith import NonIntegerCoefficient, _decimal
from .power_series import count_by_series, lagrange_coefficients, revert_direct
from .symbols import (
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

__all__ = ["main", "UnknownName", "MethodUnavailable"]

DEFAULT_COUNT = 10


class UnknownName(ValueError):
    """A sequence name that is not in the catalog."""


class MethodUnavailable(ValueError):
    """The requested computation path does not exist for this sequence."""


# config key -> (the flag it fills, its built-in default)
_SETTINGS = {
    "exhaustive_cap_n": ("exhaustive_cap_n", DEFAULT_DISSECTION_CAP),
    "chord_cap_p": ("chord_cap_p", DEFAULT_CHORD_CAP),
    "default_count": ("count", DEFAULT_COUNT),
}


def _read_config(path: str) -> dict[str, int]:
    if not path:
        raise ParseError("--config: empty path")
    values: dict[str, int] = {}
    try:
        # a leading byte order mark is dropped after decoding, not by utf-8-sig,
        # which would count the byte offset below from after the mark
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SETTINGS:
            raise ParseError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            number = int(value)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: {key} needs an integer, got {value!r}") from None
        if number < 0 or (key == "default_count" and number < 1):
            raise ParseError(f"{path}:{lineno}: {key} out of range: {number}")
        values[key] = number
    return values


def _fill_settings(args: argparse.Namespace) -> None:
    """Give every flag the subcommand has and was not passed its config value, else its default."""
    config = _read_config(args.config) if getattr(args, "config", None) is not None else {}
    for key, (flag, default) in _SETTINGS.items():
        if getattr(args, flag, default) is None:
            setattr(args, flag, config.get(key, default))


def _resolve(text: str) -> tuple[ReversiveSymbol, Optional[TileRule], Optional[Callable[[int], int]]]:
    """The sequence's ``(symbol, rule, closed_form)``, from a catalog name or symbol text.

    A name returns its catalog entry, a NamedTuple of exactly those fields;
    no rule (motzkin) means it counts chord diagrams.  Symbol text returns
    its parsed symbol with neither a rule nor a closed form.
    """
    if "(" in text or "/" in text:
        return parse_symbol(text), None, None
    for entry in catalog():
        if entry.symbol.name == text:
            return entry
    raise UnknownName(f"unknown sequence {text!r}; try 'revsym list'")


def _listing(terms: list[int]) -> str:
    """The ``n a(n)`` lines of a term listing, one per term."""
    return "".join(f"{i} {_decimal(value)}\n" for i, value in enumerate(terms))


def cmd_list(args: argparse.Namespace) -> int:
    for entry in catalog():
        print(format_symbol(entry.symbol))
    return 0


def cmd_terms(args: argparse.Namespace) -> int:
    symbol, rule, closed_form = _resolve(args.name_or_symbol)
    if args.method == "reversion":
        terms = revert_direct(symbol, args.count - 1)
    elif args.method == "closed":
        if closed_form is None:
            raise MethodUnavailable("closed forms exist only for catalog sequences")
        terms = [closed_form(i) for i in range(args.count)]
    elif rule is None:  # "series", the last choice argparse allows
        raise MethodUnavailable("the series counter needs a tile rule; this sequence has none")
    else:
        terms = count_by_series(args.count - 1, rule)
    print(_listing(terms), end="")
    return 0


def _closed_column(closed_form: Callable[[int], int], count: int) -> list[object]:
    """The closed form per n, ``"excluded"`` where it raises :class:`DomainError`."""
    column: list[object] = []
    for i in range(count):
        try:
            column.append(closed_form(i))
        except DomainError:
            column.append("excluded")
    return column


def _oracle_column(rule: Optional[TileRule], count: int, args: argparse.Namespace) -> list[int]:
    """Exhaustive ground truth per n, for as far as the caps allow.

    ``rule`` is the middle field of ``_resolve``'s triple: a tile rule goes
    to the dissection enumerator, whose one walk gives every n, and no rule
    (motzkin) means the chord counter.
    """
    if rule is not None:
        cap = args.exhaustive_cap_n
        return enumerate_counts(min(count - 1, cap), rule, cap=cap)
    top = min(count - 1, args.chord_cap_p)
    return [count_chord_diagrams(i, cap=args.chord_cap_p) for i in range(top + 1)]


def cmd_verify(args: argparse.Namespace) -> int:
    count = args.count
    symbol, rule, closed_form = _resolve(args.name)
    if closed_form is None:  # symbol text: no closed column, and no rule would mean chords
        raise UnknownName(f"unknown sequence {args.name!r}; try 'revsym list'")
    reversion = lagrange_coefficients(symbol, count - 1)
    # every route runs before the first row prints; a column shorter than
    # the table prints "-" past its end
    columns = {
        "closed": _closed_column(closed_form, count),
        "series": count_by_series(count - 1, rule) if rule is not None else [],
        "oracle": _oracle_column(rule, count, args),
    }

    print(f"verify {format_symbol(symbol)}")
    print("n a(n) " + " ".join(columns))
    for i, expected in enumerate(reversion):
        cells = {name: column[i] if i < len(column) else "-" for name, column in columns.items()}
        print(f"{i} {_decimal(expected)} " + " ".join(
            value if isinstance(value, str) else "ok" if value == expected else _decimal(value)
            for value in cells.values()
        ))
        for name, value in cells.items():
            if not isinstance(value, str) and value != expected:
                print(f"MISMATCH at n={i}: {name}={_decimal(value)}, reversion={_decimal(expected)}")
                return 1
    if "excluded" in columns["closed"]:
        print("note: closed form excluded at n=0 (boundary convention anomaly; reversion pins a_0 = 1)")
    print(f"ok: {symbol.name} agrees on {count} terms across all available paths")
    return 0


def _check_sizes_fit(rule: TileRule, count: int) -> None:
    """Refuse sizes that no counted dissection can use, before work grows with them.

    a_n counts dissections of the (n+2)-gon, so no tile among the first
    ``count`` terms has more than count+1 sides; a larger step would only
    place the rest of the tail beyond that range.
    """
    limit = count + 1
    for size in (*rule.sizes, rule.start or 0):
        if size > limit:
            raise InvalidTileSet(
                f"tile size {size} exceeds count+1 = {limit}: "
                f"no dissection among the first {count} terms has such a tile"
            )
    if rule.step > limit:
        raise InvalidTileSet(f"tail step {rule.step} exceeds count+1 = {limit}")


def cmd_from_tiles(args: argparse.Namespace) -> int:
    count = args.count
    rule = parse_tile_spec(args.spec)
    _check_sizes_fit(rule, count)
    symbol = symbol_from_tile_rule(rule)
    print(format_symbol(symbol, include_name=False))
    terms = revert_direct(symbol, count - 1)
    series = count_by_series(count - 1, rule)
    for i, (a, b) in enumerate(zip(terms, series)):
        if a != b:
            print(f"MISMATCH at n={i}: reversion={_decimal(a)}, series={_decimal(b)}")
            return 1
    print(_listing(terms), end="")
    return 0


def cmd_bfile(args: argparse.Namespace) -> int:
    symbol = _resolve(args.name_or_symbol)[0]
    listing = _listing(revert_direct(symbol, args.count - 1) if args.count else [])
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(listing)
    return 0


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH", help="key=value settings file")

    parser = argparse.ArgumentParser(
        prog="revsym",
        description="Exact dissection-counting sequences from reversive symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="print the symbol catalog")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("terms", parents=[config], help="print sequence terms")
    p.add_argument("name_or_symbol", help="catalog name or (p0,p1,..)/(q0,q1,..)")
    p.add_argument("--count", type=_positive, help="number of terms (n = 0..count-1)")
    p.add_argument("--method", choices=("reversion", "closed", "series"), default="reversion")
    p.set_defaults(func=cmd_terms)

    p = sub.add_parser("verify", parents=[config],
                       help="cross-check every computation path for a catalog entry")
    p.add_argument("name", help="catalog name")
    p.add_argument("--exhaustive-cap-n", type=_non_negative, metavar="N",
                   help=f"max n for exhaustive dissection runs (default {DEFAULT_DISSECTION_CAP})")
    p.add_argument("--chord-cap-p", type=_non_negative, metavar="P",
                   help=f"max points for exhaustive chord runs (default {DEFAULT_CHORD_CAP})")
    p.add_argument("--count", type=_positive, help="number of terms to verify")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("from-tiles", parents=[config],
                       help="synthesize a symbol from a tile rule and print its terms")
    p.add_argument("spec", help="odd|even|any|triangles|notriangles or sizes like 3,5 or 4+")
    p.add_argument("--count", type=_positive, help="number of terms")
    p.set_defaults(func=cmd_from_tiles)

    p = sub.add_parser("bfile", help="export terms in b-file format")
    p.add_argument("name_or_symbol", help="catalog name or symbol text")
    p.add_argument("--count", type=_non_negative, required=True, help="number of terms")
    p.add_argument("--out", required=True, metavar="PATH", help="output file")
    p.set_defaults(func=cmd_bfile)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _fill_settings(args)
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, UnknownName, MethodUnavailable, InvalidTileSet, DomainError,
            NonIntegerCoefficient) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None) or "i/o"
        print(f"error: {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
