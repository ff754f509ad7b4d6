"""Command-line front end for the dissection-sequence catalog.

Subcommands: ``list``, ``terms``, ``verify``, ``from-tiles``, ``bfile``.
Exit status: 0 success, 1 verification mismatch, 2 usage or parse error.
Every refusal of a sequence, method, tile size or config file raises
``ParseError``; ``verify`` stops each oracle column at its cap and prints
``-`` past it, so no oracle is asked beyond its cap.

``terms`` (by its default method) and ``bfile`` list a catalog entry by
unrolling its differential equation from a_0 = 1 alone, in linear time,
and symbol text, an entry's list line among it, by direct reversion.
``from-tiles`` checks direct reversion against the tile-equation
counter.  ``verify`` takes its
``a(n)`` column from Lagrange inversion, the independent route, and checks
the others against it: every route runs, each to one column of terms,
before the table prints.

Settings come from built-in defaults, optionally overridden by a plain
``key=value`` config file (keys ``exhaustive_cap_n``, ``chord_cap_p``,
``default_count``), overridden in turn by command flags.

``main`` reads a well-formed command line straight from the ``_COMMANDS``
table (``_read_argv``), so such a command never imports ``argparse``, nor the
``gettext`` and ``locale`` that argparse loads.  Every other line, help
included, goes to the argparse parser built from the same table, which
writes every help text, usage line and error message.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TextIO

from .closed_forms import DomainError
from .dissection_oracle import (
    DEFAULT_CHORD_CAP,
    DEFAULT_DISSECTION_CAP,
    count_chord_diagrams,
    enumerate_counts,
)
from .exact_arith import NonIntegerCoefficient, _unlimited_digits
from .power_series import count_by_series, lagrange_coefficients, revert_direct, unroll_ode
from .symbols import (
    ParseError,
    ReversiveSymbol,
    TileRule,
    catalog,
    format_symbol,
    parse_symbol,
    parse_tile_spec,
    symbol_from_tile_rule,
)

if TYPE_CHECKING:
    import argparse

__all__ = ["main"]

DEFAULT_COUNT = 10


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
        if number < 0 or (key == "default_count" and not 1 <= number <= sys.maxsize):
            raise ParseError(f"{path}:{lineno}: {key} out of range: {number}")
        values[key] = number
    return values


def _fill_settings(args: SimpleNamespace) -> None:
    """Give every flag the subcommand has and was not passed its config value, else its default."""
    config = _read_config(args.config) if getattr(args, "config", None) is not None else {}
    for key, (flag, default) in _SETTINGS.items():
        if getattr(args, flag, default) is None:
            setattr(args, flag, config.get(key, default))


def _resolve(text: str) -> tuple[ReversiveSymbol, Optional[TileRule], Optional[Callable[[int], int]],
                                 Optional[tuple[tuple[int, ...], ...]]]:
    """The sequence's ``(symbol, rule, closed_form, ode)``, from a catalog name or symbol text.

    A name returns its catalog entry, a namedtuple of exactly those fields;
    no rule (motzkin) means it counts chord diagrams.  Symbol text returns
    its parsed symbol with neither a rule, a closed form nor an equation.
    """
    if "(" in text or "/" in text:
        return parse_symbol(text), None, None, None
    for entry in catalog():
        if entry.symbol.name == text:
            return entry
    raise ParseError(f"unknown sequence {text!r}; try 'revsym list'")


def _listing(symbol: ReversiveSymbol, ode: Optional[tuple[tuple[int, ...], ...]], top: int) -> list[int]:
    """a_0..a_top for ``terms`` and ``bfile``: the stored equation's unroll, else direct reversion."""
    if top < 0:
        return []
    return revert_direct(symbol, top) if ode is None else unroll_ode(ode, top)


def _write_listing(out: TextIO, terms: list[int]) -> None:
    """Write the ``n a(n)`` lines of a term listing to out, each made as it is written.

    The lines are streamed, never all held at once.  The digit limit is
    lifted once for the whole listing and restored after it, also when a
    write raises.
    """
    with _unlimited_digits():
        out.writelines(f"{i} {value}\n" for i, value in enumerate(terms))


def cmd_list(args: SimpleNamespace) -> int:
    for entry in catalog():
        print(format_symbol(entry.symbol))
    return 0


def cmd_terms(args: SimpleNamespace) -> int:
    symbol, rule, closed_form, ode = _resolve(args.name_or_symbol)
    if args.method == "reversion":
        terms = _listing(symbol, ode, args.count - 1)
    elif args.method == "closed":
        if closed_form is None:
            raise ParseError("closed forms exist only for catalog sequences")
        terms = [closed_form(i) for i in range(args.count)]
    elif rule is None:  # "series", the last of --method's choices
        raise ParseError("the series counter needs a tile rule; this sequence has none")
    else:
        terms = count_by_series(args.count - 1, rule)
    _write_listing(sys.stdout, terms)
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


def _oracle_column(rule: Optional[TileRule], count: int, args: SimpleNamespace) -> list[int]:
    """Exhaustive ground truth per n, for as far as the caps allow.

    ``rule`` is the second of ``_resolve``'s four fields: a tile rule goes
    to the dissection enumerator, whose one walk gives every n, and no rule
    (motzkin) means the chord counter.
    """
    if rule is not None:
        cap = args.exhaustive_cap_n
        return enumerate_counts(min(count - 1, cap), rule, cap=cap)
    top = min(count - 1, args.chord_cap_p)
    return [count_chord_diagrams(i, cap=args.chord_cap_p) for i in range(top + 1)]


def cmd_verify(args: SimpleNamespace) -> int:
    count = args.count
    symbol, rule, closed_form, _ = _resolve(args.name)
    if closed_form is None:  # symbol text: no closed column, and no rule would mean chords
        raise ParseError(f"unknown sequence {args.name!r}; try 'revsym list'")
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
    with _unlimited_digits():
        for i, expected in enumerate(reversion):
            cells = {name: column[i] if i < len(column) else "-" for name, column in columns.items()}
            print(f"{i} {expected} " + " ".join(
                value if isinstance(value, str) else "ok" if value == expected else str(value)
                for value in cells.values()
            ))
            for name, value in cells.items():
                if not isinstance(value, str) and value != expected:
                    print(f"MISMATCH at n={i}: {name}={value}, reversion={expected}")
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
            raise ParseError(
                f"tile size {size} exceeds count+1 = {limit}: "
                f"no dissection among the first {count} terms has such a tile"
            )
    if rule.step > limit:
        raise ParseError(f"tail step {rule.step} exceeds count+1 = {limit}")


def cmd_from_tiles(args: SimpleNamespace) -> int:
    count = args.count
    rule = parse_tile_spec(args.spec)
    _check_sizes_fit(rule, count)
    symbol = symbol_from_tile_rule(rule)
    print(format_symbol(symbol, include_name=False))
    terms = revert_direct(symbol, count - 1)
    series = count_by_series(count - 1, rule)
    with _unlimited_digits():
        for i, (a, b) in enumerate(zip(terms, series)):
            if a != b:
                print(f"MISMATCH at n={i}: reversion={a}, series={b}")
                return 1
    _write_listing(sys.stdout, terms)
    return 0


def cmd_bfile(args: SimpleNamespace) -> int:
    symbol, _, _, ode = _resolve(args.name_or_symbol)
    terms = _listing(symbol, ode, args.count - 1)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        _write_listing(fh, terms)
    return 0


def _type_error(message: str) -> Exception:
    import argparse

    return argparse.ArgumentTypeError(message)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise _type_error("must be >= 0")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise _type_error("must be a positive integer")
    return _indexable(value)


def _count(text: str) -> int:
    return _indexable(_non_negative(text))


def _indexable(count: int) -> int:
    """Refuse a count above ``sys.maxsize``, which no list of terms can reach, before any work starts."""
    if count > sys.maxsize:
        raise _type_error(f"must be at most {sys.maxsize}")
    return count


_CONFIG = ("--config", dict(metavar="PATH", help="key=value settings file"))

# name -> (help, handler, its arguments as (flag, add_argument options) in the
# order its help lists them)
_COMMANDS = {
    "list": ("print the symbol catalog", cmd_list, ()),
    "terms": ("print sequence terms", cmd_terms, (
        _CONFIG,
        ("name_or_symbol", dict(help="catalog name or (p0,p1,..)/(q0,q1,..)")),
        ("--count", dict(type=_positive, help="number of terms (n = 0..count-1)")),
        ("--method", dict(choices=("reversion", "closed", "series"), default="reversion", help=(
            "reversion (default): the listing route, which unrolls a catalog name's stored equation and "
            "reverts symbol text directly; closed: the name's closed binomial sum; series: the "
            "tile-equation series counter on the name's tile rule"))),
    )),
    "verify": ("cross-check every computation path for a catalog entry", cmd_verify, (
        _CONFIG,
        ("name", dict(help="catalog name")),
        ("--exhaustive-cap-n", dict(type=_non_negative, metavar="N", help=(
            f"max n for exhaustive dissection runs (default {DEFAULT_DISSECTION_CAP})"))),
        ("--chord-cap-p", dict(type=_non_negative, metavar="P", help=(
            f"max points for exhaustive chord runs (default {DEFAULT_CHORD_CAP})"))),
        ("--count", dict(type=_positive, help="number of terms to verify")),
    )),
    "from-tiles": ("synthesize a symbol from a tile rule and print its terms", cmd_from_tiles, (
        _CONFIG,
        ("spec", dict(help="odd|even|any|triangles|notriangles or sizes like 3,5 or 4+")),
        ("--count", dict(type=_positive, help="number of terms")),
    )),
    "bfile": ("export terms in b-file format", cmd_bfile, (
        ("name_or_symbol", dict(help="catalog name or symbol text")),
        ("--count", dict(type=_count, required=True, help="number of terms")),
        ("--out", dict(required=True, metavar="PATH", help="output file")),
    )),
}


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace ``_build_parser().parse_args(argv)`` gives, read from ``_COMMANDS`` alone, or None.

    Only the plain form is read: the command first, then positionals that do
    not start with ``-`` and the command's flags, each written out in full at
    most once and followed by a value that does not start with ``-``; the
    positionals exactly as many as declared, every required flag given, and
    every value passing its type and choices.  Any other line returns None
    and goes to argparse, which alone reads ``--count=3``, ``--cou 3``, ``--``
    and ``-h``, and writes every help text, usage line and error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    declared = dict(arguments)
    given: dict[str, str] = {}
    positionals: list[str] = []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        value = next(words, "-")  # a flag at the end has no value
        if word not in declared or word in given or value.startswith("-"):
            return None
        given[word] = value
    names = [flag for flag in declared if not flag.startswith("-")]
    if len(positionals) != len(names):
        return None
    given.update(zip(names, positionals))
    args = SimpleNamespace(command=argv[0], func=handler)
    for flag, options in arguments:
        if flag not in given:
            if options.get("required"):
                return None
            value = options.get("default")
        else:
            try:
                value = options.get("type", str)(given[flag])
            except Exception:
                # int's ValueError or the range check's ArgumentTypeError:
                # argparse calls the type on this word again and reports it
                return None
            choices = options.get("choices")
            if choices is not None and value not in choices:
                return None
        setattr(args, flag.lstrip("-").replace("-", "_"), value)
    return args


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of all five commands, from ``_COMMANDS``.

    ``main`` builds it only for a line that ``_read_argv`` does not read:
    help, an error, or a form that only argparse reads.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="revsym",
        description="Exact dissection-counting sequences from reversive symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or _build_parser().parse_args(argv, SimpleNamespace())
    try:
        _fill_settings(args)
        return args.func(args)
    except (ParseError, DomainError, NonIntegerCoefficient) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None) or "i/o"
        print(f"error: {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
