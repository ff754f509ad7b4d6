"""Expected outputs for the benchmark, computed without importing revsym.

The benchmark must not trust the program it measures: ``revsym verify``
only compares the program's own routes with each other.  This module holds
a small tile-equation counter of its own and the Motzkin recurrence, and
the golden files under ``perfbench/golden/`` are its output.

The counter solves F = x + sum_{s in S} F^{s-1} for F = x A(x), one
coefficient at a time.  A tail "every size >= k in steps of d" sums to
F^{k-1} / (1 - F^d); multiplying through by (1 - F^d) leaves

    F = x - x F^d + F^{1+d} + sum_{s finite} (F^{s-1} - F^{s-1+d}) + F^{k-1},

in which every power on the right is at least 2, so [x^n] of the right side
only needs f_1..f_{n-1}.  Keeping the powers F^2..F^D as coefficient lists
costs O(D N^2) for N terms.

Run ``python3 perfbench/reference.py`` to rewrite the golden files.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple, Optional

GOLDEN = Path(__file__).resolve().parent / "golden"

CATALOG = ("trianglefree", "oddtiles", "eventiles", "schroeder", "catalan", "motzkin")
VERIFY_COUNT = 20
BFILE_COUNT = 250


class Rule(NamedTuple):
    """Finite tile sizes plus an optional tail ``tail, tail+step, ...``."""

    finite: tuple[int, ...]
    tail: Optional[int] = None
    step: int = 1


KEYWORDS = {
    "any": Rule((), 3),
    "triangles": Rule((3,)),
    "notriangles": Rule((), 4),
    "odd": Rule((), 3, 2),
    "even": Rule((), 4, 2),
}

CATALOG_RULES = {
    "trianglefree": KEYWORDS["notriangles"],
    "oddtiles": KEYWORDS["odd"],
    "eventiles": KEYWORDS["even"],
    "schroeder": KEYWORDS["any"],
    "catalan": KEYWORDS["triangles"],
}


def parse_spec(spec: str) -> Rule:
    """A keyword, or comma-separated sizes whose last entry may end in ``+``."""
    if spec in KEYWORDS:
        return KEYWORDS[spec]
    parts = spec.split(",")
    tail = int(parts[-1][:-1]) if parts[-1].endswith("+") else None
    finite = tuple(sorted(int(p) for p in parts if not p.endswith("+")))
    return Rule(finite, tail)


def tile_terms(rule: Rule, count: int) -> list[int]:
    """a_0..a_{count-1}: dissections of the (n+2)-gon with every tile in the rule."""
    finite, tail, step = rule
    coef: dict[int, int] = defaultdict(int)  # j -> coefficient of F^j on the right
    if tail is None:
        for s in finite:
            coef[s - 1] += 1
    else:
        coef[1 + step] += 1
        coef[tail - 1] += 1
        for s in finite:
            if s < tail or (s - tail) % step:
                coef[s - 1] += 1
                coef[s - 1 + step] -= 1
    top = max([*coef, step if tail is not None else 1])
    f = [0] * (count + 1)  # f[n] = [x^n] F = a_{n-1}
    powers = [[], f] + [[0] * (count + 1) for _ in range(2, top + 1)]
    for n in range(1, count + 1):
        for j in range(2, top + 1):
            lower = powers[j - 1]
            powers[j][n] = sum(f[i] * lower[n - i] for i in range(1, n))
        value = 1 if n == 1 else 0
        if tail is not None:
            value -= powers[step][n - 1]
        value += sum(c * powers[j][n] for j, c in coef.items() if c)
        f[n] = value
    return f[1:]


def motzkin_terms(count: int) -> list[int]:
    """Motzkin numbers by (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}."""
    out = [1, 1][:count]
    for n in range(2, count):
        out.append(((2 * n + 1) * out[-1] + 3 * (n - 1) * out[-2]) // (n + 2))
    return out


def catalog_terms(name: str, count: int) -> list[int]:
    if name == "motzkin":
        return motzkin_terms(count)
    return tile_terms(CATALOG_RULES[name], count)


def bfile_bytes(terms: list[int]) -> bytes:
    return "".join(f"{i} {v}\n" for i, v in enumerate(terms)).encode("ascii")


def write_golden() -> None:
    (GOLDEN / "bfile").mkdir(parents=True, exist_ok=True)
    table = {name: catalog_terms(name, VERIFY_COUNT) for name in CATALOG}
    (GOLDEN / "verify.json").write_text(json.dumps(table, indent=1) + "\n", encoding="ascii")
    for name in CATALOG:
        (GOLDEN / "bfile" / f"{name}.txt").write_bytes(bfile_bytes(catalog_terms(name, BFILE_COUNT)))


if __name__ == "__main__":
    write_golden()
