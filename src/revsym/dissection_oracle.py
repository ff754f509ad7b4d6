"""Ground-truth combinatorics for restricted polygon dissections.

Three counters that check the series-reversion routes from other sides:

* :func:`enumerate_count` literally generates every non-crossing diagonal
  set of the labelled (n+2)-gon by backtracking and keeps those whose
  tiles all satisfy a rule.  Faces are vertex bitmasks, split as each
  diagonal is added.  Exponential; capped at desk scale.  It uses no
  series arithmetic at all.
* :func:`count_by_series` iterates the self-referential tile equation
  A = 1 + sum_{s in S} x^{s-2} A^{s-1} to a fixed point on truncated
  integer series.  Polynomial time; the fast path.  It is a different
  algorithm from reversion but runs on the same product, exact-division
  and composition kernels as :mod:`power_series`; the two algorithms feed the
  kernels different operands, so a kernel defect makes them disagree, and
  the enumeration checks both.  It takes the size sum from
  :meth:`TileRule.generating_pair`, the same pair symbol synthesis uses,
  and builds the equation's right side with the same code as
  :func:`verify_tautological`.
* :func:`count_chord_diagrams` exhaustively counts placements of pairwise
  disjoint chords (no shared endpoints, no crossings) on labelled circle
  points, the model behind the motzkin entry.  It too uses no series
  arithmetic.

Vertices are labelled 0..n+1 in convex position; dissections are distinct
as diagonal sets, with no quotient by rotation or reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .symbols import TileRule, _tile_equation_rhs

__all__ = [
    "DEFAULT_DISSECTION_CAP",
    "DEFAULT_CHORD_CAP",
    "CapExceeded",
    "Dissection",
    "tiles_of",
    "iter_dissections",
    "enumerate_count",
    "count_by_series",
    "count_chord_diagrams",
]

DEFAULT_DISSECTION_CAP = 12
DEFAULT_CHORD_CAP = 16


class CapExceeded(ValueError):
    """An exhaustive enumeration was asked to run beyond its configured cap."""


def _crosses(a: int, b: int, c: int, d: int) -> bool:
    """Open-interior crossing of chords {a,b}, {c,d} with a<b, c<d."""
    return a < c < b < d or c < a < d < b


def _touches_or_crosses(a: int, b: int, c: int, d: int) -> bool:
    """Chords {a,b}, {c,d} share an endpoint or cross in the interior."""
    return a in (c, d) or b in (c, d) or _crosses(a, b, c, d)


@dataclass(frozen=True)
class Dissection:
    """A set of pairwise non-crossing diagonals of the labelled (n+2)-gon.

    Requires n >= 1 (the degenerate 2-gon has no tiles and is handled by
    the counting conventions, not by this type).  Diagonals are stored as
    (i, j) pairs with i < j; construction validates that each pair is a
    genuine diagonal, that no two cross, and that at most n-1 are present.
    """

    n: int
    diagonals: frozenset[tuple[int, int]]

    def __init__(self, n: int, diagonals: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("need n >= 1 (a polygon with at least 3 vertices)")
        v = n + 2
        normed = set()
        for pair in diagonals:
            i, j = pair
            if i > j:
                i, j = j, i
            if not (0 <= i < j <= v - 1):
                raise ValueError(f"vertex out of range in diagonal {pair}")
            if j - i < 2 or (i == 0 and j == v - 1):
                raise ValueError(f"{(i, j)} is an edge of the polygon, not a diagonal")
            normed.add((i, j))
        pairs = sorted(normed)
        for x in range(len(pairs)):
            for y in range(x + 1, len(pairs)):
                a, b = pairs[x]
                c, d = pairs[y]
                if _crosses(a, b, c, d):
                    raise ValueError(f"diagonals {(a, b)} and {(c, d)} cross")
        if len(pairs) > n - 1:
            raise ValueError(f"at most {n - 1} pairwise non-crossing diagonals fit")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diagonals", frozenset(pairs))


def _canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def tiles_of(d: Dissection) -> list[tuple[int, ...]]:
    """The m+1 faces of the subdivision, split recursively along diagonals.

    Each face is its vertex labels in cyclic order, starting from the
    smallest, so its side count is its length; the list is sorted.
    """
    diags = sorted(d.diagonals)
    pending = [tuple(range(d.n + 2))]
    faces: list[tuple[int, ...]] = []
    while pending:
        region = pending.pop()
        size = len(region)
        for a, b in diags:
            if a in region and b in region:
                ia = region.index(a)
                ib = region.index(b)
                if ia > ib:
                    ia, ib = ib, ia
                if ib - ia == 1 or (ia == 0 and ib == size - 1):
                    continue  # already an edge of this region
                pending.append(region[ia:ib + 1])
                pending.append(region[ib:] + region[:ia + 1])
                break
        else:
            faces.append(_canonical_cycle(region))
    faces.sort()
    return faces


def _candidate_diagonals(n: int) -> list[tuple[int, int]]:
    v = n + 2
    return [
        (i, j)
        for i in range(v)
        for j in range(i + 2, v)
        if not (i == 0 and j == v - 1)
    ]


def _conflict_masks(
    cands: list[tuple[int, int]], clash: Callable[[int, int, int, int], bool]
) -> list[int]:
    """Per candidate, the bitmask of candidates it may not be chosen with."""
    masks = [0] * len(cands)
    for x, (a, b) in enumerate(cands):
        for y in range(x + 1, len(cands)):
            c, d = cands[y]
            if clash(a, b, c, d):
                masks[x] |= 1 << y
                masks[y] |= 1 << x
    return masks


def iter_dissections(n: int, cap: int = DEFAULT_DISSECTION_CAP) -> Iterator[Dissection]:
    """Yield every dissection of the (n+2)-gon, in lexicographic DFS order."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the exhaustive cap {cap}")
    cands = _candidate_diagonals(n)
    conflict = _conflict_masks(cands, _crosses)
    chosen: list[tuple[int, int]] = []

    def rec(start: int, avail: int) -> Iterator[Dissection]:
        yield Dissection(n, chosen)
        x = avail >> start << start
        while x:
            low = x & -x
            i = low.bit_length() - 1
            x ^= low
            chosen.append(cands[i])
            yield from rec(i + 1, avail & ~conflict[i])
            chosen.pop()

    return rec(0, (1 << len(cands)) - 1)


def enumerate_count(n: int, rule: TileRule, cap: int = DEFAULT_DISSECTION_CAP) -> int:
    """Count dissections of the (n+2)-gon whose every tile satisfies the rule.

    Backtracks over candidate diagonals in lexicographic order, pruning with
    precomputed crossing masks; tiles are maintained incrementally (adding a
    diagonal splits exactly one face in two).  A face is the bitmask of its
    vertices: the face holding diagonal (a, b) is the one that has both
    ends, its part on the a..b side keeps the vertices a..b, the other part
    drops a+1..b-1, and a face's side count is its bit count.  The
    undissected polygon counts iff n+2 itself satisfies the rule; n = 0
    returns 1 by convention since the 2-gon has no tiles to test.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return 1
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the exhaustive cap {cap}")
    cands = _candidate_diagonals(n)
    conflict = _conflict_masks(cands, _crosses)
    ends = [1 << a | 1 << b for a, b in cands]
    inside = [(1 << b + 1) - (1 << a) for a, b in cands]
    outside = [~((1 << b) - (1 << a + 1)) for a, b in cands]
    # bad[s] is 1 where the rule forbids s-sided tiles; nbad counts such faces
    bad = [0] * 3 + [0 if rule.allows(s) else 1 for s in range(3, n + 3)]
    faces = [(1 << n + 2) - 1]

    def rec(start: int, avail: int, nbad: int) -> int:
        count = 0 if nbad else 1
        x = avail >> start << start
        while x:
            low = x & -x
            i = low.bit_length() - 1
            x ^= low
            # a compatible diagonal lies inside exactly one current face
            e = ends[i]
            j = 0
            while faces[j] & e != e:
                j += 1
            f = faces[j]
            f1 = f & inside[i]
            f2 = f & outside[i]
            faces[j] = f1
            faces.append(f2)
            count += rec(i + 1, avail & ~conflict[i],
                         nbad - bad[f.bit_count()] + bad[f1.bit_count()] + bad[f2.bit_count()])
            faces.pop()
            faces[j] = f
        return count

    return rec(0, (1 << len(cands)) - 1, bad[n + 2])


def count_by_series(n_max: int, rule: TileRule) -> list[int]:
    """Coefficients a_0..a_{n_max} from the tile equation's fixed point.

    Starts from A = 1 and substitutes A into
    1 + sum_{s in S} x^{s-2} A^{s-1} repeatedly; coefficients 0..k are
    stable after k substitutions, so pass k runs at truncation order k.
    The size sum is applied in its closed rational form (sizes with
    s-2 > k vanish under truncation either way).
    """
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    pair = rule.generating_pair()
    a = [1]
    for k in range(1, n_max + 1):
        # every rule denominator is 1 or 1 - y^step, so every division is exact
        a = _tile_equation_rhs(pair, a, k)
    return a


def count_chord_diagrams(p: int, cap: int = DEFAULT_CHORD_CAP) -> int:
    """Count sets of pairwise disjoint chords on p labelled circle points.

    Disjoint means segment-disjoint: chords may neither share an endpoint
    nor cross in the interior.  The empty placement counts, so p = 0
    gives 1.
    """
    if p < 0:
        raise ValueError("need p >= 0")
    if p > cap:
        raise CapExceeded(f"p = {p} exceeds the exhaustive cap {cap}")
    cands = [(i, j) for i in range(p) for j in range(i + 1, p)]
    conflict = _conflict_masks(cands, _touches_or_crosses)
    total = 0

    def rec(start: int, avail: int) -> None:
        nonlocal total
        total += 1
        x = avail >> start << start
        while x:
            low = x & -x
            i = low.bit_length() - 1
            x ^= low
            rec(i + 1, avail & ~conflict[i])

    rec(0, (1 << len(cands)) - 1)
    return total

