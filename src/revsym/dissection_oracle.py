"""Ground-truth combinatorics for restricted polygon dissections.

Two brute-force counters that check the series routes from another side.
Neither imports a series kernel or does any series arithmetic, so no
defect in :mod:`power_series` can reach them:

* :func:`enumerate_counts` literally generates non-crossing diagonal
  sets of the labelled (n+2)-gon by backtracking and keeps those whose
  tiles all satisfy a rule.  Candidates run by right end, then by left
  end descending, so every new diagonal splits the one open face, the
  root face on edge (0, n+1), and its other part is closed for good.  A
  node's state is the mask of the candidates still free and the root
  face's vertex bitmask.  A closed face the rule forbids skips its
  subtree at once, and every dissection counted is still generated.  The
  (m+2)-gon's candidates are a prefix of the same order, so the one walk
  counts every m <= n: each node is tallied by the first m whose polygon
  it dissects and by its root face's size.  Exponential; capped at desk
  scale.
* :func:`count_chord_diagrams` exhaustively counts placements of pairwise
  disjoint chords (no shared endpoints, no crossings) on labelled circle
  points, the model behind the motzkin entry.  It walks the same way,
  one mask of free chords per node.

The reference the walk is tested against, :func:`iter_dissections` with
:func:`tiles_of`, is the plain definition: it shares the crossing test
and the candidate list with the walk but none of its masks, its order or
its tally, so a defect in the walk's bookkeeping cannot reach both sides
of that check and cancel.

Vertices are labelled 0..n+1 in convex position; dissections are distinct
as diagonal sets, with no quotient by rotation or reflection.  A
:class:`Dissection` is a NamedTuple like the records of :mod:`revsym.symbols`:
its constructor, ``_make`` and ``_replace`` all check the diagonals, and it
equals the plain tuple ``(n, diagonals)``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from .symbols import TileRule

__all__ = [
    "CapExceeded",
    "Dissection",
    "tiles_of",
    "iter_dissections",
    "enumerate_counts",
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


class _DissectionFields(NamedTuple):
    n: int
    diagonals: frozenset[tuple[int, int]]


class Dissection(_DissectionFields):
    """A set of pairwise non-crossing diagonals of the labelled (n+2)-gon.

    Requires n >= 1 (the degenerate 2-gon has no tiles and is handled by
    the counting conventions, not by this type).  Diagonals are stored as
    (i, j) pairs with i < j; construction validates that each pair is a
    genuine diagonal and that no two cross, which leaves at most n-1.
    """

    __slots__ = ()

    def __new__(cls, n: int, diagonals: Iterable[tuple[int, int]] = ()) -> Dissection:
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
        return super().__new__(cls, n, frozenset(pairs))

    @classmethod
    def _make(cls, iterable: Iterable) -> Dissection:
        return cls(*iterable)


def tiles_of(d: Dissection) -> list[tuple[int, ...]]:
    """The m+1 faces of the subdivision: the polygon, split by one diagonal at a time.

    Each face is its vertex labels in increasing order.  The polygon is
    convex and labelled in cyclic order, so that is also the face's cyclic
    order, starting from the smallest label, and its side count is its
    length.  A diagonal (a, b) lies in the one face holding both ends and
    splits it into the labels from a to b and the labels <= a or >= b.
    The list is sorted.
    """
    faces = [tuple(range(d.n + 2))]
    for a, b in d.diagonals:
        face = next(f for f in faces if a in f and b in f)
        faces.remove(face)
        faces += [tuple(v for v in face if a <= v <= b), tuple(v for v in face if v <= a or v >= b)]
    return sorted(faces)


def _candidate_diagonals(n: int) -> list[tuple[int, int]]:
    v = n + 2
    return [
        (i, j)
        for i in range(v)
        for j in range(i + 2, v)
        if not (i == 0 and j == v - 1)
    ]


def _keep_masks(
    cands: list[tuple[int, int]], clash: Callable[[int, int, int, int], bool]
) -> list[int]:
    """Per candidate, the bitmask of the later candidates it may be chosen with."""
    masks = [0] * len(cands)
    for x, (a, b) in enumerate(cands):
        for y in range(x + 1, len(cands)):
            c, d = cands[y]
            if not clash(a, b, c, d):
                masks[x] |= 1 << y
    return masks


def iter_dissections(n: int) -> Iterator[Dissection]:
    """Yield every dissection of the (n+2)-gon, in lexicographic DFS order.

    The plain definition: the diagonals chosen so far, in candidate order,
    are extended by every later candidate that crosses none of them.  The
    n < 1 and n > ``DEFAULT_DISSECTION_CAP`` errors raise at the call,
    before the first dissection is asked for.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > DEFAULT_DISSECTION_CAP:
        raise CapExceeded(f"n = {n} exceeds the exhaustive cap {DEFAULT_DISSECTION_CAP}")
    cands = _candidate_diagonals(n)

    def rec(chosen: tuple[tuple[int, int], ...], start: int) -> Iterator[Dissection]:
        yield Dissection(n, chosen)
        for i in range(start, len(cands)):
            if not any(_crosses(*cands[i], *diagonal) for diagonal in chosen):
                yield from rec(chosen + (cands[i],), i + 1)

    return rec((), 0)


def enumerate_counts(n: int, rule: TileRule, cap: int = DEFAULT_DISSECTION_CAP) -> list[int]:
    """a_0..a_n: per m, the dissections of the (m+2)-gon whose every tile satisfies the rule.

    One backtracking walk over the candidate diagonals of the (n+2)-gon,
    sorted by right end ascending, then left end descending, generates
    every counted dissection of every polygon up to it.  A node holds
    ``free``, the later candidates that cross nothing chosen so far (a
    child through candidate i gets ``free & keep[i]``), and ``face``, the
    vertex bitmask of the root face, the one on edge (0, n+1), with its
    vertex count ``size``.

    Closed faces: in this order a new diagonal (a, b) lies inside no
    chosen one, so it splits the root face.  Its part on the a..b side
    is final, since every later candidate ends beyond b or starts before
    a, and the other part is the new root face.  A final face whose side
    count the rule forbids skips the child's whole subtree at once, so
    every node reached has only allowed closed faces, and only its root
    face is left to judge.

    One walk for all m: the (m+2)-gon's candidates are the prefix of this
    order before (0, m+1), which is that polygon's edge.  A node whose last
    diagonal is (a, b) is a dissection of the (m+2)-gon for every
    m >= b - 1, or m >= b when a = 0, and there its root face has n - m
    fewer vertices than here.  Each node is tallied by that first m and
    its root face's size s here; a_m sums the tallies whose first m is at
    most m and whose s - (n - m) the rule allows.  The undissected polygon
    counts iff its own side count is allowed, and a_0 = 1 by convention
    since the 2-gon has no tiles to test.  n < 0 raises ValueError and
    n > cap raises CapExceeded.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the exhaustive cap {cap}")
    cands = sorted(_candidate_diagonals(n), key=lambda d: (d[1], -d[0]))
    keep = _keep_masks(cands, _crosses)
    inside = [(1 << b + 1) - (1 << a) for a, b in cands]
    outside = [~((1 << b) - (1 << a + 1)) for a, b in cands]
    bad = [not rule.allows(s) for s in range(n + 3)]
    # tally[m * w + s] counts the nodes first valid at m whose root face has s vertices here
    w = n + 3
    row = [(b - (a > 0)) * w for a, b in cands]
    tally = [0] * ((n + 2) * w)
    tally[w + n + 2] = 1  # the empty dissection, of every polygon from the triangle up

    def rec(free: int, face: int, size: int) -> None:
        x = free
        while x:
            low = x & -x
            i = low.bit_length() - 1
            x ^= low
            closed = (face & inside[i]).bit_count()
            if bad[closed]:
                continue
            rest = size - closed + 2
            tally[row[i] + rest] += 1
            child = free & keep[i]
            if child:
                rec(child, face & outside[i], rest)

    rec((1 << len(cands)) - 1, (1 << n + 2) - 1, n + 2)
    return [1] + [
        sum(tally[f * w + s] for f in range(1, m + 1) for s in range(w) if rule.allows(s - n + m))
        for m in range(1, n + 1)
    ]


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
    keep = _keep_masks(cands, _touches_or_crosses)

    def rec(x: int) -> int:
        count = 1
        while x:
            low = x & -x
            x ^= low
            child = x & keep[low.bit_length() - 1]
            count += rec(child) if child else 1
        return count

    return rec((1 << len(cands)) - 1)
