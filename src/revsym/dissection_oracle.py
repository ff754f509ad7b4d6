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
  points, the model behind the motzkin entry.  It takes chords by right
  end too, but its node state is smaller: the bitmask of the points a
  later chord may start at, one bit per circle point, and the last right
  end.  It needs no candidate list and no crossing test.

These two counters are all the module holds.  Their reference, the plain
definition, lives in ``tests/test_dissection_oracle.py`` and shares no code
with them, not even the crossing test, so no defect here can reach both
sides of that check and cancel.

Vertices are labelled 0..n+1 in convex position; dissections are distinct
as diagonal sets, with no quotient by rotation or reflection.
"""

from __future__ import annotations

from .symbols import TileRule

__all__ = [
    "enumerate_counts",
    "count_chord_diagrams",
]

DEFAULT_DISSECTION_CAP = 12
DEFAULT_CHORD_CAP = 16


def _crosses(a: int, b: int, c: int, d: int) -> bool:
    """Open-interior crossing of chords {a,b}, {c,d} with a<b, c<d."""
    return a < c < b < d or c < a < d < b


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
    since the 2-gon has no tiles to test.  n < 0 and n > cap raise
    ValueError.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n > cap:
        raise ValueError(f"n = {n} exceeds the exhaustive cap {cap}")
    cands = [(i, j) for i in range(n + 2) for j in range(i + 2, n + 2) if (i, j) != (0, n + 1)]
    cands = sorted(cands, key=lambda d: (d[1], -d[0]))
    keep = [0] * len(cands)  # per candidate, the later candidates it may be chosen with
    for x, (a, b) in enumerate(cands):
        for y in range(x + 1, len(cands)):
            if not _crosses(a, b, *cands[y]):
                keep[x] |= 1 << y
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
    gives 1.  p < 0 and p > cap raise ValueError.

    A diagram's chords are taken by right end ascending.  A node holds its
    last right end b and ``free``, the points a later chord may start at:
    those neither an endpoint of a chosen chord nor strictly inside one.
    In this order that start is the whole rule: a new chord (c, d) with
    d > b ends beyond every chosen chord, so it touches or crosses one
    exactly when c is an endpoint or lies strictly inside it.  Points
    between b and d join ``free`` as d passes them, and choosing (c, d)
    leaves the free points below c as the child's ``free``.  Every
    non-empty diagram is one loop iteration, leaves included: one that no
    later chord can extend, such as one with a chord to the last point,
    is counted there without a call.
    """
    if p < 0:
        raise ValueError("need p >= 0")
    if p > cap:
        raise ValueError(f"p = {p} exceeds the exhaustive cap {cap}")
    last = p - 1

    def rec(free: int, b: int) -> int:
        count = 1
        for d in range(b + 1, last):
            x = free
            while x:
                c = x.bit_length() - 1
                x ^= 1 << c  # x is now the child's free set: the free points below c
                count += rec(x, d) if x or d < last - 1 else 1
            free |= 1 << d  # point d is free for every later right end
        while free:  # chords to the last point: leaves, one iteration each
            free &= free - 1
            count += 1
        return count

    return rec(0, -1)
