"""Ground-truth combinatorics for restricted polygon dissections.

Three counters that check the series-reversion routes from other sides:

* :func:`enumerate_count` literally generates non-crossing diagonal sets
  of the labelled (n+2)-gon by backtracking and keeps those whose tiles
  all satisfy a rule.  Candidates run by left end, longest first, so a
  new diagonal lies inside every chosen diagonal that is still open, and
  the open ones nest like parentheses: a chain of them, innermost first,
  each with its face as a vertex bitmask, hands every new diagonal the
  face it splits with no search.  A node's state is one mask of the
  candidates still free.  It skips a subtree only where a forbidden face
  can no longer be split, and such a face stays on the chain, so every
  dissection it counts is still generated.  Exponential; capped at desk
  scale.  It uses no series arithmetic at all.
* :func:`count_by_series` solves the self-referential tile equation
  A = 1 + sum_{s in S} x^{s-2} A^{s-1} by Newton iteration on truncated
  integer series, doubling the precision each step.  The equation is
  taken cleared of the denominator of the rule's generating pair
  g = Ng/Dg, as Dg(xA) (A - 1) = A Ng(xA), the form
  :func:`verify_tautological` checks.  Each step makes two compositions
  with xA: Ng and Dg at the step's degree n, and their derivatives, which
  only the Jacobian reads, at about half of it.  Each composition builds
  one table of powers of xA by halving, each power only as far as it is
  read, and takes one truncated product per gap between nonzero
  coefficients and per table entry.  The step ends in one exact division
  by the Jacobian.
  It is a different algorithm from either reversion route but runs on
  the same product, exact-division and composition kernels as Lagrange
  inversion in :mod:`power_series`; the two algorithms feed the kernels
  different operands, so a kernel defect makes them disagree, and the
  enumeration checks both.  It takes the size sum from
  :meth:`TileRule.generating_pair`, the same pair symbol synthesis uses.
* :func:`count_chord_diagrams` exhaustively counts placements of pairwise
  disjoint chords (no shared endpoints, no crossings) on labelled circle
  points, the model behind the motzkin entry.  It too uses no series
  arithmetic.  It walks the same way, one mask of free chords per node.

Vertices are labelled 0..n+1 in convex position; dissections are distinct
as diagonal sets, with no quotient by rotation or reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .power_series import _compose_raw, _conv, _div_raw
from .symbols import TileRule

__all__ = [
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
    genuine diagonal and that no two cross, which leaves at most n-1.
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


def iter_dissections(n: int, cap: int = DEFAULT_DISSECTION_CAP) -> Iterator[Dissection]:
    """Yield every dissection of the (n+2)-gon, in lexicographic DFS order."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the exhaustive cap {cap}")
    cands = _candidate_diagonals(n)
    keep = _keep_masks(cands, _crosses)
    chosen: list[tuple[int, int]] = []

    def rec(free: int) -> Iterator[Dissection]:
        yield Dissection(n, chosen)
        x = free
        while x:
            low = x & -x
            i = low.bit_length() - 1
            x ^= low
            chosen.append(cands[i])
            yield from rec(free & keep[i])
            chosen.pop()

    return rec((1 << len(cands)) - 1)


def enumerate_count(n: int, rule: TileRule, cap: int = DEFAULT_DISSECTION_CAP) -> int:
    """Count dissections of the (n+2)-gon whose every tile satisfies the rule.

    Backtracks over candidate diagonals sorted by left end ascending, then
    right end descending.  A node holds one mask, ``free``: the later
    candidates that cross nothing chosen so far; a child through candidate
    i gets ``free & keep[i]``, and a child with nothing free is counted
    without a call.  A face is the bitmask of its vertices and its side
    count is its bit count.  The undissected polygon counts iff n+2 itself
    satisfies the rule; n = 0 returns 1 by convention since the 2-gon has
    no tiles to test.

    Chain: in this order a candidate (a, b) lies inside every chosen
    diagonal that is still open (right end > a), and chosen diagonals nest
    like parentheses.  The walk keeps them as linked tuples
    (b, face, rest), innermost first, where face is the part of the
    polygon inside that diagonal and outside the diagonals nested in it;
    the root is (n+1, whole polygon).  Entries with right end <= a are
    closed, as no later candidate lies inside them, and are dropped; the
    head is then the face (a, b) splits.  Its part on the a..b side keeps
    the vertices a..b and becomes the new head, the other part drops
    a+1..b-1 and stays in the head's place.

    Prune: the last candidate inside a face v1 < ... < vk is
    (v_{k-2}, v_k), and a triangle has none.  A node holding a forbidden
    face counts 0, so its loop runs only up to the earliest such deadline
    among its forbidden faces; later branches keep that face and count
    nothing.  A child ranges freely again.  A deadline comes before every
    candidate that would close its face, so a forbidden face is never
    dropped from the chain, and checking the chain checks every face.
    Every counted dissection is still generated, and nodes without a
    forbidden face do no extra work.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return 1
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the exhaustive cap {cap}")
    cands = sorted(_candidate_diagonals(n), key=lambda d: (d[0], -d[1]))
    keep = _keep_masks(cands, _crosses)
    inside = [(1 << b + 1) - (1 << a) for a, b in cands]
    outside = [~((1 << b) - (1 << a + 1)) for a, b in cands]
    # bad[s] is 1 where the rule forbids s-sided tiles; nbad counts such faces
    bad = [0] * 3 + [0 if rule.allows(s) else 1 for s in range(3, n + 3)]
    # upto[a][b] is the mask of candidate indices up to that of (a, b)
    upto = [[0] * (n + 2) for _ in range(n + 2)]
    for i, (a, b) in enumerate(cands):
        upto[a][b] = (1 << i + 1) - 1

    def rec(free: int, chain: tuple, nbad: int) -> int:
        count = 0 if nbad else 1
        x = free
        if nbad:
            link = chain
            while link:
                top, f, link = link
                if bad[f.bit_count()]:
                    rest = f ^ 1 << top
                    rest ^= 1 << rest.bit_length() - 1  # top bit is now v_{k-2}
                    x &= upto[rest.bit_length() - 1][top] if rest & rest - 1 else 0
        while x:
            low = x & -x
            i = low.bit_length() - 1
            x ^= low
            a = cands[i][0]
            while chain[0] <= a:
                chain = chain[2]
            b_head, f, below = chain
            f1 = f & inside[i]
            f2 = f & outside[i]
            child_nbad = nbad - bad[f.bit_count()] + bad[f1.bit_count()] + bad[f2.bit_count()]
            child = free & keep[i]
            if child:
                count += rec(child, (cands[i][1], f1, (b_head, f2, below)), child_nbad)
            elif not child_nbad:
                count += 1  # a leaf counts itself iff no face is forbidden
        return count

    return rec((1 << len(cands)) - 1, (n + 1, (1 << n + 2) - 1, ()), bad[n + 2])


def _derivative(p: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def count_by_series(n_max: int, rule: TileRule) -> list[int]:
    """Coefficients a_0..a_{n_max} of the tile equation's solution, by Newton iteration.

    With g = Ng/Dg the rule's generating pair, so that A g(xA) = sum_{s in
    S} x^{s-2} A^{s-1}, the tile equation A = 1 + A g(xA) is solved cleared
    of its denominator, as Psi(A) = Dg(xA) (A - 1) - A Ng(xA) = 0, by the
    Newton step A <- A - Psi(A) / J(A) with
    J(A) = Dg(xA) - Ng(xA) + x (A - 1) Dg'(xA) - x A Ng'(xA).  A step from
    A correct to degree e leaves A correct to at least degree 2e + 1, so
    the precision doubles from a_0 = 1, and the last step, at degree
    n_max, costs more than all the others together.  Psi(A) vanishes
    below degree e + 1, so the correction starts there and J is read
    only to degree m = n - e - 1 (Brent and Kung 1978).  Each step
    composes Ng and Dg with xA at degree n in one call to
    ``_compose_raw``, and Ng' and Dg', which only J reads, in a second
    call at degree m - 1, about a quarter of the cost.  Each call builds
    its powers of xA from one halving plan, each only as far as it is
    read.  The step ends in one exact division at degree m: J has
    constant term Dg(0) - Ng(0) = 1.  The size
    sum is applied in its closed rational form, so sizes with s-2 > n_max
    vanish under truncation either way.
    """
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    num, den = rule.generating_pair()
    polys = (num, den, _derivative(num), _derivative(den))
    degrees = []
    while n_max > 0:
        degrees.append(n_max)
        n_max //= 2
    a = [1]
    for n in reversed(degrees):
        e = len(a) - 1  # a is correct to degree e, and n <= 2e + 1
        m = n - e - 1  # the correction starts at degree e + 1, so J is read to degree m
        a += [0] * (n - e)
        xa = [0, *a[:n]]
        ng, dg = _compose_raw(polys[:2], xa, n)
        ng_d, dg_d = _compose_raw(polys[2:], xa, m - 1)
        a_less_1 = [0, *a[1:]]  # A - 1, since a_0 stays 1
        psi = [u - v for u, v in zip(_conv(dg, a_less_1, n), _conv(ng, a, n))]
        slope = [u - v for u, v in zip(_conv(dg_d, a_less_1, m - 1), _conv(ng_d, a, m - 1))]
        jac = [d - g + s for d, g, s in zip(dg, ng, [0, *slope])]
        a[e + 1:] = [ai - si for ai, si in zip(a[e + 1:], _div_raw(psi[e + 1:], jac, m))]
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
