"""Ground-truth combinatorics for restricted polygon dissections.

Three counters that check the series-reversion routes from other sides:

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
  it dissects and by its root face's size.  :func:`enumerate_count` is
  a_n of that walk.  Exponential; capped at desk scale.  It uses no
  series arithmetic at all.
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

The reference the walk is tested against, :func:`iter_dissections` with
:func:`tiles_of`, is the plain definition: it shares the crossing test
and the candidate list with the walk but none of its masks, its order or
its tally, so a defect in the walk's bookkeeping cannot reach both sides
of that check and cancel.

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
    "enumerate_counts",
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


def iter_dissections(n: int, cap: int = DEFAULT_DISSECTION_CAP) -> Iterator[Dissection]:
    """Yield every dissection of the (n+2)-gon, in lexicographic DFS order.

    The plain definition: the diagonals chosen so far, in candidate order,
    are extended by every later candidate that crosses none of them.  The
    n < 1 and cap errors raise at the call, before the first dissection is
    asked for.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the exhaustive cap {cap}")
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
    since the 2-gon has no tiles to test.
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


def enumerate_count(n: int, rule: TileRule, cap: int = DEFAULT_DISSECTION_CAP) -> int:
    """Count dissections of the (n+2)-gon whose every tile satisfies the rule.

    a_n of :func:`enumerate_counts`: one walk of the (n+2)-gon in
    right-end order, which generates every dissection it counts.  n = 0
    gives 1; n < 0 raises ValueError and n > cap raises CapExceeded.
    """
    return enumerate_counts(n, rule, cap)[n]


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
