"""Every series computation: truncated kernels on ``int`` lists, three routes, an unroll, two certificates.

A series is a list of coefficients c_0..c_N; every kernel takes the degree
n to truncate at and returns exactly n + 1 coefficients, so all identities
hold modulo x^{n+1}.  There is no series class: the kernels are the
truncated product :func:`_conv`, the exact quotient :func:`_div_raw` and
the composition :func:`_compose_raw`.  Their cost follows the nonzero
coefficients: a product or quotient runs over its second operand's span
of nonzero coefficients only, and a composition multiplies once per gap
between the outer polynomial's nonzero coefficients, by powers of the
inner series.  A product of a list by itself is a square and takes each
pair of coefficients once, about half the products.  No other module
binds the kernels: the closed forms and both brute-force counters use no
series kernel, so a kernel defect cannot reach those checks.

Which powers to build by halving, k = k//2 + (k - k//2), and how far to
build each, is decided in one place, :func:`_halving_plan`: a power is
built only up to the last degree that is read of it, and an even power
is a square.  A composition builds one table for all its outers, each
composed at its own degree, and :func:`revert_direct` keeps its rows by
the same plan.

Coefficients are Python ints.  The one division, :func:`_div_raw`, divides
each step exactly by the divisor's constant term through
:func:`revsym.exact_arith.exact_div`, which raises ``NonIntegerCoefficient``
where the quotient would leave the integers, so nothing is ever rounded.

Three routes and an unroll return the inverse-series coefficients
a_0..a_N of a reversive symbol alpha = P/Q, or of a tile rule's symbol,
certifying that every one is an integer:

* Route 1, :func:`lagrange_coefficients`, extracts
  a_{n-1} = (1/n) [t^{n-1}] (t/alpha(t))^n through N truncated products,
  O(N^3) in all.  It is the independent cross-check that ``verify`` runs.
* Route 2, :func:`revert_direct`, solves [x^n] alpha(F(x)) = delta_{n,1}
  coefficient by coefficient, written as P(F) = x Q(F).  It keeps a row
  of powers of F only for the exponents that P and Q use and the halves
  that :func:`_halving_plan` splits them into, O(N^2) integer operations
  per row, and fills the rows itself, with no kernel.  A row k = h + h is
  a square and takes half the products of the others, since its terms
  pair up.  It is the production route for symbol text: ``from-tiles``
  and ``terms`` and ``bfile`` of symbol text list its terms.
* The unroll, :func:`unroll_ode`, computes a catalog entry's terms from
  a_0 = 1 alone through the linear differential equation for F that the
  entry stores, read as a recurrence with polynomial coefficients, in
  O(N) big-integer operations and with no code of route 2's.  The
  equation's coefficients group into one polynomial per shift, kept in
  the falling factorials the equation gives, and each polynomial is
  tabulated over the N terms before the first term, by running sums of
  the forward differences its falling factorials give exactly.  So a
  term costs one big-integer product per lower shift and one exact
  division.  ``terms`` and ``bfile`` of a catalog entry list it.
* Route 4, :func:`count_by_series`, solves a tile rule's equation
  A = 1 + sum_{s in S} x^{s-2} A^{s-1} by Newton iteration, with one
  composition per step.  It runs on the same kernels as route 1, but the
  two algorithms feed them different operands, so a kernel defect makes
  them disagree, and the closed forms and the enumeration check both.

Two certificates check given terms with no division: :func:`verify_inverse`
that alpha(F(x)) = x, and :func:`verify_tautological` that A solves the
tile equation.  Each takes one call to :func:`_compose_raw` and at most
two products.
"""

from __future__ import annotations

from itertools import accumulate
from math import perm, prod
from operator import mul
from typing import Sequence

from .exact_arith import exact_div
from .symbols import ReversiveSymbol, TileRule

__all__ = [
    "lagrange_coefficients",
    "revert_direct",
    "unroll_ode",
    "count_by_series",
    "verify_inverse",
    "verify_tautological",
]


def _support(b: Sequence[int]) -> tuple[int, int]:
    """Indices of b's first and last nonzero coefficients; last is -1 for zero."""
    first, last = 0, len(b) - 1
    while last >= 0 and not b[last]:
        last -= 1
    while first < last and not b[first]:
        first += 1
    return first, last


def _conv(a: Sequence[int], b: Sequence[int], n: int, lo: int = 0) -> list[int]:
    """Cauchy product of coefficient lists, truncated at degree n, from degree lo.

    Each coefficient of a runs over b only from b's first to its last
    nonzero coefficient, so a product by a polynomial padded with zeros
    costs its degree, not n, and a product by a high power of a series
    without constant term costs only the degrees it reaches.  Degrees below
    lo are not computed and read 0, for a caller that reads only the top of
    the product (the truncated case of the middle product: Hanrot, Quercia
    and Zimmermann 2004).  When a and b are the same list the product is a
    square, whose terms a_i a_j and a_j a_i are equal: each unordered pair
    i < j is taken once and doubled, beside the diagonal a_i^2, so a square
    takes about half the products (Knuth, TAOCP vol. 2, 4.6.3).
    """
    out = [0] * (n + 1)
    first, last = _support(b)
    if a is b:
        for i in range(first, min(last, n // 2) + 1):
            ai = a[i]
            if ai:
                if 2 * i >= lo:
                    out[2 * i] += ai * ai
                twice = 2 * ai
                for j in range(max(i + 1, lo - i), min(n - i, last) + 1):
                    aj = a[j]
                    if aj:
                        out[i + j] += twice * aj
        return out
    for i, ai in enumerate(a):
        if i + first > n:
            break
        if ai:
            for j in range(max(first, lo - i), min(n - i, last) + 1):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def _div_raw(p: Sequence[int], q: Sequence[int], n: int) -> list[int]:
    """p/q mod x^{n+1} by the triangular recurrence, each step divided exactly by q[0].

    The recurrence runs over q only up to its last nonzero coefficient.  A
    zero q[0] raises ZeroDivisionError.
    """
    q0 = q[0]
    last = _support(q)[1]
    out = [0] * (n + 1)
    for m in range(n + 1):
        s = p[m] if m < len(p) else 0
        for k in range(1, min(m, last) + 1):
            qk = q[k]
            if qk:
                s -= qk * out[m - k]
        out[m] = exact_div(s, q0, m, "quotient")
    return out


def _halving_plan(reach: dict[int, int]) -> dict[int, int]:
    """Close {exponent: last degree read} under halving, for powers of a series without constant term.

    A power k >= 2 is built as inner^{k//2} * inner^{k-k//2}.  Since a
    power h starts at degree h, each half is read only up to reach[k]
    minus the other half, and a power that several products read takes
    the largest of their reaches.  Exponents 0 and 1 are never split.
    """
    reach = dict(reach)
    for k in range(max(reach, default=0), 1, -1):
        if k in reach:
            h, r = k // 2, k - k // 2
            for half, other in ((h, r), (r, h)):
                if half >= 2:
                    reach[half] = max(reach.get(half, 0), reach[k] - other)
    return reach


def _compose_raw(outers: Sequence[Sequence[int]], inner: Sequence[int],
                 degrees: Sequence[int]) -> list[list[int]]:
    """outer(inner(x)) mod x^{n+1} for each outer and its own degree n; inner[0] must be 0.

    Horner over each outer's nonzero coefficients only: between
    consecutive nonzero exponents hi > lo the sum is multiplied by
    inner^{hi-lo}, and at the end by inner^{lo} of the lowest one.  For a
    dense outer every gap is 1, one product by inner per degree.  The
    outers share one table of the powers these products read in full: a
    power is read to the largest degree among the outers whose gaps need
    it, and :func:`_halving_plan` builds each power once, one product per
    entry, each truncated at the last degree read, so a high power costs
    little beyond its own degree and an even one is a square.
    Coefficients of an outer above its degree are ignored, since inner^k
    vanishes mod x^{n+1} for k > n.
    """
    exponents = [[k for k in range(min(len(outer) - 1, n), -1, -1) if outer[k]]
                 for outer, n in zip(outers, degrees)]
    reach: dict[int, int] = {}
    for ks, n in zip(exponents, degrees):
        for hi, lo in zip(ks, [*ks[1:], 0]):
            if hi > lo:
                reach[hi - lo] = max(n, reach.get(hi - lo, n))
    plan = _halving_plan(reach)
    powers = {1: inner}
    for k in sorted(plan):
        if k >= 2:
            powers[k] = _conv(powers[k // 2], powers[k - k // 2], plan[k])
    out = []
    for outer, ks, n in zip(outers, exponents, degrees):
        res = [0] * (n + 1)
        for hi, lo in zip(ks, [*ks[1:], 0]):
            res[0] += outer[hi]
            if hi > lo:
                res = _conv(res, powers[hi - lo], n)
        out.append(res)
    return out


def lagrange_coefficients(alpha: ReversiveSymbol, N: int) -> list[int]:
    """Inverse-series coefficients a_0..a_N of a reversive symbol.

    a_{n-1} = (1/n) [t^{n-1}] (t/alpha(t))^n for n = 1..N+1, each division
    checked exact.  F(x) = sum a_n x^{n+1} then satisfies alpha(F(x)) = x.

    With c = p_1 = q_0, the ratio R(t) = t/alpha(t) = Q(t) / (P(t)/t) is
    taken as S(u) = R(cu) = (Q(cu)/c) / (P(cu)/(c^2 u)): both quotients have
    constant term 1 and coefficients q_k c^{k-1} and p_{k+1} c^{k-1}, so S is
    integral and a_{n-1} = [u^{n-1}] S^n / (n c^{n-1}).  The powers are
    built incrementally, S^n = S^{n-1} * S at full precision.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    c = alpha.denominator[0]
    num = alpha.numerator[1 : N + 2]  # P/t; valid because P(0) = 0
    den = alpha.denominator[: N + 1]
    ratio = _div_raw([qk * c**k // c for k, qk in enumerate(den)],
                     [pk * c**k // c for k, pk in enumerate(num)], N)
    out: list[int] = []
    power = ratio
    for n in range(1, N + 2):
        out.append(exact_div(power[n - 1], n * c ** (n - 1), n - 1))
        if n <= N:
            power = _conv(power, ratio, N)
    return out


def revert_direct(alpha: ReversiveSymbol, N: int) -> list[int]:
    """Inverse-series coefficients a_0..a_N of a reversive symbol, no Lagrange formula.

    Same contract as :func:`lagrange_coefficients`.  With alpha = P/Q and
    F = f_1 x + f_2 x^2 + ... (a_n = f_{n+1}), the condition
    [x^n] alpha(F) = delta_{n,1} is [x^n] P(F) = [x^{n-1}] Q(F), i.e.

        p_1 f_n = sum_k q_k [x^{n-1}] F^k - sum_{k>=2} p_k [x^n] F^k,

    where every term on the right involves only f_1..f_{n-1} (F^k starts
    at x^k).  Rows [x^j] F^k are kept only for the exponents k >= 2 with a
    nonzero p_k or q_k, and for the halves h = k//2 and r = k - h that
    :func:`_halving_plan` splits them into, recursively.  Column n of row
    k is sum_{i=h}^{n-r} [x^i] F^h [x^{n-i}] F^r, which needs only earlier
    columns, so the rows are filled one column at a time.  When h = r the
    terms i and n - i are equal, so a square row takes
    2 sum_{h <= i < n/2} [x^i] F^h [x^{n-i}] F^h, plus ([x^{n/2}] F^h)^2
    for even n: half the products of the other rows.  N terms cost
    O(m N^2) integer operations and O(m N) memory, m the number of rows:
    at most two per level of halving for each nonzero exponent, and the
    rows 2 = 1 + 1 and 3 = 1 + 2 for a dense symbol of degree 3.  A row is
    filled only up to the last column that a later row or the sum reads,
    so the rows of a high exponent k cost little beyond column k.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    # F^k starts at x^k, so coefficients above degree N+1 never reach a_N
    p = alpha.numerator[: N + 2]
    q = alpha.denominator[: N + 2]
    # reach[k] is the last column of row k that is read: N + 1 for the
    # exponents P and Q use, less for the halves they split into
    reach = _halving_plan({k: N + 1 for k, c in [*enumerate(p), *enumerate(q)] if c and k >= 2})
    # rows[k][j] = [x^j] F^k; row 0 is the constant 1 and row 1 is F itself
    rows = {0: [1] + [0] * (N + 1), 1: [0] * (N + 2)}
    rows.update((k, [0] * (N + 2)) for k in reach)
    splits = [(rows[k], rows[k // 2], rows[k - k // 2], k // 2, k - k // 2, reach[k])
              for k in sorted(reach)]
    p_rows = [(c, rows[k]) for k, c in enumerate(p) if c and k >= 2]
    q_rows = [(c, rows[k]) for k, c in enumerate(q) if c]
    f = rows[1]
    for n in range(1, N + 2):
        for row, low, high, h, r, top in splits:
            if not h + r <= n <= top:  # row k starts at column k
                continue
            if h == r:  # a square: the terms i and n - i pair up
                row[n] = 2 * sum(map(mul, low[h:(n + 1) // 2], low[n - h:n // 2:-1]))
                if n % 2 == 0:
                    row[n] += low[n // 2] ** 2
            else:
                row[n] = sum(map(mul, low[h:n - r + 1], high[n - h:r - 1:-1]))
        rhs = sum(c * row[n - 1] for c, row in q_rows)
        rhs -= sum(c * row[n] for c, row in p_rows)
        f[n] = exact_div(rhs, p[1], n - 1)
    return f[1:]


def unroll_ode(ode: Sequence[Sequence[int]], N: int) -> list[int]:
    """Inverse-series coefficients a_0..a_N from a linear ODE for F and a_0 = 1.

    ``ode[k + 1][j]`` is c_{k,j} in sum_{k,j} c_{k,j} x^j F^(k) = 0, where
    F^(k) is the k-th derivative of F = sum a_n x^{n+1} and the row k = -1
    is the constant column.  F = x + ..., as for every reversive symbol, so
    f_0 = 0 and f_1 = a_0 = 1 start it.  With F = sum f_i x^i,
    [x^n] x^j F^(k) is i(i-1)...(i-k+1) f_i for i = n + s, s = k - j.  So
    the coefficients of one shift s make one integer polynomial in i, kept
    as the falling factorials their equation gives, {k: c_{k,j}}; falling
    factorials of different k are linearly independent, so no shift's
    polynomial cancels to zero.  The largest shift s_max solves [x^n] of
    the equation for f_m, m = n + s_max: L(m) f_m, with L its polynomial,
    equals minus the lower shifts and the constant column.  Before the
    first term, each lower shift's polynomial and L are tabulated over the
    N terms by :func:`_tabulate`, from forward differences that the
    falling factorials give exactly.  The tables hold O(shifts N) small
    ints: at N = 10,000, 2.5 MiB for oddtiles' 7 shifts against 15 MiB
    for its terms (64-bit CPython).  f is padded with zeros below
    f_0, which the first terms of a shift below lead - 2 read.  So a term
    costs one product of an earlier term by a table entry per lower shift
    and one division by L(m) through ``exact_div``: a wrong equation
    raises ``NonIntegerCoefficient`` rather than round, an L(m) that
    vanishes at m >= 2 raises ZeroDivisionError, and an s_max above 2,
    which f_1 alone cannot start, or an equation with no nonzero
    coefficient of F or its derivatives raises ValueError.
    tests/test_ode.py proves each catalog entry's equation and checks that
    its L has no root at m >= 2.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    folded: dict[int, dict[int, int]] = {}  # shift -> {k: c_{k,j}}, in falling factorials
    for k, row in enumerate(ode[1:]):
        for j, c in enumerate(row):
            if c:
                folded.setdefault(k - j, {})[k] = c
    if not folded:
        raise ValueError("the equation has no nonzero coefficient of F or its derivatives")
    lead = max(folded)
    if lead > 2:
        raise ValueError(f"the recurrence's leading shift {lead} exceeds 2")
    leading = _tabulate(folded.pop(lead), 2, N)
    # term t solves [x^n], n = t + 2 - lead, for f_m, m = t + 2; shift s reads
    # f_i, i = n + s, from its table's point t and f's entry t + offset
    pad = max(0, lead - 2 - min(folded, default=lead))
    rows = [(_tabulate(poly, 2 - lead + s, N), pad + 2 - lead + s) for s, poly in folded.items()]
    constants = [-c for c in ode[0][2 - lead:N + 2 - lead]]
    constants += [0] * (N - len(constants))
    f = [0] * pad + [0, 1]  # f[pad + i] = [x^i] F = a_{i-1}, and zero below f_0
    t = 0
    for rhs, divisor in zip(constants, leading):
        for table, offset in rows:
            rhs -= table[t] * f[t + offset]
        t += 1  # f_m = a_t
        f.append(exact_div(rhs, divisor, t))
    return f[pad + 1:]


def _tabulate(poly: dict[int, int], start: int, count: int) -> list[int]:
    """sum of c i(i-1)...(i-k+1) over ``poly``'s {k: c}, at the ``count`` points start, start + 1, ...

    The difference of order d of i(i-1)...(i-k+1) is k(k-1)...(k-d+1)
    times the falling factorial of degree k - d (Graham, Knuth and
    Patashnik, Concrete Mathematics, 2.6), so the coefficients give the
    differences at start, and one running sum per order gives the values.
    """
    heads = [sum(c * perm(k, d) * prod(range(start, start - k + d, -1)) for k, c in poly.items())
             for d in range(max(poly) + 1)]
    column = [heads.pop()] * (count - len(heads))
    for head in reversed(heads):
        column = list(accumulate(column, initial=head))
    return column[:count]


def _derivative(p: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def count_by_series(n_max: int, rule: TileRule) -> list[int]:
    """Coefficients a_0..a_{n_max} of the tile equation's solution, by Newton iteration.

    With g = Ng/Dg the rule's generating pair, so that A g(xA) = sum_{s in
    S} x^{s-2} A^{s-1}, the tile equation A = 1 + A g(xA) is solved cleared
    of its denominator, as Psi(A) = Dg(xA) (A - 1) - A Ng(xA) = 0 (the form
    :func:`verify_tautological` checks), by the Newton step A <- A - Psi(A) / J(A) with
    J(A) = Dg(xA) - Ng(xA) + x (A - 1) Dg'(xA) - x A Ng'(xA).  A step from
    A correct to degree e leaves A correct to at least degree 2e + 1, so
    the precision doubles from a_0 = 1, and the last step, at degree
    n_max, costs more than all the others together.  Psi(A) vanishes
    below degree e + 1, so its two products are computed only from there,
    the correction starts there and J is read only to degree
    m = n - e - 1 (Brent and Kung 1978).  Each step composes Ng, Dg,
    Ng' and Dg' with xA in one call to ``_compose_raw``: Ng and Dg at
    degree n, and Ng' and Dg', which only J reads, at degree m - 1.  So
    each power of xA is built once per step, by one halving plan, only as
    far as the outers read it, and each even power is a square.  The step
    ends in one exact division at degree m: J has constant term
    Dg(0) - Ng(0) = 1.  The size sum is applied in its closed rational
    form, so sizes with s-2 > n_max vanish under truncation either way.
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
        ng, dg, ng_d, dg_d = _compose_raw(polys, xa, (n, n, m - 1, m - 1))
        a_less_1 = [0, *a[1:]]  # A - 1, since a_0 stays 1
        psi = [u - v for u, v in zip(_conv(dg, a_less_1, n, e + 1), _conv(ng, a, n, e + 1))]
        slope = [u - v for u, v in zip(_conv(dg_d, a_less_1, m - 1), _conv(ng_d, a, m - 1))]
        jac = [d - g + s for d, g, s in zip(dg, ng, [0, *slope])]
        a[e + 1:] = [ai - si for ai, si in zip(a[e + 1:], _div_raw(psi[e + 1:], jac, m))]
    return a


def verify_inverse(symbol: ReversiveSymbol, terms: Sequence[int]) -> bool:
    """Check alpha(F(x)) = x to precision N+1 for F = sum terms[n] x^{n+1}.

    Checked as P(F) = x Q(F), which is equivalent because Q(F) has the
    nonzero constant term q_0, and needs no division.
    """
    if not terms:
        raise ValueError("need at least a_0")
    n = len(terms)  # precision N+1
    p_of_f, q_of_f = _compose_raw((symbol.numerator, symbol.denominator), [0, *terms], (n, n))
    return p_of_f == [0, *q_of_f[:n]]


def verify_tautological(rule: TileRule, terms: Sequence[int]) -> bool:
    """Check A = 1 + sum_{s in S} x^{s-2} A^{s-1} to precision N.

    A is the series with the given coefficients.  With the sum in its
    closed rational form g = Ng/Dg, so that sizes with s-2 > N drop out
    exactly as the truncation demands, this is checked cleared of the
    denominator as Dg(xA) (A - 1) = A Ng(xA), which is equivalent because
    Dg(xA) has constant term 1, and needs no division.
    """
    if not terms:
        raise ValueError("need at least a_0")
    n = len(terms) - 1
    num_xa, den_xa = _compose_raw(rule.generating_pair(), [0, *terms[:n]], (n, n))
    return _conv(den_xa, [terms[0] - 1, *terms[1:]], n) == _conv(num_xa, terms, n)
