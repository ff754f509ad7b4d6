"""Every series computation: truncated kernels on ``int`` lists, three routes, an unroll, two certificates.

A series is a list of coefficients c_0..c_N; every kernel takes the degree
n to truncate at and returns exactly n + 1 coefficients, so all identities
hold modulo x^{n+1}.  There is no series class: the kernels are the
truncated product :func:`_conv`, the exact quotient :func:`_div_raw` and
the composition :func:`_compose_raw`.  Their cost follows the nonzero
coefficients: a product or quotient runs over its second operand's span
of nonzero coefficients only, and a composition multiplies once per gap
between the outer polynomial's nonzero coefficients, by powers of the
inner series.  No other module binds them: the closed forms and both
brute-force counters use no series kernel, so a kernel defect cannot
reach those checks.

Which powers to build by halving, k = k//2 + (k - k//2), and how far to
build each, is decided in one place, :func:`_halving_plan`: a power is
built only up to the last degree that is read of it.  The compositions
and :func:`revert_direct` both take their powers from it.

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
  pair up.  It is the production route: every command that lists terms
  runs it, and ``bfile`` of a catalog entry runs it for the first terms.
* The unroll, :func:`unroll_ode`, continues route 2's first terms of a
  catalog entry through the linear differential equation for F that the
  entry stores, read as a recurrence with polynomial coefficients: one
  product of a term by a small integer per coefficient of the equation,
  O(N) big-integer operations in all.  ``bfile`` of a catalog entry prints it.
* Route 4, :func:`count_by_series`, solves a tile rule's equation
  A = 1 + sum_{s in S} x^{s-2} A^{s-1} by Newton iteration.  It runs on
  the same kernels as route 1, but the two algorithms feed them different
  operands, so a kernel defect makes them disagree, and the closed forms
  and the enumeration check both.

Two certificates check given terms with no division: :func:`verify_inverse`
that alpha(F(x)) = x, and :func:`verify_tautological` that A solves the
tile equation.  Each takes one call to :func:`_compose_raw` and at most
two products.
"""

from __future__ import annotations

from math import perm
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
    and Zimmermann 2004).
    """
    out = [0] * (n + 1)
    first, last = _support(b)
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


def _compose_raw(outers: Sequence[Sequence[int]], inner: Sequence[int], n: int) -> list[list[int]]:
    """outer(inner(x)) mod x^{n+1} for each outer; inner[0] must be 0.

    Horner over each outer's nonzero coefficients only: between
    consecutive nonzero exponents hi > lo the sum is multiplied by
    inner^{hi-lo}, and at the end by inner^{lo} of the lowest one.  For a
    dense outer every gap is 1, one product by inner per degree.  The
    outers share one table of the powers these products read in full,
    built by :func:`_halving_plan`, one product per entry, each truncated
    at the last degree read, so a high power costs little beyond its own
    degree.  Coefficients of an outer above degree n are ignored, since
    inner^k vanishes mod x^{n+1} for k > n.
    """
    exponents = [[k for k in range(min(len(outer) - 1, n), -1, -1) if outer[k]] for outer in outers]
    gaps = {hi - lo for ks in exponents for hi, lo in zip(ks, [*ks[1:], 0]) if hi > lo}
    plan = _halving_plan(dict.fromkeys(gaps, n))
    powers = {1: inner}
    for k in sorted(plan):
        if k >= 2:
            powers[k] = _conv(powers[k // 2], powers[k - k // 2], plan[k])
    out = []
    for outer, ks in zip(outers, exponents):
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


def unroll_ode(ode: Sequence[Sequence[int]], head: Sequence[int], N: int) -> list[int]:
    """Inverse-series coefficients a_0..a_N from a linear ODE for F and its first terms.

    ``ode[k + 1][j]`` is c_{k,j} in sum_{k,j} c_{k,j} x^j F^(k) = 0, where
    F^(k) is the k-th derivative of F = sum a_n x^{n+1} and the row k = -1
    is the constant column.  ``head`` is a_0..a_{h-1}.  With F = sum f_i x^i,
    [x^n] x^j F^(k) is i(i-1)...(i-k+1) f_i for i = n + s, s = k - j.  The
    largest shift s_max with a nonzero coefficient solves [x^n] of the
    equation for f_m, m = n + s_max: L(m) f_m, with L(m) the sum of
    c_{k,j} m(m-1)...(m-k+1) over that shift, equals minus the lower shifts
    and the constant column.  So a term costs one product of an earlier
    term by a small integer per coefficient, and one division by L(m)
    through ``exact_div``: a wrong equation raises ``NonIntegerCoefficient``
    rather than round, and an L(m) that vanishes past the head raises
    ZeroDivisionError.  tests/test_ode.py proves each catalog entry's
    equation and checks that its L has no root past the CLI's head.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    constant = ode[0]
    terms = [(k - j, k, c) for k, row in enumerate(ode[1:]) for j, c in enumerate(row) if c]
    lead = max(terms)[0]
    if len(head) + 1 < lead:
        raise ValueError(f"the recurrence needs at least {lead - 1} head terms")
    f = [0, *head[:N + 1]]  # f[i] = [x^i] F = a_{i-1}, and f_0 = 0
    for m in range(len(f), N + 2):
        n = m - lead  # the equation [x^n] solves for f_m
        rhs = -constant[n] if n < len(constant) else 0
        divisor = 0
        for s, k, c in terms:
            i = n + s
            if i == m:
                divisor += c * perm(m, k)
            elif i >= 0:
                rhs -= c * perm(i, k) * f[i]
        f.append(exact_div(rhs, divisor, m - 1))
    return f[1:]


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
    m = n - e - 1 (Brent and Kung 1978).  Each step composes Ng and Dg
    with xA at degree n in one call to ``_compose_raw``, and Ng' and Dg',
    which only J reads, in a second call at degree m - 1, about a quarter
    of the cost.  Each call builds its powers of xA from one halving
    plan, each only as far as it is read.  The step ends in one exact
    division at degree m: J has constant term Dg(0) - Ng(0) = 1.  The size
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
    p_of_f, q_of_f = _compose_raw((symbol.numerator, symbol.denominator), [0, *terms], n)
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
    num_xa, den_xa = _compose_raw(rule.generating_pair(), [0, *terms[:n]], n)
    return _conv(den_xa, [terms[0] - 1, *terms[1:]], n) == _conv(num_xa, terms, n)
