"""Each catalog entry's stored differential equation, proved from its symbol.

With x = alpha(F), alpha = P/Q and W = P'Q - PQ', F' = Q(F)^2 / W(F), and
by induction F^(k) = N_k(F) / W(F)^(2k-1) with N_1 = Q^2 and
N_{k+1} = (N_k' W - (2k-1) N_k W') Q^2.  Put into the equation
sum_{k,j} c_{k,j} x^j F^(k) = 0 of order r and x-degree D, and cleared of
Q^D W^(2r-1), it becomes a polynomial identity in t = F:

    sum_{k,j} c_{k,j} P^j Q^(D-j) G_k = 0,

with G_{-1} = W^(2r-1) for the constant column, G_0 = t W^(2r-1) and
G_k = N_k W^(2(r-k)) for k >= 1.  Q(0) = q_0 and W(0) = p_1 q_0 are
nonzero, so Q(F) and W(F) are units, and the identity holds exactly when
F satisfies the equation.  The polynomial helpers here are the test's own,
so a defect in a revsym kernel cannot reach the proof.
"""

import pytest

from revsym import cli, symbols
from revsym.symbols import catalog, format_symbol

from shared import catalog_entry

NAMES = [entry.symbol.name for entry in catalog()]


def _add(a, b):
    longer, shorter = (a, b) if len(a) >= len(b) else (b, a)
    return [u + (shorter[i] if i < len(shorter) else 0) for i, u in enumerate(longer)]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _scale(c, a):
    return [c * u for u in a]


def _derivative(a):
    return [k * a[k] for k in range(1, len(a))]


def _power(a, e):
    out = [1]
    for _ in range(e):
        out = _mul(out, a)
    return out


def _is_zero(a):
    return not any(a)


def _cleared_equation(symbol, ode):
    """sum_{k,j} c_{k,j} P^j Q^(D-j) G_k, a polynomial in t that is zero exactly when the equation holds."""
    p, q = list(symbol.numerator), list(symbol.denominator)
    r = len(ode) - 2
    degree = max(len(row) for row in ode) - 1
    assert r >= 1
    w = _add(_mul(_derivative(p), q), _scale(-1, _mul(p, _derivative(q))))
    assert w[0] == p[1] * q[0] != 0
    numerators = {1: _mul(q, q)}
    for k in range(1, r):
        step = _add(_mul(_derivative(numerators[k]), w), _scale(-(2 * k - 1), _mul(numerators[k], _derivative(w))))
        numerators[k + 1] = _mul(step, _mul(q, q))
    g = {-1: _power(w, 2 * r - 1), 0: _mul([0, 1], _power(w, 2 * r - 1))}
    g.update((k, _mul(numerators[k], _power(w, 2 * (r - k)))) for k in range(1, r + 1))
    total = []
    for k, row in enumerate(ode, start=-1):
        for j, c in enumerate(row):
            if c:
                total = _add(total, _scale(c, _mul(_mul(_power(p, j), _power(q, degree - j)), g[k])))
    return total


def _falling(k):
    """m (m-1) ... (m-k+1) as a polynomial in m."""
    out = [1]
    for i in range(k):
        out = _mul(out, [-i, 1])
    return out


def _leading_coefficient(ode):
    """(s, L): the largest shift s = k - j of a nonzero c_{k,j}, and L(m) = sum_{k-j=s} c_{k,j} m^(k falling).

    The coefficient of x^n in x^j F^(k) is f_i times i falling k, with
    i = n + k - j, so [x^n] of the equation gives L(m) f_m for m = n + s
    plus terms in f_i with i < m.
    """
    s = max(k - j for k, row in enumerate(ode[1:]) for j, c in enumerate(row) if c)
    lead = []
    for k, row in enumerate(ode[1:]):
        if 0 <= k - s < len(row) and row[k - s]:
            lead = _add(lead, _scale(row[k - s], _falling(k)))
    while lead and not lead[-1]:
        lead.pop()
    return s, lead


def _evaluate(poly, m):
    return sum(c * m**i for i, c in enumerate(poly))


def _mutated(ode):
    """``ode`` with its top-order coefficient at x^0 raised by one.

    That coefficient has the largest shift there is, k = r and j = 0, so it
    enters L(m) at every step of the unroll.
    """
    *rest, top = ode
    return (*rest, (top[0] + 1, *top[1:]))


@pytest.mark.parametrize("name", NAMES)
def test_stored_equation_holds_for_the_inverse_series(name):
    entry = catalog_entry(name)
    assert _is_zero(_cleared_equation(entry.symbol, entry.ode))


@pytest.mark.parametrize("name", NAMES)
def test_recurrence_divides_by_no_zero_past_a_0(name):
    # f_1 = a_0 = 1 is given, and the unroll solves [x^n] for f_m, m = n + s,
    # from f_2 on: that needs s <= 2, so that n >= 0, and L(m) != 0 for m >= 2
    first = 2
    s, lead = _leading_coefficient(catalog_entry(name).ode)
    assert lead and s <= first
    # every real root of L lies within 1 + max |l_i / l_top| (Cauchy's bound)
    bound = 1 + max(-(-abs(c) // abs(lead[-1])) for c in lead)
    assert [m for m in range(first, bound + 1) if _evaluate(lead, m) == 0] == []


@pytest.mark.parametrize("name", NAMES)
def test_one_changed_coefficient_fails_the_proof_and_the_route_2_comparison(name, monkeypatch, tmp_path, capsys):
    entry = catalog_entry(name)
    broken = entry._replace(ode=_mutated(entry.ode))
    assert not _is_zero(_cleared_equation(entry.symbol, broken.ode))
    monkeypatch.setattr(symbols, "_CATALOG", tuple(broken if e == entry else e for e in catalog()))
    unrolled, direct = tmp_path / "unrolled.txt", tmp_path / "direct.txt"
    assert cli.main(["bfile", format_symbol(entry.symbol), "--count", "60", "--out", str(direct)]) == 0
    rc = cli.main(["bfile", name, "--count", "60", "--out", str(unrolled)])
    capsys.readouterr()
    # a wrong equation either leaves the integers (exit 2) or prints other terms
    assert rc == 2 or unrolled.read_bytes() != direct.read_bytes()
