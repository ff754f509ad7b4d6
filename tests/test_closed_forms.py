"""Closed binomial-sum evaluators against oracles and boundary conventions."""

import math

import pytest

from revsym import closed_forms
from revsym.closed_forms import (
    DomainError,
    catalan_term,
    even_term,
    motzkin_term,
    odd_term,
    schroeder_term,
    triangle_free_term,
)
from revsym.dissection_oracle import count_chord_diagrams, enumerate_counts
from revsym.symbols import (
    ANY_TILES,
    EVEN_ONLY,
    NO_TRIANGLES,
    ODD_ONLY,
    TRIANGLES_ONLY,
)
from revsym.power_series import lagrange_coefficients
from revsym.symbols import catalog


class TestTriangleFree:
    def test_two_gon_convention(self):
        assert triangle_free_term(0) == 1

    def test_hexagon(self):
        # empty dissection plus the 3 quadrilateral-pair splits
        assert triangle_free_term(4) == 4 == enumerate_counts(4, NO_TRIANGLES)[4]

    def test_octagon_sum_divides(self):
        # inner sum is 175; divided by n+1 = 7
        assert triangle_free_term(6) == 25 == enumerate_counts(6, NO_TRIANGLES)[6]

    def test_matches_exhaustive_enumeration(self):
        assert [triangle_free_term(n) for n in range(9)] == enumerate_counts(8, NO_TRIANGLES)


class TestOdd:
    def test_triangle_is_unique(self):
        assert odd_term(1) == 1 == enumerate_counts(1, ODD_ONLY)[1]

    def test_pentagon(self):
        # the whole pentagon plus its 5 triangulations
        assert odd_term(3) == 6 == enumerate_counts(3, ODD_ONLY)[3]

    def test_hexagon(self):
        # 14 triangulations plus 6 triangle+pentagon splits
        assert odd_term(4) == 20 == enumerate_counts(4, ODD_ONLY)[4]

    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            odd_term(0)

    def test_matches_exhaustive_enumeration(self):
        assert [odd_term(n) for n in range(1, 9)] == enumerate_counts(8, ODD_ONLY)[1:]


class TestEven:
    def test_odd_indices_vanish(self):
        assert even_term(3) == 0
        for m in range(50):
            assert even_term(2 * m + 1) == 0

    def test_square_is_unique(self):
        assert even_term(2) == 1 == enumerate_counts(2, EVEN_ONLY)[2]

    def test_octagon_sum_divides(self):
        # inner sum is 147; divided by 2m+1 = 7
        assert even_term(6) == 21 == enumerate_counts(6, EVEN_ONLY)[6]

    def test_two_gon_bypass(self):
        # the raw sum gives 0 at m = 0; reversion ground truth wins
        assert even_term(0) == 1

    def test_matches_exhaustive_enumeration(self):
        assert [even_term(n) for n in range(1, 9)] == enumerate_counts(8, EVEN_ONLY)[1:]


class TestSchroeder:
    def test_square(self):
        assert schroeder_term(2) == 3 == enumerate_counts(2, ANY_TILES)[2]

    def test_pentagon(self):
        # raw sum 44 over n+1 = 4
        assert schroeder_term(3) == 11 == enumerate_counts(3, ANY_TILES)[3]

    def test_heptagon(self):
        assert schroeder_term(5) == 197 == enumerate_counts(5, ANY_TILES)[5]

    def test_two_gon_convention(self):
        assert schroeder_term(0) == 1

    def test_matches_exhaustive_enumeration(self):
        assert [schroeder_term(n) for n in range(9)] == enumerate_counts(8, ANY_TILES)


class TestCatalan:
    def test_small_values(self):
        assert catalan_term(0) == 1
        assert catalan_term(3) == 5 == enumerate_counts(3, TRIANGLES_ONLY)[3]
        assert catalan_term(5) == 42 == enumerate_counts(5, TRIANGLES_ONLY)[5]

    def test_matches_exhaustive_enumeration(self):
        assert [catalan_term(n) for n in range(9)] == enumerate_counts(8, TRIANGLES_ONLY)


class TestMotzkin:
    def test_small_values(self):
        assert motzkin_term(0) == 1 == count_chord_diagrams(0)
        assert motzkin_term(2) == 2 == count_chord_diagrams(2)
        # raw sum 45 over n+1 = 5
        assert motzkin_term(4) == 9 == count_chord_diagrams(4)


class TestAgainstReversion:
    def test_agreement_to_sixty(self):
        excluded = []
        for entry in catalog():
            reversion = lagrange_coefficients(entry.symbol, 60)
            for n in range(61):
                try:
                    assert entry.closed_form(n) == reversion[n], (entry.symbol.name, n)
                except DomainError:
                    excluded.append((entry.symbol.name, n))
        assert excluded == [("oddtiles", 0)]

    def test_negative_index_rejected_everywhere(self):
        for entry in catalog():
            with pytest.raises(DomainError):
                entry.closed_form(-1)


def _binomial(r, k):
    """C(r, k), zero outside 0 <= k <= r: the factorial definition, with no revsym or math.comb code."""
    if not 0 <= k <= r:
        return 0
    return math.factorial(r) // (math.factorial(k) * math.factorial(r - k))


# the summand u(n, k) of each closed sum a_n = 1/(n+1) * sum_k u(n, k); catalan's form has no sum
_SUMMANDS = {
    triangle_free_term: lambda n, k: _binomial(n + k, k) * _binomial(n - k - 1, k - 1),
    odd_term: lambda n, k: _binomial(2 * n - 2 * k, n - 2 * k) * _binomial(n - k - 1, k),
    even_term: lambda n, k: _binomial(n + k, k) * _binomial(n // 2 - 1, k - 1) if n % 2 == 0 else 0,
    schroeder_term: lambda n, k: _binomial(2 * n - k, n) * _binomial(n - 1, k),
    motzkin_term: lambda n, k: _binomial(n + 1, k) * _binomial(k, 2 * k - n - 2),
}


class TestSupport:
    """Each closed form sums its summand over the whole support of its binomials, and no further."""

    @pytest.mark.parametrize("term", _SUMMANDS, ids=lambda term: term.__name__)
    def test_sum_over_every_k_to_2n_plus_2(self, term):
        # every k outside a form's own range adds zero here, so its range misses no term
        for n in range(1, 61):
            total = sum(_SUMMANDS[term](n, k) for k in range(2 * n + 3))
            assert total % (n + 1) == 0, (term.__name__, n)
            assert term(n) == total // (n + 1), (term.__name__, n)

    @pytest.mark.parametrize("term", [*_SUMMANDS, catalan_term], ids=lambda term: term.__name__)
    def test_every_binomial_evaluated_is_nonzero(self, term, monkeypatch):
        # a range one step too wide raises math.comb's ValueError or evaluates a zero binomial
        def nonzero_comb(r, k):
            value = math.comb(r, k)
            assert value != 0, (term.__name__, r, k)
            return value

        monkeypatch.setattr(closed_forms, "comb", nonzero_comb)
        for n in range(301):
            try:
                term(n)
            except DomainError:
                assert (term, n) == (odd_term, 0)
