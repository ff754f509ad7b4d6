"""Closed binomial-sum evaluators against oracles and boundary conventions."""

import pytest

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
from revsym.exact_arith import binomial, exact_div
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


def _tf_sum(n, upper):
    return sum(binomial(n + k, k) * binomial(n - k - 1, k - 1) for k in range(upper + 1))


def _odd_sum(n, upper):
    return sum(binomial(2 * n - 2 * k, n - 2 * k) * binomial(n - k - 1, k) for k in range(upper + 1))


def _even_sum(m, upper):
    return sum(binomial(2 * m + k, k) * binomial(m - 1, k - 1) for k in range(upper + 1))


def _schroeder_sum(n, upper):
    return sum(binomial(2 * n - k, n) * binomial(n - 1, k) for k in range(upper + 1))


def _motzkin_sum(n, upper):
    return sum(binomial(n + 1, k) * binomial(k, 2 * k - n - 2) for k in range(upper + 1))


class TestUpperLimitRobustness:
    """Terms past each sum's stated ceiling contribute nothing.

    For the odd, even, plain-dissection and chord sums this holds all the
    way out to k = 2n: the extra terms all hit a vanishing binomial.  The
    triangle-free sum is the exception: its extension stays zero only up
    to k = n-1, because at k = n the factor C(n-k-1, k-1) = C(-1, n-1)
    revives to (-1)^{n-1} under the generalized convention (at n = 2 the
    extended sum would flip 3 to -3).  Its ceiling still has slack: any
    off-by-one reading of ceil((n-1)/2) leaves the value unchanged.
    """

    def test_extension_to_2n_where_it_holds(self):
        for n in range(1, 60):
            assert _odd_sum(n, (n + 2) // 2) == _odd_sum(n, 2 * n)
            assert _schroeder_sum(n, n + 1) == _schroeder_sum(n, 2 * n)
            assert _motzkin_sum(n, n + 1) == _motzkin_sum(n, 2 * n)
        for m in range(1, 30):
            assert _even_sum(m, m) == _even_sum(m, 4 * m)

    def test_triangle_free_extension_to_n_minus_one(self):
        for n in range(1, 60):
            assert _tf_sum(n, n // 2) == _tf_sum(n, n - 1)

    def test_triangle_free_revives_at_k_equals_n(self):
        # pins why 2n is NOT safe for this sum
        assert _tf_sum(2, 1) == 3
        assert _tf_sum(2, 2) == -3

    def test_sums_reproduce_terms(self):
        for n in range(1, 40):
            assert triangle_free_term(n) == exact_div(_tf_sum(n, n // 2), n + 1, n)
            assert odd_term(n) == exact_div(_odd_sum(n, (n + 2) // 2), n + 1, n)
            assert schroeder_term(n) == exact_div(_schroeder_sum(n, n + 1), n + 1, n)
            assert motzkin_term(n) == exact_div(_motzkin_sum(n, n + 1), n + 1, n)
        for m in range(1, 20):
            assert even_term(2 * m) == exact_div(_even_sum(m, m), 2 * m + 1, 2 * m)
