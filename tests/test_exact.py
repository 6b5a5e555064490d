from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triflag.exact import (SymMatrix, WitnessError, format_rational,
                           ldl_factor, parse_rational, psd_check,
                           rational_reconstruct)

F = Fraction


def test_parse_format_round_trip():
    for text in ["3/7", "-12/25", "0", "4", "-9"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("24/25") == F(24, 25)
    assert format_rational(F(6, 3)) == "2"


def test_parse_rejects_garbage():
    for bad in ["", "1/2/3", "a/b", "1 /2", "1/0", "3/-2"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_symmatrix_validation():
    with pytest.raises(ValueError):
        SymMatrix([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        SymMatrix([[0, 1]])
    m = SymMatrix([[1, 2], [2, 5]])
    assert m[0, 1] == 2
    assert m.quadratic_form([1, -1]) == 1 - 4 + 5


def test_ldl_diagonal():
    fact = ldl_factor(SymMatrix([[2, 0], [0, 3]]))
    assert fact.diag == (F(2), F(3))
    assert fact.lower == ((F(1), F(0)), (F(0), F(1)))


def test_ldl_singular_psd():
    fact = ldl_factor(SymMatrix([[1, 1], [1, 1]]))
    assert fact.diag == (F(1), F(0))
    assert fact.reconstruct() == SymMatrix([[1, 1], [1, 1]])


def test_ldl_zero_pivot_nonzero_row():
    assert ldl_factor(SymMatrix([[0, 1], [1, 0]])) is None
    verdict = psd_check(SymMatrix([[0, 1], [1, 0]]))
    assert not verdict.is_psd
    assert verdict.failed_pivot == 0


def test_psd_identity_and_negative():
    assert psd_check(SymMatrix.identity(4)).is_psd
    verdict = psd_check(SymMatrix.diagonal([1, -2, 3]))
    assert not verdict.is_psd


def test_witness_recheck_raises_typed_error(monkeypatch):
    monkeypatch.setattr(SymMatrix, "quadratic_form",
                        lambda self, v: F(0))
    with pytest.raises(WitnessError):
        psd_check(SymMatrix.diagonal([5, -1]))


def test_witness_is_negative_by_direct_evaluation():
    cases = [
        SymMatrix([[0, 1], [1, 0]]),
        SymMatrix.diagonal([5, -1]),
        SymMatrix([[1, 2], [2, 1]]),
        SymMatrix([[4, 2, 0], [2, 1, 3], [0, 3, 1]]),
    ]
    for m in cases:
        verdict = psd_check(m)
        assert not verdict.is_psd
        assert m.quadratic_form(verdict.witness) < 0


@st.composite
def small_matrices(draw, n=5):
    return [[F(draw(st.integers(-4, 4))) for _ in range(n)]
            for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_gram_matrices_are_psd(rows):
    n = len(rows)
    gram = [[sum(rows[k][i] * rows[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    m = SymMatrix(gram)
    verdict = psd_check(m)
    assert verdict.is_psd
    assert verdict.factorization.reconstruct() == m


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_shifted_gram_is_not_psd(rows):
    n = len(rows)
    gram = [[sum(rows[k][i] * rows[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    # any eigenvalue is at most the max absolute row sum, so subtracting
    # one more than that from the diagonal forces a negative direction
    bound = max(sum(abs(x) for x in row) for row in gram)
    shifted = [[gram[i][j] - (bound + 1) * (i == j) for j in range(n)]
               for i in range(n)]
    m = SymMatrix(shifted)
    verdict = psd_check(m)
    assert not verdict.is_psd
    assert m.quadratic_form(verdict.witness) < 0


def test_reconstruct_examples():
    assert rational_reconstruct(0.04, 100) == F(1, 25)
    assert rational_reconstruct("0.333333", 10) == F(1, 3)
    assert rational_reconstruct("0.959999", 25) == F(24, 25)


def test_reconstruct_exact_decimal_has_no_binary_detour():
    # 0.1 is not a binary float value; string input must stay exact
    assert rational_reconstruct("0.1", 10**6) == F(1, 10)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_reconstruct_recovers_representable(p, q):
    assert rational_reconstruct(F(p, q), max_den=q) == F(p, q)


def test_reconstruct_rejects_bad_max_den():
    with pytest.raises(ValueError):
        rational_reconstruct("0.5", 0)
