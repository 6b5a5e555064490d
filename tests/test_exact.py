from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triflag import exact
from triflag.exact import (InexactDivisionError, SymMatrix, WitnessError,
                           format_rational, parse_rational,
                           psd_check, rational_reconstruct)

F = Fraction


def fraction_eliminate(M: SymMatrix):
    """Oracle: pivot-free symmetric elimination done in Fractions, with the
    (L, diag, fail) result of `exact._eliminate`."""
    n = M.dim
    A = [list(row) for row in M.rows]
    L = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    diag = [F(0)] * n
    for j in range(n):
        piv = A[j][j]
        diag[j] = piv
        if piv < 0:
            return L, diag, (j, "negative", j)
        if piv == 0:
            for i in range(j + 1, n):
                if A[i][j] != 0:
                    return L, diag, (j, "zero_pivot", i)
            continue  # zero pivot with zero residual row: skip elimination
        for i in range(j + 1, n):
            L[i][j] = A[i][j] / piv
        Aj = A[j]
        for i in range(j + 1, n):
            lij = L[i][j]
            if lij == 0:
                continue
            Ai = A[i]
            for k in range(j + 1, n):
                if Aj[k]:
                    Ai[k] -= lij * Aj[k]
    return L, diag, None


def test_parse_format_round_trip():
    for text in ["3/7", "-12/25", "0", "4", "-9"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("24/25") == F(24, 25)
    assert format_rational(F(6, 3)) == "2"


def test_parse_rejects_garbage():
    # int() alone would take "1_0" as 10 and read full-width and
    # Arabic-Indic digits
    for bad in ["", "1/2/3", "a/b", "1 /2", "1/0", "3/-2", "1_0", "1/2_0",
                "\uff19", "\u0663", "3/\u0663", "0x10", "1e3", "2.5"]:
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
    fact = psd_check(SymMatrix([[2, 0], [0, 3]])).factorization
    assert fact.diag == (F(2), F(3))
    assert fact.lower == ((F(1), F(0)), (F(0), F(1)))


def test_ldl_singular_psd():
    fact = psd_check(SymMatrix([[1, 1], [1, 1]])).factorization
    assert fact.diag == (F(1), F(0))
    assert fact.reconstruct() == SymMatrix([[1, 1], [1, 1]])


def test_ldl_zero_pivot_nonzero_row():
    verdict = psd_check(SymMatrix([[0, 1], [1, 0]]))
    assert not verdict.is_psd
    assert verdict.factorization is None
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


def _product(L, D, n):
    """L diag(D) L^T for a unit lower-triangular L."""
    return [[sum(L[i][k] * D[k] * L[j][k] for k in range(n))
             for j in range(n)] for i in range(n)]


@st.composite
def rational_symmetric(draw, max_n=6):
    """Symmetric rational matrices of four kinds: rank-deficient B B^T,
    L D L^T with pivots of either sign or zero, L D L^T with a zero pivot
    whose remaining row is nonzero, and unstructured (mostly indefinite).
    Denominators go up to 1, 7 or 1000."""
    n = draw(st.integers(1, max_n))
    den = draw(st.sampled_from([1, 7, 1000]))
    rat = st.builds(F, st.integers(-20, 20), st.integers(1, den))
    kind = draw(st.sampled_from(["gram", "ldl", "zero_pivot", "symmetric"]))
    if kind == "symmetric":
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = draw(rat)
        return rows
    if kind == "gram":
        r = draw(st.integers(0, n))
        B = [[draw(rat) for _ in range(r)] for _ in range(n)]
        return [[sum(B[i][k] * B[j][k] for k in range(r)) for j in range(n)]
                for i in range(n)]
    L = [[draw(rat) if j < i else F(int(i == j)) for j in range(n)]
         for i in range(n)]
    if kind == "ldl":
        return _product(L, [draw(rat) for _ in range(n)], n)
    # zero pivot at p, with entry c at (p, q) of the Schur complement
    D = [abs(draw(rat)) for _ in range(n)]
    p = draw(st.integers(0, n - 1))
    D[p] = F(0)
    rows = _product(L, D, n)
    if p + 1 < n:
        q = draw(st.integers(p + 1, n - 1))
        c = draw(rat.filter(bool))
        E = [[c * ((a, b) in ((p, q), (q, p))) for b in range(n)]
             for a in range(n)]
        LE = [[sum(L[a][k] * E[k][b] for k in range(n)) for b in range(n)]
              for a in range(n)]
        for a in range(n):
            for b in range(n):
                rows[a][b] += sum(LE[a][k] * L[b][k] for k in range(n))
    return rows


@settings(max_examples=300, deadline=None)
@given(rational_symmetric())
def test_integer_elimination_matches_fraction_oracle(rows):
    m = SymMatrix(rows)
    L, diag, fail = fraction_eliminate(m)
    assert exact._eliminate(m) == (L, diag, fail)
    verdict = psd_check(m)
    assert verdict.is_psd == (fail is None)
    if fail is None:
        assert verdict.factorization.lower == tuple(map(tuple, L))
        assert verdict.factorization.diag == tuple(diag)
        assert verdict.rank == sum(1 for d in diag if d)
        assert verdict.factorization.reconstruct() == m
    else:
        assert verdict.failed_pivot == fail[0]
        assert verdict.rank is None
        assert m.quadratic_form(verdict.witness) < 0


@settings(max_examples=25, deadline=None)
@given(rational_symmetric(max_n=4))
def test_psd_verdict_agrees_with_sympy(rows):
    sympy = pytest.importorskip("sympy")
    assert psd_check(SymMatrix(rows)).is_psd == \
        sympy.Matrix(rows).is_positive_semidefinite


def test_psd_rank():
    assert psd_check(SymMatrix.identity(4)).rank == 4
    assert psd_check(SymMatrix([[1, 1], [1, 1]])).rank == 1
    assert psd_check(SymMatrix.diagonal([0, 0, 0])).rank == 0
    assert psd_check(SymMatrix.diagonal([1, -1])).rank is None


def test_exact_quotients_check_every_remainder():
    assert exact._exact_quotients([4, -6, 0], 2) == [2, -3, 0]
    for values in ([3, 4], [-7, 7], [-7, 1]):
        with pytest.raises(InexactDivisionError):
            exact._exact_quotients(values, 2)


def test_inexact_division_raises_typed_error(monkeypatch):
    quotients = exact._exact_quotients

    def off_by_one(values, den):
        return quotients([x + (den > 1) for x in values], den)

    monkeypatch.setattr(exact, "_exact_quotients", off_by_one)
    assert issubclass(InexactDivisionError, ArithmeticError)
    with pytest.raises(InexactDivisionError):
        psd_check(SymMatrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))


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
