import math
import random
import sys
import time
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from triflag import exact, round_solution
from triflag.certificate import (Certificate, lambda_vector,
                                 load_shipped_certificate)
from triflag.exact import (InexactDivisionError, SymMatrix, WitnessError,
                           format_rational, parse_rational,
                           psd_check, rational_reconstruct)

F = Fraction


def fraction_eliminate(M: SymMatrix):
    """Oracle: pivot-free symmetric elimination done in Fractions, giving
    (L, diag, fail).  After a completed elimination (L, diag) is what
    `exact._factors` reads from `exact._eliminate`; after a failed step L is
    filled up to that step, for `pullback_witness`."""
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


def pullback_witness(M: SymMatrix, L, fail) -> tuple:
    """Reference NotPSD witness, pulled back through the partial L of
    `fraction_eliminate`: v = L^-T e_step at a negative pivot; at a zero
    pivot the mix x L^-T e_step + L^-T e_row on which the form is -1."""
    n = M.dim
    step, kind, row = fail

    def pullback(i):
        v = [F(0)] * n
        for k in range(n - 1, -1, -1):
            v[k] = F(int(k == i)) - sum(L[m][k] * v[m]
                                        for m in range(k + 1, n) if L[m][k])
        return v

    e_j = pullback(step)
    if kind == "negative":
        return tuple(e_j)
    e_i = pullback(row)
    r = sum(e_i[a] * sum(M.rows[a][b] * e_j[b] for b in range(n))
            for a in range(n))
    x = -(fraction_quadratic_form(M, e_i) + 1) / (2 * r)
    return tuple(x * a + b for a, b in zip(e_j, e_i))


def fraction_quadratic_form(M: SymMatrix, v) -> Fraction:
    """Oracle: v^T M v summed term by term in Fractions."""
    v = [F(x) for x in v]
    total = F(0)
    for i, row in enumerate(M.rows):
        if v[i] == 0:
            continue
        total += v[i] * sum(row[j] * v[j] for j in range(M.dim) if v[j])
    return total


def identity(n: int) -> SymMatrix:
    return diagonal([1] * n)


def diagonal(diag) -> SymMatrix:
    n = len(diag)
    return SymMatrix([[diag[i] if i == j else 0 for j in range(n)]
                      for i in range(n)])


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
    assert m.rows[0][1] == 2
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
    m = SymMatrix([[0, 1], [1, 0]])
    verdict = psd_check(m)
    assert not verdict.is_psd
    assert verdict.factorization is None
    assert exact._eliminate(m)[3] == (0, "zero_pivot", 1)


def test_psd_identity_and_negative():
    assert psd_check(identity(4)).is_psd
    verdict = psd_check(diagonal([1, -2, 3]))
    assert not verdict.is_psd


def test_witness_recheck_raises_typed_error(monkeypatch):
    monkeypatch.setattr(SymMatrix, "quadratic_form",
                        lambda self, v: F(0))
    with pytest.raises(WitnessError):
        psd_check(diagonal([5, -1]))


def test_witness_is_negative_by_direct_evaluation():
    cases = [
        SymMatrix([[0, 1], [1, 0]]),
        diagonal([5, -1]),
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


def eliminate_spy():
    """`exact._eliminate`, wrapped so a test can count its calls."""
    return mock.patch.object(exact, "_eliminate", wraps=exact._eliminate)


def factors_spy():
    """`exact._factors`, wrapped so a test can count its calls."""
    return mock.patch.object(exact, "_factors", wraps=exact._factors)


def no_float_step():
    """`exact._proposed_witness` refused: every verdict is eliminated."""
    return mock.patch.object(exact, "_proposed_witness", return_value=None)


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_gram_matrices_are_psd(rows):
    n = len(rows)
    gram = [[sum(rows[k][i] * rows[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    m = SymMatrix(gram)
    with eliminate_spy() as spy:
        verdict = psd_check(m)
    assert spy.call_count == 1
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
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.builds(F, st.integers(-50, 50),
                                st.sampled_from([1, 2, 7, 1000, 10**12 + 39])),
                      min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 60))
             | st.just(F(0)), min_size=n, max_size=n))))
def test_quadratic_form_matches_fraction_oracle(case):
    square, v = case
    n = len(v)
    rows = [[square[max(i, j)][min(i, j)] for j in range(n)]
            for i in range(n)]
    m = SymMatrix(rows)
    got = m.quadratic_form(v)
    assert isinstance(got, Fraction)
    assert got == fraction_quadratic_form(m, v)


@settings(max_examples=300, deadline=None)
@given(rational_symmetric())
def test_integer_elimination_matches_fraction_oracle(rows):
    assert_elimination_matches_fraction_oracle(SymMatrix(rows))


@settings(max_examples=150, deadline=None)
@given(rational_symmetric(),
       st.sampled_from([1009, 10**9 + 7, 2**61 - 1, 2**89 - 1]))
def test_a_common_factor_is_divided_out_against_fraction_oracle(rows,
                                                                factor):
    # factor is a prime above 1000, so prime to every denominator drawn:
    # each entry of S M S keeps it, and the elimination runs on
    # S M S / g with g a multiple of it
    m = SymMatrix([[x * factor for x in row] for row in rows])
    g = exact._eliminate(m)[2]
    if any(any(row) for row in rows):
        assert g % factor == 0
    else:
        assert g == 1
    assert_elimination_matches_fraction_oracle(m)


def assert_elimination_matches_fraction_oracle(m):
    L, diag, fail = fraction_eliminate(m)
    A, scale, g, int_fail = exact._eliminate(m)
    assert int_fail == fail
    verdict = psd_check(m)
    assert verdict.is_psd == (fail is None)
    if fail is None:
        assert exact._factors(A, scale, g) == (L, diag)
        assert verdict.factorization.lower == tuple(map(tuple, L))
        assert verdict.factorization.diag == tuple(diag)
        assert verdict.rank == sum(1 for d in diag if d)
        assert verdict.factorization.reconstruct() == m
        return
    assert verdict.rank is None
    assert m.quadratic_form(verdict.witness) < 0
    # the elimination's own witness: the pullback through the rational L,
    # back-substituted over the integer pivot rows with no factors built
    with no_float_step(), factors_spy() as spy:
        verdict = psd_check(m)
    assert not verdict.is_psd and verdict.rank is None
    assert verdict.witness == pullback_witness(m, L, fail)
    assert fraction_quadratic_form(m, verdict.witness) < 0
    assert spy.call_count == 0


def low_rank_gram(digits, rank=3, n=27, seed=7):
    """V V^T for an n x rank V of random Fractions whose numerators and
    denominators have `digits` digits."""
    rng = random.Random(seed)
    lo, hi = 10**(digits - 1), 10**digits - 1
    V = [[F(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))
          for _ in range(rank)] for _ in range(n)]
    return SymMatrix([[sum(a * b for a, b in zip(V[i], V[j]))
                       for j in range(n)] for i in range(n)])


def test_a_digit_heavy_gram_block_is_eliminated_quickly():
    # entry denominators of about 300 digits and row lcms of about 4,000:
    # the elimination's cost follows the gcd-reduced form, not the lcms
    m = low_rank_gram(50)
    start = time.process_time()
    verdict = psd_check(m)
    assert time.process_time() - start < 1
    assert verdict.is_psd and verdict.rank == 3
    assert fraction_eliminate(m)[2] is None


@settings(max_examples=200, deadline=None)
@given(rational_symmetric())
def test_integer_form_is_the_rows_over_their_row_scales(rows):
    m = SymMatrix(rows)
    for i in range(m.dim):
        assert m.scale[i] == math.lcm(*(x.denominator for x in m.rows[i]))
        for j in range(m.dim):
            assert type(m.num[i][j]) is int
            assert F(m.num[i][j], m.scale[i]) == m.rows[i][j]


@pytest.mark.parametrize("name", ["rows", "dim", "scale", "num"])
def test_symmatrix_is_immutable(name):
    for m in (SymMatrix([[1, F(1, 2)], [F(1, 2), 5]]),
              load_shipped_certificate().blocks[0].Q):
        before = getattr(m, name)
        with pytest.raises(AttributeError):
            setattr(m, name, before)
        with pytest.raises(AttributeError):
            delattr(m, name)
        assert getattr(m, name) is before
    with pytest.raises(AttributeError):
        m.extra = 1


def form_only(m: SymMatrix) -> SymMatrix:
    """A copy of m without its Fraction rows: reading `rows` raises."""
    bare = object.__new__(SymMatrix)
    for name in ("dim", "scale", "num"):
        object.__setattr__(bare, name, getattr(m, name))
    return bare


def test_exact_steps_read_only_the_integer_form(shipped_cert, shipped_table):
    negated = SymMatrix([[-x for x in row]
                         for row in shipped_cert.blocks[1].Q.rows])
    v = [F(i - 13, i + 1) for i in range(27)]
    for m in (*(b.Q for b in shipped_cert.blocks), negated):
        bare = form_only(m)
        with pytest.raises(AttributeError):
            bare.rows
        assert exact._eliminate(bare) == exact._eliminate(m)
        assert exact._proposed_witness(bare) == exact._proposed_witness(m)
        assert bare.quadratic_form(v) == fraction_quadratic_form(m, v)
    assert exact._proposed_witness(negated) is not None
    # an elimination witness, at a zero and at a negative pivot
    with no_float_step():
        for m in (SymMatrix([[0, 1], [1, 0]]), SymMatrix([[1, 2], [2, 1]]),
                  negated):
            verdict = psd_check(m)
            assert not verdict.is_psd
            assert psd_check(form_only(m)) == verdict
    bare_cert = Certificate(shipped_cert.bound, tuple(
        replace(b, Q=form_only(b.Q)) for b in shipped_cert.blocks))
    assert (lambda_vector(bare_cert, shipped_table)
            == lambda_vector(shipped_cert, shipped_table))


def test_factors_are_built_only_on_request(shipped_cert):
    from triflag.certificate import verify
    with mock.patch.object(exact, "LdlFactorization",
                           wraps=exact.LdlFactorization) as built:
        assert verify(shipped_cert).verified
        assert built.call_count == 0
        m = shipped_cert.blocks[1].Q
        verdict = psd_check(m)
        assert built.call_count == 0
        fact = verdict.factorization
        assert verdict.factorization is fact
        assert built.call_count == 1
    L, diag, fail = fraction_eliminate(m)
    assert fail is None
    assert fact.lower == tuple(map(tuple, L))
    assert fact.diag == tuple(diag)
    assert fact.reconstruct() == m


@settings(max_examples=300, deadline=None)
@given(rational_symmetric(max_n=8))
def test_proposed_witness_agrees_with_fraction_oracle(rows):
    # a NotPSD verdict given without elimination must be one the oracle
    # gives too, with a witness that checks by direct evaluation
    m = SymMatrix(rows)
    with eliminate_spy() as spy:
        verdict = psd_check(m)
    if spy.call_count == 0:
        assert not verdict.is_psd
        assert fraction_eliminate(m)[2] is not None
        assert m.quadratic_form(verdict.witness) < 0


class Eliminated(Exception):
    pass


def _refuse_elimination(M):
    raise Eliminated


def test_coarse_rounded_blocks_fail_without_elimination(shipped_cert,
                                                        monkeypatch):
    # rounding the shipped blocks to denominators <= 1000 leaves seven of
    # them NotPSD, far enough from PSD for the float step to find each
    # witness; the three blocks that stay PSD must still be eliminated
    floats = [[[float(x) for x in row] for row in b.Q.rows]
              for b in shipped_cert.blocks]
    coarse = round_solution(floats, max_den=1000)
    monkeypatch.setattr(exact, "_eliminate", _refuse_elimination)
    failed = []
    for r, block in enumerate(coarse.blocks, start=1):
        try:
            verdict = psd_check(block.Q)
        except Eliminated:
            continue
        assert not verdict.is_psd
        assert block.Q.quadratic_form(verdict.witness) < 0
        failed.append(r)
    assert failed == [2, 3, 4, 5, 6, 8, 9]


def test_shipped_blocks_go_to_elimination(shipped_cert, monkeypatch):
    # their smallest float eigenvalues lie within rounding error of zero,
    # so no witness is proposed and no exact form is evaluated
    def refuse(self, v):
        raise AssertionError("evaluated a proposed witness")

    monkeypatch.setattr(SymMatrix, "quadratic_form", refuse)
    for block in shipped_cert.blocks:
        with eliminate_spy() as spy:
            verdict = psd_check(block.Q)
        assert spy.call_count == 1
        assert verdict.is_psd


@pytest.mark.parametrize("diag", [[10**400, -1], [10**400, 1], [-10**400, 2]])
def test_entry_beyond_float_range_gets_the_elimination_verdict(diag):
    m = SymMatrix([[diag[0], 1], [1, diag[1]]])
    with eliminate_spy() as spy:
        verdict = psd_check(m)
    fail = fraction_eliminate(m)[2]
    assert verdict.is_psd == (fail is None)
    if fail is not None:
        assert m.quadratic_form(verdict.witness) < 0
    assert spy.call_count == 1


_EIGH = np.linalg.eigh


def _raising(a):
    raise np.linalg.LinAlgError("did not converge")


def _nan_values(a):
    return np.full(len(a), np.nan)


def _nan_vectors(a):
    w, V = _EIGH(a)
    return w, np.full_like(V, np.nan)


def _inf_vectors(a):
    w, V = _EIGH(a)
    V = V.copy()
    V[0] = np.inf
    return w, V


def _wrong_vectors(a):
    # the smallest eigenvalue's vector swapped for the largest one's
    w, V = _EIGH(a)
    return w, V[:, ::-1]


@pytest.mark.parametrize("name, fake", [
    ("eigvalsh", _raising), ("eigvalsh", _nan_values), ("eigh", _raising),
    ("eigh", _nan_vectors), ("eigh", _inf_vectors),
    ("eigh", _wrong_vectors)])
def test_failed_float_step_gets_the_elimination_verdict(name, fake,
                                                        monkeypatch):
    cases = [diagonal([5, -1]),
             SymMatrix([[4, 2, 0], [2, 1, 3], [0, 3, 1]]),
             SymMatrix([[2, 1], [1, 2]])]
    expected = [psd_check(m) for m in cases]
    monkeypatch.setattr(np.linalg, name, fake)
    for m, want in zip(cases, expected):
        with eliminate_spy() as spy:
            verdict = psd_check(m)
        assert spy.call_count == 1
        assert verdict.is_psd == want.is_psd
        if not verdict.is_psd:
            assert m.quadratic_form(verdict.witness) < 0


@settings(max_examples=25, deadline=None)
@given(rational_symmetric(max_n=4))
def test_psd_verdict_agrees_with_sympy(rows):
    sympy = pytest.importorskip("sympy")
    assert psd_check(SymMatrix(rows)).is_psd == \
        sympy.Matrix(rows).is_positive_semidefinite


def test_psd_rank():
    assert psd_check(identity(4)).rank == 4
    assert psd_check(SymMatrix([[1, 1], [1, 1]])).rank == 1
    assert psd_check(diagonal([0, 0, 0])).rank == 0
    assert psd_check(diagonal([1, -1])).rank is None


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
    assert rational_reconstruct(0.333333, 10) == F(1, 3)
    assert rational_reconstruct(0.959999, 25) == F(24, 25)


def test_reconstruct_takes_numpy_floats_as_floats():
    # under numpy 2 the repr of np.float64(0.1) is "np.float64(0.1)"
    assert rational_reconstruct(np.float64(0.1)) == F(1, 10)
    assert rational_reconstruct(np.float64(0.04), 100) == F(1, 25)
    # narrower numpy floats go through float(), float32(0.1) to
    # 0.10000000149011612
    assert rational_reconstruct(np.float32(0.5)) == F(1, 2)
    assert rational_reconstruct(np.float16(-0.25)) == F(-1, 4)
    assert rational_reconstruct(np.float32(0.1), 10**9) == F(
        "0.10000000149011612").limit_denominator(10**9) != F(1, 10)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_reconstruct_recovers_representable(p, q):
    assert rational_reconstruct(F(p, q), max_den=q) == F(p, q)


def test_reconstruct_rejects_bad_max_den():
    with pytest.raises(ValueError):
        rational_reconstruct(0.5, 0)


def limit_denominator_oracle(x, max_den):
    """The stdlib's best approximation of the exact value that
    `rational_reconstruct` reads: a float's shortest repr, else x."""
    if isinstance(x, (float, np.floating)):
        x = repr(float(x))
    return Fraction(x).limit_denominator(max_den)


MAX_DENS = st.one_of(st.integers(1, 60), st.integers(1, 10**12))
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, -0.04, -1 / 3]


@seed(25)
@settings(max_examples=600, deadline=None)
@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.fractions(max_denominator=10**15), st.integers(-10**20, 10**20)),
    MAX_DENS)
def test_reconstruct_equals_limit_denominator(x, max_den):
    assert rational_reconstruct(x, max_den) == limit_denominator_oracle(
        x, max_den)


@st.composite
def farey_midpoints(draw):
    """(max_den, a/b, c/e, their midpoint) for a/b and its right neighbour
    c/e among the fractions with denominator <= max_den: the midpoint is
    as close to one as to the other, a tie for the rounding rule."""
    max_den = draw(MAX_DENS)
    b = draw(st.integers(1, max_den))
    a = draw(st.integers(-3 * b, 3 * b))
    g = math.gcd(a, b)
    a, b = a // g, b // g
    e = max_den if b == 1 else -pow(a, -1, b) % b
    e += (max_den - e) // b * b          # the largest e <= max_den
    c = (a * e + 1) // b                 # b c - a e = 1
    return max_den, F(a, b), F(c, e), (F(a, b) + F(c, e)) / 2


@seed(25)
@settings(max_examples=600, deadline=None)
@given(farey_midpoints())
def test_reconstruct_breaks_ties_as_limit_denominator(case):
    max_den, low, high, mid = case
    assert mid - low == high - mid > 0
    got = rational_reconstruct(mid, max_den)
    assert got in (low, high)
    assert got == limit_denominator_oracle(mid, max_den)


@pytest.mark.parametrize("value", [None, 1j, np.complex128(1), [0.5], "0.5",
                                   Decimal("0.5")])
def test_reconstruct_rejects_what_is_not_a_real_number(value):
    with pytest.raises(TypeError, match="^not a real number: "):
        rational_reconstruct(value)


def reference_digits(n):
    """Decimal digits of n >= 0 read off 100 at a time."""
    chunks = []
    while n:
        n, low = divmod(n, 10**100)
        chunks.append("%0100d" % low)
    return "".join(reversed(chunks)).lstrip("0") or "0"


def reference_text(x):
    """x as format_rational prints it, from `reference_digits`."""
    text = reference_digits(abs(x.numerator))
    if x.denominator != 1:
        text += "/" + reference_digits(x.denominator)
    return ("-" if x < 0 else "") + text


@pytest.mark.parametrize("x", [F(10**5000 + 1, 3), F(-(10**5000 + 1), 3),
                               F(7, 10**9000 + 3), F(-(10**20000) - 9),
                               F(3**9000, 2**20000)])
def test_format_rational_prints_beyond_the_int_digit_limit(x):
    # the int-string digit limit came with Python 3.10.7
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert format_rational(x) == reference_text(x)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-string digit limit before Python 3.10.7")
@pytest.mark.parametrize("x", [F(10**640 + 1, 10**640 - 1),
                               F(-(10**640 - 1), 10**640 + 1)]
                         + [F(2**bits - 1, 2**bits + 1) for bits in (
                             1990, 1999, 2000, 2001, 2060, 2125, 2126, 2130)],
                         ids=lambda x: "%s%d/%d-bits" % (
                             "-" if x < 0 else "", x.numerator.bit_length(),
                             x.denominator.bit_length()))
def test_format_rational_prints_across_its_switch_at_the_least_limit(x):
    # 640 digits, the least limit Python admits, is about 2,126 bits: str()
    # up to the switch at 2,000 bits stays below it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert format_rational(x) == reference_text(x)
    finally:
        sys.set_int_max_str_digits(limit)

