"""Exact rational arithmetic helpers: symmetric matrices, LDL^T factorization,
positive-semidefiniteness certificates and bounded-denominator rounding.

Verdicts are exact, in integers and `fractions.Fraction`; no floating point
value ever decides one.  A `SymMatrix` converts its entries to integers
once, when built, and every exact step reads that form.  The PSD test is a
symmetric LDL^T elimination without pivoting: a symmetric matrix is PSD iff
elimination runs to completion with every pivot >= 0, where a zero pivot is
only legal when its entire remaining row is zero.  The elimination itself
is fraction-free (Bareiss) on an integer matrix congruent to the input, so
it keeps the inertia.  A PSD verdict's rational factors are read back from
its pivot rows; when the test fails, one back-substitution over them gives
a rational witness v with v^T M v < 0, re-checked by direct evaluation.

A float may only propose such a witness.  Before eliminating, `psd_check`
asks a float64 eigensolver for a clearly negative eigenvalue; its
eigenvector, rounded to an integer vector v, is a NotPSD verdict only when
the exact sum v^T M v is negative.  Every other case, and every PSD verdict
with its rank, comes from the elimination alone, and a PSD verdict builds
its rational factorization only when asked.  This is the "numeric solve,
exact check" pattern of Peyrl and Parrilo (2008), and it spares the
elimination's long minors on blocks that are far from PSD.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property
from numbers import Rational, Real
from typing import Sequence

import numpy as np

DEFAULT_MAX_DEN = 4 * 10**6
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"[+-]?[0-9]+")
# Python's default int-string digit limit, also used where the limit is off
# or where the interpreter has none (before 3.10.7)
_DEFAULT_DIGIT_LIMIT = 4300
# A proposed eigenvector is scaled to this largest entry and rounded.  The
# rounding moves v^T M v by at most n |M| / 4 + |v| sqrt(n) |lambda|, far
# below |v|^2 |lambda| >= 2^60 |lambda| > 256 n |M| once lambda is past the
# gate lambda < -n eps |M| of `_proposed_witness`.
_WITNESS_SCALE = 2**30
_EPS = float(np.finfo(float).eps)


class WitnessError(ArithmeticError):
    """A NotPSD witness v failed its re-check v^T M v < 0: an internal
    fault, never a verdict."""


class InexactDivisionError(ArithmeticError):
    """A step of the fraction-free elimination left a remainder: an
    internal fault, never a verdict."""


def parse_rational(token: str) -> Fraction:
    """Parse "p/q" or "p" (ASCII digits with an optional sign on p, q > 0)
    into a Fraction.  Surrounding whitespace is ignored."""
    match = _RATIONAL.fullmatch(token.strip())
    if match is None:
        raise ValueError("not a rational p/q or p: %.40r" % token)
    num, den = match.groups()
    den = 1 if den is None else int(den)
    if den == 0:
        raise ValueError("denominator must be positive: %.40r" % token)
    return Fraction(int(num), den)


def _parse_integer(token: str) -> int:
    """An ASCII decimal integer with an optional sign (int() alone also
    reads "1_0" and non-ASCII digits)."""
    if not _INTEGER.fullmatch(token):
        raise ValueError("not an integer: %.40r" % token)
    return int(token)   # ValueError beyond the int-string digit limit


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1, with
    no limit on the digits: Python's int-string digit limit is left alone."""
    x = Fraction(x)
    if x.denominator == 1:
        return _decimal_digits(x.numerator)
    return "%s/%s" % (_decimal_digits(x.numerator),
                      _decimal_digits(x.denominator))


def _decimal_digits(n: int) -> str:
    """str(n) for an int of any size.  Up to 2,000 bits, about 602 digits,
    below 640, the least int-string digit limit Python admits, it is
    str(n), the faster; above, str(Decimal(n)), which is exact and ignores
    that limit."""
    if n.bit_length() <= 2000:
        return str(n)
    return str(Decimal(n))


class SymMatrix:
    """Dense symmetric matrix of Fractions, an immutable value.  The
    constructor is the one square-and-symmetric check (naming a mismatch
    by its 1-based entry above the diagonal) and the one conversion to
    integers: `scale[i]` is the lcm of row i's denominators and
    `num[i][j] = scale[i] * rows[i][j]`."""

    __slots__ = ("dim", "rows", "scale", "num")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        data = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x)
                           for x in row) for row in rows)
        for row in data:
            if len(row) != n:
                raise ValueError("matrix is not square")
        for i in range(n):
            # a tuple comparison tries identity first, and a loaded
            # certificate shares one Fraction between equal tokens
            if data[i][:i] != tuple(row[i] for row in data[:i]):
                j = next(j for j in range(i) if data[i][j] != data[j][i])
                raise ValueError("matrix is not symmetric at (%d, %d)"
                                 % (j + 1, i + 1))
        scale = tuple(math.lcm(*(x.denominator for x in row)) for row in data)
        num = tuple(tuple(x.numerator * (s // x.denominator) for x in row)
                    for s, row in zip(scale, data))
        for name, value in zip(self.__slots__, (n, data, scale, num)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError("a SymMatrix is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "SymMatrix(%d x %d)" % (self.dim, self.dim)

    def quadratic_form(self, v: Sequence) -> Fraction:
        """v^T M v, exactly, summed in integers: with w = s v an integer
        vector, the form is sum_i w_i (sum_j num_ij w_j) / (scale_i s^2)
        over the support of w, one division per row."""
        v = [Fraction(x) for x in v]
        if len(v) != self.dim:
            raise ValueError("vector length mismatch")
        s = math.lcm(*(x.denominator for x in v))
        w = [x.numerator * (s // x.denominator) for x in v]
        support = [j for j in range(self.dim) if w[j]]
        total = Fraction(0)
        for i in support:
            row = self.num[i]
            total += Fraction(w[i] * sum(row[j] * w[j] for j in support),
                              self.scale[i])
        return total / (s * s)


def _integer_form(num: tuple, scale: tuple) -> SymMatrix:
    """The symmetric matrix with entries num[i][j] / scale[i], held by that
    integer form alone, which is all `psd_check` reads: a SymMatrix without
    its Fraction `rows`, for a caller that has built the integers itself.
    Neither symmetry nor scale[i] > 0 is checked."""
    M = object.__new__(SymMatrix)
    for name, value in (("dim", len(num)), ("num", num), ("scale", scale)):
        object.__setattr__(M, name, value)
    return M


@dataclass(frozen=True)
class LdlFactorization:
    """M = L diag(d) L^T with L unit lower-triangular."""

    lower: tuple  # tuple of tuple of Fraction
    diag: tuple   # tuple of Fraction

    def reconstruct(self) -> SymMatrix:
        n = len(self.diag)
        L, d = self.lower, self.diag
        rows = [[sum(L[i][k] * d[k] * L[j][k] for k in range(min(i, j) + 1))
                 for j in range(n)] for i in range(n)]
        return SymMatrix(rows)


@dataclass(frozen=True)
class PsdVerdict:
    """The verdict of `psd_check`.  A NotPSD verdict carries a rational
    witness v with v^T M v < 0.  A PSD verdict carries its rank and keeps
    the integer pivot rows and row scales of its elimination;
    `factorization`, M = L diag(d) L^T, is read from them on first access,
    so a verdict can always be re-checked but only a caller that asks pays
    for the rational factors."""

    is_psd: bool
    witness: tuple | None = None        # rational v with v^T M v < 0
    rank: int | None = None             # nonzero pivots, when PSD
    _pivots: tuple | None = field(default=None, repr=False)  # (A, scale, g)

    def __bool__(self):
        return self.is_psd

    @cached_property
    def factorization(self) -> LdlFactorization | None:
        if self._pivots is None:
            return None
        L, diag = _factors(*self._pivots)
        return LdlFactorization(tuple(map(tuple, L)), tuple(diag))


def _exact_quotients(values: list, den: int) -> list:
    """[x // den for x in values] for a den > 0, raising
    InexactDivisionError unless every division is exact.  Each floor
    remainder lies in [0, den), so all are zero iff their sum is."""
    quotients = [x // den for x in values]
    if sum(values) != den * sum(quotients):
        raise InexactDivisionError(
            "elimination step: a value is not a multiple of %d" % den)
    return quotients


def _eliminate(M: SymMatrix):
    """Run pivot-free symmetric elimination of M.

    Returns (A, scale, g, fail).  fail is None when the elimination ran to
    completion with every pivot >= 0, so that M is PSD; otherwise it is
    (step, kind, row) with kind in {"negative", "zero_pivot"}; for a zero
    pivot, row is an index below the pivot with a nonzero residual entry.

    The elimination is Bareiss's, on the integer matrix A = S M S / g with
    S = diag(s_i), s_i = M.scale[i], built from M's integer form as
    A_ij = M.num[i][j] s_j / g, where g is the gcd of those products, or 1
    when all are zero (one lcm for the whole matrix can have hundreds of
    digits, and dividing by g keeps the pivots' minors short).  After the
    step with pivot p, the rows below hold p times the Schur complement, so
    every division by the previous nonzero pivot p' is exact.  A zero pivot
    with a zero remaining row is skipped and leaves the matrix and p'
    alone.  Row j of the returned A, from column j on, is the pivot row of
    step j, for every step up to the failed one; `psd_check`
    back-substitutes a NotPSD witness over these rows, and `_factors` reads
    the rational factors of a PSD M from them: d_j = g p / (p' s_j^2) and
    L_ij = A_ji s_j / (p s_i).
    """
    n = M.dim
    scale = M.scale
    A = [[x * s for x, s in zip(row, scale)] for row in M.num]
    g = math.gcd(*(x for row in A for x in row)) or 1
    if g > 1:
        A = [[x // g for x in row] for row in A]
    prev = 1
    for j in range(n):
        Aj = A[j]
        piv = Aj[j]
        if piv < 0:
            return A, scale, g, (j, "negative", j)
        if piv == 0:
            for i in range(j + 1, n):
                if Aj[i]:
                    return A, scale, g, (j, "zero_pivot", i)
            continue
        for i in range(j + 1, n):
            a = Aj[i]
            Ai = A[i]
            Ai[i:] = _exact_quotients(
                [piv * x - a * y for x, y in zip(Ai[i:], Aj[i:])], prev)
        prev = piv
    return A, scale, g, None


def _factors(A, scale, g):
    """The rational (L, diag) with M = L diag(diag) L^T of a completed
    elimination, read as `_eliminate`'s docstring says; PSD verdicts only."""
    n = len(A)
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = [Fraction(0)] * n
    prev = 1
    for j in range(n):
        Aj = A[j]
        piv = Aj[j]
        if not piv:
            continue
        diag[j] = Fraction(g * piv, prev * scale[j] ** 2)
        for i in range(j + 1, n):
            if Aj[i]:
                L[i][j] = Fraction(Aj[i] * scale[j], piv * scale[i])
        prev = piv
    return L, diag


def _proposed_witness(M: SymMatrix) -> tuple | None:
    """An integer vector v with v^T M v < 0, checked exactly, proposed by
    the float64 eigenvector of a clearly negative eigenvalue; None when
    the float step proposes nothing or its proposal fails the exact check."""
    n = M.dim
    if n == 0:
        return None
    try:
        A = np.array([[x / s for x in row] for s, row in zip(M.scale, M.num)])
        w = np.linalg.eigvalsh(A)
        # Only an eigenvalue below -n eps max|eigenvalue|, past the solver's
        # own backward error, proposes a witness: the shipped blocks, PSD
        # with smallest eigenvalues near -1e-15 against a norm near 35, go
        # straight to the elimination without paying for eigenvectors.  The
        # test is also false on a non-finite value.
        if not w[0] < -n * _EPS * np.abs(w).max():
            return None
        u = np.linalg.eigh(A)[1][:, 0]
    except (OverflowError, np.linalg.LinAlgError):
        return None
    top = np.abs(u).max()
    if not (np.isfinite(u).all() and top > 0):
        return None
    v = [int(x) for x in np.rint(u / top * _WITNESS_SCALE)]
    g = math.gcd(*v)          # >= 1: the largest entry rounds to +-2^30
    v = tuple(Fraction(x // g) for x in v)
    return v if M.quadratic_form(v) < 0 else None


def psd_check(M: SymMatrix) -> PsdVerdict:
    """Exact PSD test.  NotPSD verdicts carry a rational witness vector;
    PSD verdicts their rank, and their factorization on request.

    Unless the float step proposes it, a witness v = S x comes from the
    failed elimination (step, kind, row): x[row] = 1 / s_row, at a zero pivot
    x[step] = -(g A_rr + p' s_row^2) / (2 g A_step,row s_row) with p' the last
    nonzero pivot (or 1), and x[m] = -sum_{l>m} A_ml x[l] / A_mm bottom up on
    the earlier nonzero pivots.  So (A x)_m = 0 there, and v^T M v is the
    Schur form on (v_step, v_row): negative, and -1 at a zero pivot."""
    witness = _proposed_witness(M)
    if witness is not None:
        return PsdVerdict(is_psd=False, witness=witness)
    A, scale, g, fail = _eliminate(M)
    n = M.dim
    if fail is None:
        return PsdVerdict(is_psd=True,
                          rank=sum(1 for j in range(n) if A[j][j]),
                          _pivots=(tuple(map(tuple, A)), scale, g))
    step, kind, row = fail
    prev = next((A[m][m] for m in reversed(range(step)) if A[m][m]), 1)
    c = 2 * g * A[step][row] if kind == "zero_pivot" else 1
    y = [0] * n             # prev c s_row x: integral, by Cramer's rule
    y[row] = prev * c
    if kind == "zero_pivot":
        y[step] = -prev * (g * A[row][row] + prev * scale[row] ** 2)
    for m in reversed(range(step)):
        if A[m][m]:
            y[m], = _exact_quotients(
                [-sum(A[m][l] * y[l] for l in range(m + 1, n))], A[m][m])
    v = [Fraction(s * t, prev * c * scale[row]) for s, t in zip(scale, y)]
    if not M.quadratic_form(v) < 0:
        raise WitnessError("witness for the pivot at step %d is not negative"
                           % step)
    return PsdVerdict(is_psd=False, witness=tuple(v))


def rational_reconstruct(x, max_den: int = DEFAULT_MAX_DEN) -> Fraction:
    """Best rational approximation of x with denominator <= max_den, equal
    to `Fraction.limit_denominator(max_den)` of the exact value read.

    A Fraction, int, Decimal or decimal string is read exactly, with no
    binary floating intermediate; any other real number (numpy floats of
    every width too) through the shortest repr of float(x), which keeps
    the operation deterministic.  Anything else raises TypeError.  A
    string with no "/" is read as the Decimal it denotes, and a Decimal is
    first sized by `_decided_by_exponent`, so a far exponent never builds
    its power of ten.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    if isinstance(x, float) or isinstance(x, Real) and not isinstance(
            x, Rational):
        x = Decimal(repr(float(x)))     # its exponent is within +-324
    elif isinstance(x, Rational) or isinstance(x, str) and "/" in x:
        x = Fraction(x)
    elif isinstance(x, (Decimal, str)):
        if isinstance(x, str):
            x = _as_decimal(x)
        if _decided_by_exponent(x, max_den):
            return Fraction(0)
    else:
        raise TypeError("not a real number: %s" % type(x).__name__)
    n, den = x.as_integer_ratio()
    if den <= max_den:
        return Fraction(n, den)
    # n/den is in lowest terms: q2 = den > max_den stops it before r = 0
    p0, q0, p1, q1, d = 0, 1, 1, 0, den
    a, r = divmod(n, d)
    while (q2 := q0 + a * q1) <= max_den:
        p0, p1, q0, q1 = p1, p0 + a * p1, q1, q2
        n, d = d, r
        a, r = divmod(n, d)
    k = (max_den - q0) // q1
    # p1/q1 is at distance d/(q1 den) from x; it wins, ties too, within
    # half the 1/(q1 (q0 + k q1)) between it and the semiconvergent
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def _decided_by_exponent(x: Decimal, max_den: int) -> bool:
    """A Decimal sized from its exponent and digit count alone: True when
    it is zero or below 1/(2 max_den) in size, so that its best
    approximation is 0; a ValueError when its integer ratio needs a
    numerator of more digits than Python's int-string digit limit, since
    reading its digits into an int is quadratic in their count; False
    otherwise, where reading x exactly is linear in its digits and in
    max_den's."""
    if not x.is_finite():
        return False                    # as_integer_ratio says why
    _, digits, exponent = x.as_tuple()
    if not any(digits):
        return True
    top = len(digits) + exponent        # 10^(top - 1) <= |x| < 10^top
    # 10^-top <= 2^-(bits + 1) < 1 / (2 max_den) once 3 (-top) > bits
    if -3 * top > max_den.bit_length():
        return True
    limit = (getattr(sys, "get_int_max_str_digits", lambda: 0)()
             or _DEFAULT_DIGIT_LIMIT)
    size = max(top, len(digits))        # the digits of the numerator
    if size > limit:
        raise ValueError("a decimal of %d digits exceeds the limit of %d"
                         % (size, limit))
    return False


def _as_decimal(text: str) -> Decimal:
    """A decimal string as the finite Decimal it denotes, read exactly, or
    a ValueError.  Beyond the strings Fraction also refuses, Decimal
    refuses only exponents past +-10^18, whose power of ten Fraction would
    try to build."""
    try:
        x = Decimal(text)
    except InvalidOperation:
        x = None
    if x is None or not x.is_finite():
        raise ValueError("invalid literal for a decimal: %r" % text)
    return x
