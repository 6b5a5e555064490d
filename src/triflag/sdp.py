"""Bridge to external semidefinite-programming solvers.

The exact verification problem "find PSD matrices Q^1..Q^10 with
lambda_k >= 0 for all 792 five-vertex models" is exported as a sparse
problem file in the widely used SDP interchange format, at the fixed
target bound of 1/25.  The file encodes the feasibility problem

    <F_k, X> = p(mono K3, M_k) - 1/25   for every model M_k,
    X = diag(Q^1, ..., Q^10, lambda) PSD,

with F_k = diag(A[1][k], ..., A[10][k], E_kk), so a solver's matrix
solution reads off the ten blocks plus the slack vector directly, in
the shipped certificate's types and flag orders.  No solver is embedded;
solutions come back through a text file, are rounded entrywise to
bounded-denominator rationals in that same layout, and re-enter the
ordinary certificate verification path with no shortcut.

Coefficients are emitted as decimal expansions of the exact rationals to
40 significant digits.  Model order is the canonical enumeration order,
identical to the coefficient table's.
"""

from __future__ import annotations

import decimal
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .certificate import (NUM_FLAGS, Certificate, CertificateBlock,
                          coefficient_table, load_shipped_certificate,
                          model_data)
from .exact import (DEFAULT_MAX_DEN, SymMatrix, _parse_integer,
                    rational_reconstruct)

NUM_MODELS = 792
NUM_BLOCKS = 11          # ten flag blocks + one diagonal slack block
SIG_DIGITS = 40
# Largest decimal exponent in a problem file, as CPython's int digit limit:
# 1e999999999 would otherwise build a billion-digit integer.
_MAX_EXPONENT = 4300
# A value as export_sdp writes it ("-0.0125", "1") or as solvers do
# ("1.5e-07"): ASCII digits only, where float() and Decimal also read
# "1_0", non-ASCII digits, "inf" and "nan".
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

TARGET_BOUND = Fraction(1, 25)


class SdpFormatError(ValueError):
    """Malformed problem or solution file."""


@dataclass
class SdpProblem:
    """Structural view of an exported problem file."""

    m: int
    block_sizes: tuple
    rhs: tuple                 # exact Fractions of the written decimals
    entries: dict              # (matno, blkno, i, j) -> Fraction


def _decimal_str(x: Fraction) -> str:
    ctx = decimal.Context(prec=SIG_DIGITS)
    d = ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    return format(d, "f")


def export_sdp(path) -> None:
    """Write the sparse problem file for the fixed-bound feasibility SDP,
    in the shipped certificate's layout, the one `round_solution` reads.

    Deterministic: models in canonical enumeration order, blocks 1..10,
    upper-triangle entries in index order, slack entries last.
    """
    table = coefficient_table(load_shipped_certificate())
    lines = ['"feasibility SDP: ten 27-blocks plus diagonal slack, bound 1/25']
    lines.append(str(NUM_MODELS))
    lines.append(str(NUM_BLOCKS))
    lines.append(" ".join([str(NUM_FLAGS)] * 10 + [str(-NUM_MODELS)]))
    mono = model_data().mono
    lines.append(" ".join(_decimal_str(Fraction(mono[key], 10) - TARGET_BOUND)
                          for key in table.model_keys))
    blocks = [(c.start.tolist(), c.pair.tolist(), c.count.tolist())
              for c in table.counts]
    for k in range(1, NUM_MODELS + 1):
        for r, (start, pair, count) in enumerate(blocks, start=1):
            for t in range(start[k - 1], start[k]):
                i, j = divmod(pair[t], NUM_FLAGS)
                if i <= j:
                    lines.append("%d %d %d %d %s" % (
                        k, r, i + 1, j + 1,
                        _decimal_str(Fraction(count[t], 120))))
        lines.append("%d %d %d %d 1" % (k, NUM_BLOCKS, k, k))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _integer(token: str, ln: int) -> int:
    try:
        return _parse_integer(token)
    except ValueError as exc:
        raise SdpFormatError("line %d: %s" % (ln, exc)) from exc


def _decimal(token: str, ln: int) -> str:
    if not _DECIMAL.fullmatch(token):
        raise SdpFormatError("line %d: non-finite value or not an ASCII "
                             "decimal: %.40r" % (ln, token))
    return token


def _decimal_fraction(token: str, ln: int) -> Fraction:
    """The exact value of a decimal token with a bounded exponent."""
    try:
        d = decimal.Decimal(_decimal(token, ln))
    except decimal.InvalidOperation as exc:    # exponent beyond Decimal's
        raise SdpFormatError("line %d: exponent out of range: %.40r"
                             % (ln, token)) from exc
    if abs(d.adjusted()) > _MAX_EXPONENT:
        raise SdpFormatError("line %d: exponent beyond %d: %.40r"
                             % (ln, _MAX_EXPONENT, token))
    return Fraction(d)


def parse_sdp(path) -> SdpProblem:
    """Re-read an exported problem file; used for round-trip checks."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw)
             if ln.strip() and not ln.lstrip().startswith(('"', "*"))]
    if len(lines) < 4:
        raise SdpFormatError("problem file too short")
    (ln_m, m), (ln_n, nblocks), (ln_s, sizes), (ln_r, rhs) = lines[:4]
    m = _integer(m, ln_m)
    nblocks = _integer(nblocks, ln_n)
    sizes = tuple(_integer(t, ln_s) for t in sizes.split())
    rhs = tuple(_decimal_fraction(t, ln_r) for t in rhs.split())
    if len(sizes) != nblocks:
        raise SdpFormatError("block size count does not match nblocks")
    if len(rhs) != m:
        raise SdpFormatError("right-hand side has %d entries, expected %d"
                             % (len(rhs), m))
    entries = {}
    for ln, text in lines[4:]:
        toks = text.split()
        if len(toks) != 5:
            raise SdpFormatError("line %d: expected 5 fields" % ln)
        matno, blkno, i, j = (_integer(t, ln) for t in toks[:4])
        entries[matno, blkno, i, j] = _decimal_fraction(toks[4], ln)
    return SdpProblem(m, sizes, rhs, entries)


def parse_solution(path) -> list:
    """Parse a solver solution file into ten symmetric 27x27 float blocks.

    Expected layout: one line with the m dual values, then entry lines
    "matno blkno i j value" where matno 2 carries the matrix solution
    (matno 1, the slack matrix, is ignored); the dual values and the
    slack block are checked, not kept.  A repeated entry keeps its last
    value.  An off-diagonal entry given in both triangles takes the float
    average of the two, one given in a single triangle is mirrored.
    """
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise SdpFormatError("empty solution file")
    ln, first = lines[0]
    y = [float(_decimal(t, ln)) for t in first.split()]
    if not all(map(math.isfinite, y)):
        raise SdpFormatError("line %d: non-finite value in dual vector" % ln)
    if len(y) != NUM_MODELS:
        raise SdpFormatError("line %d: dual vector has %d entries, expected %d"
                             % (ln, len(y), NUM_MODELS))
    cells: dict = {}
    seen_matrix = False
    for ln, text in lines[1:]:
        toks = text.split()
        if len(toks) != 5:
            raise SdpFormatError("line %d: expected 'matno blkno i j value'"
                                 % ln)
        matno, blkno, i, j = (_integer(t, ln) for t in toks[:4])
        val = float(_decimal(toks[4], ln))
        if not math.isfinite(val):        # overflow like 1e400
            raise SdpFormatError("line %d: non-finite value %.40r"
                                 % (ln, toks[4]))
        if matno == 1:
            continue
        if matno != 2:
            raise SdpFormatError("line %d: unknown matrix number %d"
                                 % (ln, matno))
        seen_matrix = True
        if 1 <= blkno <= 10:
            if not (1 <= i <= NUM_FLAGS and 1 <= j <= NUM_FLAGS):
                raise SdpFormatError("line %d: index out of range for a %dx%d "
                                     "block" % (ln, NUM_FLAGS, NUM_FLAGS))
            cells[blkno - 1, i - 1, j - 1] = val
        elif blkno != NUM_BLOCKS:
            raise SdpFormatError("line %d: block number %d out of range"
                                 % (ln, blkno))
        elif i != j or not 1 <= i <= NUM_MODELS:
            raise SdpFormatError("line %d: slack block is diagonal of "
                                 "size %d" % (ln, NUM_MODELS))
    if not seen_matrix:
        raise SdpFormatError("no matrix entries (matno 2) in solution file")
    blocks = [[[0.0] * NUM_FLAGS for _ in range(NUM_FLAGS)]
              for _ in range(10)]
    for (b, i, j), val in cells.items():
        if i != j and (b, j, i) in cells:
            val = (val + cells[b, j, i]) / 2.0    # the same from either side
        blocks[b][i][j] = blocks[b][j][i] = val
    return blocks


def round_solution(blocks, max_den: int = DEFAULT_MAX_DEN) -> Certificate:
    """Round ten numeric 27x27 blocks to a rational certificate at bound 1/25.

    Each entry on or above the diagonal is replaced by its best rational
    approximation with denominator <= max_den (`rational_reconstruct`)
    and mirrored below it; the lower triangle is not read.  Types, vectors
    and flags are the shipped certificate's, the layout `export_sdp`
    writes.  The result is only structurally valid; it earns a verdict
    through the ordinary verification path.
    """
    if len(blocks) != 10:
        raise ValueError("expected ten blocks")
    out = []
    shipped = load_shipped_certificate().blocks
    for b, (tb, numeric) in enumerate(zip(shipped, blocks), 1):
        if len(numeric) != NUM_FLAGS or any(len(r) != NUM_FLAGS
                                            for r in numeric):
            raise ValueError("blocks must be %dx%d" % (NUM_FLAGS, NUM_FLAGS))
        rows = [[None] * NUM_FLAGS for _ in range(NUM_FLAGS)]
        try:
            for i in range(NUM_FLAGS):
                for j in range(i, NUM_FLAGS):
                    rows[i][j] = rows[j][i] = rational_reconstruct(
                        numeric[i][j], max_den)
        except (OverflowError, ValueError) as exc:
            # Fraction() of an infinite Decimal raises OverflowError, of
            # "inf" or "nan" (a float's repr) ValueError
            raise ValueError("block %d: %s" % (b, exc)) from exc
        out.append(CertificateBlock(tb.type_sigma, tb.vectors, tb.flags,
                                    SymMatrix(rows)))
    return Certificate(TARGET_BOUND, tuple(out))
