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
from dataclasses import replace
from fractions import Fraction

from .certificate import (NUM_FLAGS, Certificate, coefficient_table,
                          load_shipped_certificate, model_data)
from .exact import (DEFAULT_MAX_DEN, SymMatrix, _parse_integer,
                    rational_reconstruct)
from .graphs import _open_text, _text_lines

NUM_MODELS = 792
NUM_BLOCKS = 11          # ten flag blocks + one diagonal slack block
SIG_DIGITS = 40
# A value as a solver writes it ("-0.0125", "1.5e-07"), ASCII digits only
# (float() also reads "1_0", "inf"); one parse per digit run: linear time.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_NOT_FINITE = "non-finite value or not an ASCII decimal: %.40r"
# An entry line "matno blkno i j value"; \s is the whitespace str.split() cuts
_ENTRY = re.compile(r"([+-]?[0-9]+)\s+" * 4 + "(%s)" % _DECIMAL.pattern)

TARGET_BOUND = Fraction(1, 25)


class SdpFormatError(ValueError):
    """Malformed solution file."""


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _finite(token: str) -> float:
    """A value as a solver writes it, finite as a float (float() takes
    "1e400" to inf)."""
    if _DECIMAL.fullmatch(token) and math.isfinite(x := float(token)):
        return x
    raise ValueError(_NOT_FINITE % token)


def parse_solution(path) -> list:
    """Parse a solver solution file into ten symmetric 27x27 float blocks.

    Expected layout: one line with the m dual values, then entry lines
    "matno blkno i j value" where matno 2 carries the matrix solution
    (matno 1, the slack matrix, is ignored); the dual values and the
    slack block are checked, not kept.  A repeated entry keeps its last
    value.  An off-diagonal entry given in both triangles takes the float
    average of the two, one given in a single triangle is mirrored.  The
    file is read one line at a time.
    """
    cells: dict = {}
    dual = None
    seen_matrix = False
    with _open_text(path) as fh:
        for ln, text in _text_lines(fh, SdpFormatError):
            try:
                if dual is None:
                    dual = [_finite(t) for t in text.split()]
                    if len(dual) != NUM_MODELS:
                        raise ValueError("dual vector has %d entries, "
                                         "expected %d"
                                         % (len(dual), NUM_MODELS))
                    continue
                if (m := _ENTRY.fullmatch(text)) is None:
                    toks = text.split()     # raise the first bad token's error
                    if len(toks) == 5:
                        for tok in toks[:4]:
                            _parse_integer(tok)
                        _finite(toks[4])
                    raise ValueError("expected 'matno blkno i j value'")
                matno, blkno, i, j = map(int, m.group(1, 2, 3, 4))
                if not math.isfinite(val := float(m[5])):   # "1e400"
                    raise ValueError(_NOT_FINITE % m[5])
                if matno == 1:
                    continue
                if matno != 2:
                    raise ValueError("unknown matrix number %d" % matno)
                seen_matrix = True
                if 1 <= blkno <= 10:
                    if not (1 <= i <= NUM_FLAGS and 1 <= j <= NUM_FLAGS):
                        raise ValueError("index out of range for a %dx%d "
                                         "block" % (NUM_FLAGS, NUM_FLAGS))
                    cells[blkno - 1, i - 1, j - 1] = val
                elif blkno != NUM_BLOCKS:
                    raise ValueError("block number %d out of range" % blkno)
                elif i != j or not 1 <= i <= NUM_MODELS:
                    raise ValueError("slack block is diagonal of size %d"
                                     % NUM_MODELS)
            except ValueError as exc:
                raise SdpFormatError("line %d: %s" % (ln, exc)) from exc
    if dual is None:
        raise SdpFormatError("empty solution file")
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
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    if len(blocks) != 10:
        raise ValueError("expected ten blocks")
    out = []
    shipped = load_shipped_certificate().blocks
    for b, (tb, numeric) in enumerate(zip(shipped, blocks), 1):
        if len(numeric) != NUM_FLAGS or any(len(r) != NUM_FLAGS
                                            for r in numeric):
            raise ValueError("blocks must be %dx%d" % (NUM_FLAGS, NUM_FLAGS))
        rows = [[None] * NUM_FLAGS for _ in range(NUM_FLAGS)]
        for i in range(NUM_FLAGS):
            for j in range(i, NUM_FLAGS):
                try:
                    rows[i][j] = rows[j][i] = rational_reconstruct(
                        numeric[i][j], max_den)
                except (ArithmeticError, TypeError, ValueError) as exc:
                    raise ValueError("block %d: entry (%d, %d): %s"
                                     % (b, i + 1, j + 1, exc)) from exc
        out.append(replace(tb, Q=SymMatrix(rows)))
    return Certificate(TARGET_BOUND, tuple(out))
