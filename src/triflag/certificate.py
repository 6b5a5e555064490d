"""Certificate loading and exact verification.

A certificate consists of a rational bound, ten 3-vertex types, an ordered
list of 27 four-vertex flags per type (given by colour vectors), and a
symmetric rational 27x27 matrix per type.  The types check this shape when
they are built, from a file or in code: a `CertificateBlock` has a 3-vertex
type, each of the 27 colour vectors once and a 27x27 `SymMatrix` Q, and a
`Certificate` ten pairwise non-isomorphic types.  Verification checks,
entirely in rational arithmetic:

  * every matrix is positive semidefinite;
  * for every 5-vertex model M_k the coefficient
      lambda_k = p(mono K3, M_k) - bound - sum_r <Q^r, A[r][k]>
    is >= 0, where A[r][k][i][j] is the probability that a random labelled
    triangle plus split of M_k induces flags i and j of block r;
  * every "bad" 4-vertex colouring H forces lambda_k > 0 on each model that
    contains it.

Models are always keyed by canonical key; no ordinal model numbering is
used anywhere.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources

import numpy as np

from .exact import (SymMatrix, _parse_integer, format_rational,
                    parse_rational, psd_check)
from .flags import (TypeSigma, _colour_code, flag_from_vector,
                    triangle_pair_counts)
from .graphs import (ColouredGraph, _subset_listings, bad_family,
                     canonical_key, canonical_keys_batch, enumerate_models,
                     subgraph_class_counts)

NUM_FLAGS = 27


class CertificateError(ValueError):
    """Malformed or structurally invalid certificate file."""


@dataclass(frozen=True)
class CertificateBlock:
    type_sigma: TypeSigma
    vectors: tuple           # 27 colour vectors, file order
    flags: tuple             # 27 Flags matching `vectors`
    Q: SymMatrix

    def __post_init__(self):
        if self.type_sigma.n != 3:
            raise ValueError("a block's type must have 3 vertices")
        _colour_code(self.type_sigma.entries)        # colours in 1..3
        if sorted(map(_colour_code, self.vectors)) != list(range(NUM_FLAGS)):
            raise ValueError("a block must list each of the 27 flag "
                             "vectors once")
        if self.Q.dim != NUM_FLAGS:
            raise ValueError("a block's Q must be %dx%d, not %dx%d"
                             % (NUM_FLAGS, NUM_FLAGS, self.Q.dim, self.Q.dim))


@dataclass(frozen=True)
class Certificate:
    bound: Fraction
    blocks: tuple

    def __post_init__(self):
        keys = [canonical_key(b.type_sigma) for b in self.blocks]
        if len(keys) != 10 or len(set(keys)) != 10:
            raise ValueError("a certificate needs ten pairwise "
                             "non-isomorphic types")


@dataclass
class CoefficientTable:
    """Sparse exact table of product coefficients.

    counts[r] is block r's read-only view: model key -> {(i, j): count},
    count = 120 * A[r][model_key][i][j] as an integer (see `_BlockCounts`);
    valid_injections[r][model_key] is the number of labelled-triangle
    injections inducing the block's type.
    """

    model_keys: tuple
    counts: list            # per block: _BlockCounts
    valid_injections: list  # per block: dict key -> int


class _BlockCounts(Mapping):
    """One block of a `CoefficientTable`, kept as arrays: for every nonzero
    cell, `model` (its model row), `pair` (i * 27 + j in the block's flag
    order) and `count`, in ascending (model, pair) order; the cells of row
    t are `start[t]:start[t + 1]`.  As a read-only mapping it gives
    model key -> {(i, j): count}, built for one model when that model is
    read.  `type_sigma` and `vectors` record the flag layout the counts
    were built for."""

    def __init__(self, block, keys, row, model, pair, count):
        self.type_sigma = block.type_sigma
        self.vectors = block.vectors
        self._keys = keys
        self._row = row
        self.model = model
        self.pair = pair
        self.count = count
        self.start = np.searchsorted(model, np.arange(len(keys) + 1))

    def __getitem__(self, key):
        t = self._row[key]
        cells = slice(self.start[t], self.start[t + 1])
        i, j = np.divmod(self.pair[cells], NUM_FLAGS)
        return dict(zip(zip(i.tolist(), j.tolist()),
                        self.count[cells].tolist()))

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


@dataclass
class VerificationReport:
    psd_ok: list                       # per block
    psd_failed_blocks: list
    psd_ranks: list                    # per block; None where not PSD
    lambdas: dict                      # model key -> Fraction
    min_lambda: Fraction | None
    negative_lambda_keys: list
    bad_family_ok: bool
    bad_family_violations: list        # (H key, model key, lambda)
    verified: bool
    seconds: float = 0.0

    @property
    def verdict(self) -> str:
        return "VERIFIED" if self.verified else "FAILED"


def _integers(line: str, ln: int) -> list:
    """The entries of a TYPE or FLAGS row: ASCII decimal integers."""
    try:
        return [_parse_integer(t) for t in line.split()]
    except ValueError as exc:
        raise CertificateError("line %d: %s" % (ln, exc)) from exc


def load_certificate(text: str) -> Certificate:
    """Parse a certificate in the line-oriented FLAGCERT format.  Token errors
    name their line; the types' own structural errors name the block.  Each
    distinct Q token is parsed once, and the blocks are built only once the
    whole file has been read."""
    lines = text.splitlines()
    pos = 0
    rationals = {}              # Q token -> its Fraction

    def rational(token):
        x = rationals.get(token)
        if x is None:
            x = rationals[token] = parse_rational(token)
        return x

    def next_line():
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise CertificateError("unexpected end of file at line %d" % (pos + 1))
        pos += 1
        return lines[pos - 1].strip(), pos

    header, ln = next_line()
    if header != "FLAGCERT 1":
        raise CertificateError("line %d: expected 'FLAGCERT 1'" % ln)
    bound_line, ln = next_line()
    if not bound_line.startswith("BOUND "):
        raise CertificateError("line %d: expected 'BOUND p/q'" % ln)
    try:
        bound = parse_rational(bound_line.split(None, 1)[1])
    except (ValueError, IndexError) as exc:
        raise CertificateError("line %d: bad bound: %s" % (ln, exc)) from exc

    parsed = []                 # per block: type rows, vectors, Q rows
    for r in range(1, 11):
        tag, ln = next_line()
        if tag != "TYPE %d" % r:
            raise CertificateError("line %d: expected 'TYPE %d'" % (ln, r))
        rows = []
        for _ in range(3):
            row_line, ln = next_line()
            row = _integers(row_line, ln)
            if len(row) != 3:
                raise CertificateError("line %d: type row needs 3 entries" % ln)
            rows.append(row)
        tag, ln = next_line()
        if tag != "FLAGS %d" % NUM_FLAGS:
            raise CertificateError("line %d: expected 'FLAGS %d'" % (ln, NUM_FLAGS))
        vectors = []
        for fi in range(NUM_FLAGS):
            vec_line, ln = next_line()
            vec = tuple(_integers(vec_line, ln))
            if len(vec) != 3 or any(c < 1 or c > 3 for c in vec):
                raise CertificateError(
                    "line %d: block %d flag %d: colours must be in 1..3"
                    % (ln, r, fi + 1))
            vectors.append(vec)
        tag, ln = next_line()
        if tag != "Q %d" % NUM_FLAGS:
            raise CertificateError("line %d: expected 'Q %d'" % (ln, NUM_FLAGS))
        qrows = []
        for qi in range(NUM_FLAGS):
            row_line, ln = next_line()
            toks = row_line.split()
            if len(toks) != NUM_FLAGS:
                raise CertificateError(
                    "line %d: Q row %d needs %d entries, got %d"
                    % (ln, qi + 1, NUM_FLAGS, len(toks)))
            try:
                qrows.append([rational(t) for t in toks])
            except ValueError as exc:
                raise CertificateError("line %d: bad rational: %s"
                                       % (ln, exc)) from exc
        parsed.append((rows, vectors, qrows))
    for extra in range(pos, len(lines)):
        if lines[extra].strip():
            raise CertificateError(
                "line %d: unexpected text after block 10" % (extra + 1))
    blocks = []
    for r, (rows, vectors, qrows) in enumerate(parsed, start=1):
        try:
            sigma = ColouredGraph.from_matrix(rows)
            flags = tuple(flag_from_vector(sigma, v) for v in vectors)
            blocks.append(CertificateBlock(sigma, tuple(vectors), flags,
                                           SymMatrix(qrows)))
        except ValueError as exc:
            raise CertificateError("block %d: %s" % (r, exc)) from exc
    try:
        return Certificate(bound, tuple(blocks))
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc


def serialize_certificate(cert: Certificate) -> str:
    lines = ["FLAGCERT 1", "BOUND " + format_rational(cert.bound)]
    for r, block in enumerate(cert.blocks, start=1):
        lines.append("TYPE %d" % r)
        for row in block.type_sigma.matrix():
            lines.append(" ".join(str(c) for c in row))
        lines.append("FLAGS %d" % NUM_FLAGS)
        for vec in block.vectors:
            lines.append(" ".join(str(c) for c in vec))
        lines.append("Q %d" % NUM_FLAGS)
        for row in block.Q.rows:
            lines.append(" ".join(format_rational(x) for x in row))
    return "\n".join(lines) + "\n"


def shipped_certificate_text() -> str:
    return resources.files("triflag.data").joinpath("certificate.txt").read_text()


@cache          # parsed once per process; a Certificate is immutable
def load_shipped_certificate() -> Certificate:
    return load_certificate(shipped_certificate_text())


class ModelData:
    """What verification needs about the 792 five-vertex models that does
    not depend on a certificate, all built at once from the batch of their
    listings:

      * `keys`: the canonical keys, in enumeration order, and `row`:
        key -> its position in `keys`;
      * `bad`: key -> the bad-family keys the model contains, in
        bad_family() order;
      * `cells`, `cell_counts` and `valid`: the pair counts of all 27
        labelled 3-vertex types on every model, as `triangle_pair_counts`
        returns them (rows in key order);
      * `mono`: key -> monochromatic-triangle total, the injections of the
        types (1, 1, 1), (2, 2, 2) and (3, 3, 3) over 6."""

    def __init__(self):
        self.keys = tuple(M.entries for M in enumerate_models(5, 3))
        self.row = {key: t for t, key in enumerate(self.keys)}
        flats = np.frombuffer(b"".join(self.keys),
                              dtype=np.uint8).reshape(-1, 10)
        four = canonical_keys_batch(_subset_listings(flats, 5, 4), 4)
        bad_keys = [canonical_key(H) for H in bad_family()]
        self.bad = {key: tuple(hk for hk in bad_keys
                               if hk in four[5 * t:5 * t + 5])
                    for t, key in enumerate(self.keys)}
        self.cells, self.cell_counts, self.valid = triangle_pair_counts(flats)
        mono = self.valid[[_colour_code((c,) * 3) for c in (1, 2, 3)]]
        self.mono = dict(zip(self.keys, (mono.sum(axis=0) // 6).tolist()))


# one instance per process, built on first use
model_data = cache(ModelData)


def coefficient_table(cert: Certificate) -> CoefficientTable:
    """Exact product-coefficient table over all 5-vertex models: for each
    block, the rows of its type in the model data's pair counts, with the
    flag codes re-indexed into the block's flag order, kept as the arrays
    of a `_BlockCounts`."""
    data = model_data()
    g = len(data.keys)
    span = 27 * 27 * g          # cell codes of one labelled type
    counts = []
    valids = []
    for block in cert.blocks:
        t = _colour_code(block.type_sigma.entries)
        lo, hi = np.searchsorted(data.cells, (t * span, (t + 1) * span))
        model, cell = np.divmod(data.cells[lo:hi] - t * span, 27 * 27)
        codes = [_colour_code(v) for v in block.vectors]
        index = np.argsort(codes)       # flag code -> position in the block
        pair = index[cell // 27] * NUM_FLAGS + index[cell % 27]
        order = np.argsort(model * NUM_FLAGS**2 + pair)
        counts.append(_BlockCounts(block, data.keys, data.row, model[order],
                                   pair[order], data.cell_counts[lo:hi][order]))
        valids.append(dict(zip(data.keys, data.valid[t].tolist())))
    return CoefficientTable(data.keys, counts, valids)


def lambda_vector(cert: Certificate, table: CoefficientTable) -> dict:
    """lambda_k for every model, exactly: integer numerators over one
    common denominator, 120 den with den the lcm of the bound's denominator
    and the Q row scales; row i of a block's scaled Q is den / scale[i]
    times row i of its integer form `Q.num`.

    One pass per block: the block's scaled Q, flattened, is gathered by
    the table's pair codes, multiplied by the counts and summed per model
    with `np.add.at`.  The counts of one model add up to at most 120 over
    the ten blocks, so every partial sum is below 120 * max|scaled q|: the
    pass runs in int64 when that is below 2**63, checked in Python
    integers, and otherwise the same pass runs on Python integers
    (dtype=object).  Raises ValueError, naming the block, when the table
    was built for another flag layout."""
    for r, (block, counts) in enumerate(zip(cert.blocks, table.counts), 1):
        if (counts.type_sigma != block.type_sigma
                or counts.vectors != block.vectors):
            raise ValueError("block %d: the coefficient table was built for "
                             "another type or flag order" % r)
    den = math.lcm(cert.bound.denominator,
                   *(s for block in cert.blocks for s in block.Q.scale))
    bound = cert.bound.numerator * (den // cert.bound.denominator) * 120
    scaled_q = [[x * (den // s) for s, row in zip(block.Q.scale, block.Q.num)
                 for x in row] for block in cert.blocks]
    top = max(abs(x) for q in scaled_q for x in q)
    dtype = np.int64 if 120 * top < 2**63 else object
    sums = np.zeros(len(table.model_keys), dtype=dtype)
    for q, counts in zip(scaled_q, table.counts):
        np.add.at(sums, counts.model, np.array(q, dtype=dtype)[counts.pair]
                  * counts.count.astype(dtype))
    mono = model_data().mono
    return {key: Fraction(12 * den * mono[key] - bound - s, 120 * den)
            for key, s in zip(table.model_keys, sums.tolist())}


def verify(cert: Certificate, table: CoefficientTable | None = None) -> VerificationReport:
    """Full exact verification; failures are report content, never raised.
    A `table` built for another flag layout raises ValueError."""
    start = time.monotonic()
    if table is None:
        table = coefficient_table(cert)
    lambdas = lambda_vector(cert, table)
    verdicts = [psd_check(block.Q) for block in cert.blocks]
    psd_ok = [v.is_psd for v in verdicts]
    negative = sorted(key for key, lam in lambdas.items() if lam < 0)
    min_lambda = min(lambdas.values()) if lambdas else None

    data = model_data()
    violations = [(hk, key, lambdas[key]) for key in data.keys
                  if lambdas[key] <= 0 for hk in data.bad[key]]
    verified = all(psd_ok) and not negative and not violations
    return VerificationReport(
        psd_ok=psd_ok,
        psd_failed_blocks=[r for r, ok in enumerate(psd_ok, start=1)
                           if not ok],
        psd_ranks=[v.rank for v in verdicts],
        lambdas=lambdas,
        min_lambda=min_lambda,
        negative_lambda_keys=negative,
        bad_family_ok=not violations,
        bad_family_violations=violations,
        verified=verified,
        seconds=time.monotonic() - start,
    )


def report_text(report: VerificationReport) -> str:
    """Machine-readable key-value rendering of a verification report."""
    lines = []
    for r, ok in enumerate(report.psd_ok, start=1):
        lines.append("PSD block=%d %s" % (r, "ok" if ok else "FAILED"))
    lines.append("PSD_RANKS " + " ".join("-" if rank is None else str(rank)
                                         for rank in report.psd_ranks))
    if report.min_lambda is not None:
        lines.append("MIN_LAMBDA " + format_rational(report.min_lambda))
    lines.append("NEGATIVE_LAMBDAS %d" % len(report.negative_lambda_keys))
    for key in report.negative_lambda_keys:
        lines.append("NEGATIVE_LAMBDA model=%s %s"
                     % (key.hex(), format_rational(report.lambdas[key])))
    lines.append("BAD_FAMILY_CONDITION %s"
                 % ("ok" if report.bad_family_ok else "FAILED"))
    for hk, mk, lam in report.bad_family_violations:
        lines.append("BAD_FAMILY_VIOLATION bad=%s model=%s lambda=%s"
                     % (hk.hex(), mk.hex(), format_rational(lam)))
    lines.append("SECONDS %.3f" % report.seconds)
    lines.append("VERDICT " + report.verdict)
    return "\n".join(lines) + "\n"


@cache           # the construction does not depend on a certificate
def _gex_model_keys() -> frozenset:
    from .extremal import build_gex
    return frozenset(subgraph_class_counts(build_gex(25), 5))


def extremal_zero_report(lambdas: dict) -> list:
    """For each 5-vertex model, in key order: (key, lambda, occurs), where
    `lambdas` is a certificate's `lambda_vector` (or a report's `lambdas`)
    and occurs tells whether the model is an induced 5-subset of the
    25-vertex extremal construction.  A certificate whose bound is tight
    has lambda exactly 0 on every model that occurs; the rows report this,
    they do not enforce it."""
    occurring = _gex_model_keys()
    return [(key, lambdas[key], key in occurring) for key in sorted(lambdas)]
