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

The PSD check runs the exact elimination of `exact.psd_check` once per
colour orbit of blocks (symmetry reduction in the sense of Gatermann and
Parrilo, done exactly at verification time).  A colour permutation and a
vertex relabelling that carry an eliminated block's labelled type onto
another block's type propose a flag permutation p; when the other block's
Q equals the permuted Q_a = P^T Q_a P exactly, compared a whole row at a
time, it takes that block's verdict and rank, and a NotPSD witness,
permuted, is re-checked exactly on its own block.  The maps only propose
p; the exact equality proves it, and a block that matches no eliminated
block is eliminated itself.  The shipped certificate is invariant under
the 3-cycle of colours, so four of its ten blocks are eliminated.

The same reduction works inside a block.  The flag permutations that carry
a block's labelled type onto itself, and keep its Q exactly, have orbits on
its flags, and the 0/+-1 congruence T = [orbit sums | e_first - e_other
within each orbit] makes T^T Q T exactly block diagonal, diag(Q_0, Q_1).
So a block is eliminated on its two parts, PSD exactly when both are, with
the sum of their ranks, and a part's NotPSD witness w lifts to T w,
re-checked exactly on Q.  The shipped blocks 1, 2, 3 and 5 split into
parts of 10+17, 18+9, 18+9 and 11+16 rows.  Warm, on a 2-core x86-64
machine with Python 3.11, the PSD step of `verify` on the shipped
certificate takes 4.0 ms of CPU time, against 11.0 ms when each of the
four blocks is eliminated whole.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import permutations
from operator import itemgetter, neg

import numpy as np

from .exact import (PsdVerdict, SymMatrix, WitnessError, _integer_form,
                    _parse_integer, format_rational, parse_rational,
                    psd_check)
from .extremal import build_gex
from .flags import _colour_code, flag_from_vector, triangle_pair_counts
from .graphs import (ColouredGraph, _model_keys, _subset_classes, bad_family,
                     _text_lines, canonical_key, enumerate_models,
                     subgraph_class_counts)

NUM_FLAGS = 27


class CertificateError(ValueError):
    """Malformed or structurally invalid certificate file."""


@dataclass(frozen=True)
class CertificateBlock:
    type_sigma: ColouredGraph
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
    psd_sources: list                  # per block; see `_psd_verdicts`
    lambdas: dict                      # model key -> Fraction
    min_lambda: Fraction
    negative_lambda_keys: list
    bad_family_ok: bool
    bad_family_violations: list        # (H key, model key, lambda)
    verified: bool
    seconds: float = 0.0

    @property
    def verdict(self) -> str:
        return "VERIFIED" if self.verified else "FAILED"


def _expect(tag: str, line: str):
    if line != tag:
        raise ValueError("expected %r" % tag)


def _bound(line: str) -> Fraction:
    tag, _, value = line.partition(" ")
    if tag != "BOUND":
        raise ValueError("expected 'BOUND p/q'")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ValueError("bad bound: %s" % exc) from exc


def _row(width: int, parse, line: str) -> list:
    toks = line.split()
    if len(toks) != width:
        raise ValueError("expected %d entries, got %d" % (width, len(toks)))
    return [parse(t) for t in toks]


def _colour(token: str) -> int:
    c = _parse_integer(token)
    if not 1 <= c <= 3:
        raise ValueError("colours must be in 1..3, got %d" % c)
    return c


def load_certificate(source) -> Certificate:
    """Parse a certificate in the line-oriented FLAGCERT format from a
    string or an open text file, read one line at a time.  Token errors
    name their line; the types' own structural errors name the block.  Each
    distinct Q token is parsed once, and the blocks are built only once the
    whole text has been read."""
    lines = _text_lines(source, CertificateError)
    number = 0                  # of the last line read
    rationals = {}              # Q token -> its Fraction

    def rational(token):
        x = rationals.get(token)
        if x is None:
            try:
                x = rationals[token] = parse_rational(token)
            except ValueError as exc:
                raise ValueError("bad rational: %s" % exc) from exc
        return x

    def line(parse, *args):
        """parse(*args, the next line); a ValueError names the line."""
        nonlocal number
        number, text = next(lines, (number + 1, None))
        if text is None:
            raise CertificateError("unexpected end of file at line %d"
                                   % number)
        try:
            return parse(*args, text)
        except ValueError as exc:
            raise CertificateError("line %d: %s" % (number, exc)) from exc

    def section(tag, count, width, parse):
        """The tag line, then `count` rows of `width` tokens, each token
        passed through `parse`."""
        line(_expect, tag)
        return [line(_row, width, parse) for _ in range(count)]

    line(_expect, "FLAGCERT 1")
    bound = line(_bound)
    parsed = [(section("TYPE %d" % r, 3, 3, _parse_integer),
               section("FLAGS %d" % NUM_FLAGS, NUM_FLAGS, 3, _colour),
               section("Q %d" % NUM_FLAGS, NUM_FLAGS, NUM_FLAGS, rational))
              for r in range(1, 11)]
    extra = next(lines, None)
    if extra is not None:
        raise CertificateError("line %d: unexpected text after block 10"
                               % extra[0])
    blocks = []
    for r, (rows, vectors, qrows) in enumerate(parsed, start=1):
        try:
            sigma = ColouredGraph.from_matrix(rows)
            vectors = tuple(map(tuple, vectors))
            flags = tuple(flag_from_vector(sigma, v) for v in vectors)
            blocks.append(CertificateBlock(sigma, vectors, flags,
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
    return (resources.files("triflag.data").joinpath("certificate.txt")
            .read_text(encoding="utf-8"))


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
        four = _model_keys(4, 3)      # indexed by the class rows below
        contained = [{four[r] for r in rows}
                     for rows in _subset_classes(flats, 5, 4, 3).tolist()]
        bad_keys = [H.entries for H in bad_family()]
        self.bad = {key: tuple(hk for hk in bad_keys if hk in contained[t])
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
    (dtype=object).  Raises ValueError when the table was built for
    another number of blocks or, naming the block, another flag layout."""
    if len(table.counts) != len(cert.blocks):
        raise ValueError("the coefficient table has %d blocks, the certificate"
                         " %d" % (len(table.counts), len(cert.blocks)))
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


# colour maps pi and vertex maps tau, as tuples indexed by colour - 1 and by
# vertex
_COLOUR_MAPS = tuple(permutations((1, 2, 3)))
_VERTEX_MAPS = tuple(permutations(range(3)))


@cache          # one per labelled 3-vertex type, 27 at most
def _type_images(target: ColouredGraph) -> dict:
    """Listing -> the (pi, tau) that carry the labelled 3-vertex type
    `target` onto the type with that listing, whose colour(u, w) is
    pi(target colour(tau(u), tau(w))), the listing of `target.relabel(tau)`
    mapped by pi."""
    images = {}
    for pi in _COLOUR_MAPS:
        for tau in _VERTEX_MAPS:
            listing = bytes(pi[c - 1] for c in target.relabel(tau).entries)
            images.setdefault(listing, []).append((pi, tau))
    return images


def _flag_maps(a: CertificateBlock, b: CertificateBlock):
    """The flag permutations p proposed by the (pi, tau) that carry block
    b's labelled type onto block a's: flag i of b, with colour vector v,
    goes to the flag p[i] of a with colour vector pi(v o tau)."""
    maps = _type_images(b.type_sigma).get(a.type_sigma.entries)
    if maps:
        index = {v: i for i, v in enumerate(a.vectors)}
        for pi, (t0, t1, t2) in maps:
            yield [index[pi[v[t0] - 1], pi[v[t1] - 1], pi[v[t2] - 1]]
                   for v in b.vectors]


def _is_image(Q: SymMatrix, p, source: SymMatrix) -> bool:
    """Whether Q[i][j] == source[p[i]][p[j]] on every entry, compared a
    whole row at a time in the integer forms: rows that are equal as
    rationals have the same row scale and so equal integer rows."""
    return all(source.scale[k] == s and itemgetter(*p)(source.num[k]) == row
               for k, s, row in zip(p, Q.scale, Q.num))


def _invariant_orbits(block: CertificateBlock) -> list | None:
    """The orbits on block's flags, each in ascending order and listed by
    their least flag, of the permutations p proposed by
    `_flag_maps(block, block)` that keep Q, Q[i][j] = Q[p[i]][p[j]] on every
    entry, compared a whole row at a time; None when no p but the identity
    keeps Q.  The maps only propose p; the equality test is the proof."""
    Q = block.Q
    label = list(range(NUM_FLAGS))        # flag -> least flag of its orbit
    for p in _flag_maps(block, block):
        # a p that keeps every flag in its orbit so far adds nothing
        if any(label[i] != label[k] for i, k in enumerate(p)) and \
                _is_image(Q, p, Q):
            for i, k in enumerate(p):
                a, c = sorted((label[i], label[k]))
                if a != c:
                    label = [a if x == c else x for x in label]
    if label == list(range(NUM_FLAGS)):
        return None
    orbits = {}
    for i, a in enumerate(label):
        orbits.setdefault(a, []).append(i)
    return list(orbits.values())


def _combined(columns, rows) -> list:
    """Per column t, the sum of sign * rows[i] over the (i, sign) of t."""
    return [tuple(map(sum, zip(*(rows[i] if sign > 0 else map(neg, rows[i])
                                 for i, sign in t)))) for t in columns]


def _reduced_verdict(block: CertificateBlock) -> PsdVerdict:
    """`psd_check`'s verdict on the block's Q, and its rank, taken on the
    two parts of a congruence that the block's own symmetry makes block
    diagonal (Gatermann and Parrilo's reduction, done exactly).

    With the orbits of `_invariant_orbits`, the columns of the 0/+-1 matrix
    T are the orbit sums u_O, then e_f - e_k for each orbit O, its least
    flag f and each other flag k of O.  Q is invariant under the kept
    permutations, so Q u_O is constant on every orbit and T^T Q T is
    exactly diag(Q_0, Q_1).  T is invertible, so Q is PSD exactly when
    both parts are, with rank r_0 + r_1, and a witness w of a part lifts to
    the witness T w of Q, which `_psd_verdicts` re-checks.  Rows of Q in
    one orbit are permutations of each other and share their row scale s,
    so the integer form of a part is read straight off Q's: its row for a
    column t is the combination of Q.num's rows that t makes, over the
    scale s of t's orbit.  A block that only the identity keeps goes whole
    to `psd_check`."""
    Q = block.Q
    orbits = _invariant_orbits(block)
    if orbits is None:
        return psd_check(Q)
    rank = 0
    for columns in ([[(i, 1) for i in orbit] for orbit in orbits],
                    [((orbit[0], 1), (k, -1))
                     for orbit in orbits for k in orbit[1:]]):
        rows = list(zip(*_combined(columns, Q.num)))     # (T^T Q.num)^T
        num = tuple(zip(*_combined(columns, rows)))      # T^T Q.num T
        verdict = psd_check(_integer_form(
            num, tuple(Q.scale[t[0][0]] for t in columns)))
        if not verdict.is_psd:
            witness = [Fraction(0)] * NUM_FLAGS
            for w, t in zip(verdict.witness, columns):
                for i, sign in t:
                    witness[i] += sign * w
            return PsdVerdict(is_psd=False, witness=tuple(witness))
        rank += verdict.rank
    return PsdVerdict(is_psd=True, rank=rank)


def _psd_verdicts(blocks) -> tuple:
    """Each block's `psd_check` verdict, with an elimination once per
    colour orbit, and per block the 1-based index of the eliminated block
    whose verdict it took, or None where it was eliminated itself.

    A block takes the verdict of the first eliminated block a, in order,
    for which some flag permutation p proposed by `_flag_maps` gives
    Q[i][j] = Q_a[p[i]][p[j]] on every entry, compared a whole row at a
    time: then Q = P^T Q_a P, so Q is PSD exactly when Q_a is, with the
    same rank, and a witness v of Q_a gives the witness v o p of Q.  The
    maps only propose p; the equality test is the proof.  A block that
    takes no verdict is eliminated on its symmetry-reduced parts by
    `_reduced_verdict`.  Every NotPSD witness, permuted or lifted, is
    re-checked exactly on its own block here."""
    verdicts, sources = [], []
    for b, block in enumerate(blocks, start=1):
        a, p = next(((a, p) for a, s in enumerate(sources) if s is None
                     for p in _flag_maps(blocks[a], block)
                     if _is_image(block.Q, p, blocks[a].Q)), (None, None))
        if a is None:
            verdict = _reduced_verdict(block)
        elif verdicts[a].is_psd:     # a's pivot rows factor Q_a, not Q
            verdict = PsdVerdict(is_psd=True, rank=verdicts[a].rank)
        else:
            verdict = PsdVerdict(is_psd=False, witness=tuple(
                verdicts[a].witness[k] for k in p))
        if not (verdict.is_psd or block.Q.quadratic_form(verdict.witness) < 0):
            raise WitnessError("block %d: the %s is not negative" % (
                b, "lifted witness of a symmetry-reduced part" if a is None
                else "permuted witness of block %d" % (a + 1)))
        verdicts.append(verdict)
        sources.append(None if a is None else a + 1)
    return verdicts, sources


def verify(cert: Certificate, table: CoefficientTable | None = None) -> VerificationReport:
    """Full exact verification; failures are report content, never raised.
    A `table` built for another flag layout raises ValueError."""
    start = time.monotonic()
    if table is None:
        table = coefficient_table(cert)
    lambdas = lambda_vector(cert, table)
    verdicts, sources = _psd_verdicts(cert.blocks)
    psd_ok = [v.is_psd for v in verdicts]
    negative = sorted(key for key, lam in lambdas.items() if lam < 0)

    data = model_data()
    violations = [(hk, key, lambdas[key]) for key in data.keys
                  if lambdas[key] <= 0 for hk in data.bad[key]]
    verified = all(psd_ok) and not negative and not violations
    return VerificationReport(
        psd_ok=psd_ok,
        psd_failed_blocks=[r for r, ok in enumerate(psd_ok, start=1)
                           if not ok],
        psd_ranks=[v.rank for v in verdicts],
        psd_sources=sources,
        lambdas=lambdas,
        min_lambda=min(lambdas.values()),
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
