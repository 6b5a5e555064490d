"""Edge-coloured complete graphs.

A `ColouredGraph` is a complete graph on n vertices whose edges carry colours
from {1..k} (k = 3 by default; 1 = red, 2 = blue, 3 = green).  This module
provides canonical forms and isomorphism testing, enumeration of colourings up
to isomorphism, an independent Burnside/cycle-index count as a cross-check,
exact subgraph densities, monochromatic-triangle counting, the closed-form
triangle-minimum formulas, and the "bad" family of 4-vertex colourings whose
density must vanish in near-extremal colourings.

The canonical key of a colouring is the lexicographically smallest
upper-triangle colour listing over all n! relabellings (so n <= CANON_MAX_N).
One numpy kernel, `canonical_keys_batch`, finds it for a whole batch of
listings: it gathers every relabelled listing through a cached index and
takes one `argmin` over them as fixed-width byte strings.  A model is
built from its key, so it needs no second canonicalisation.  Models are
sorted by these keys and reports print them, so they stay this global
minimum; colour-profile refinement would not lift the size limit either,
since every vertex of a balanced blow-up has the same profile.
Isomorphism testing does not canonicalise: it is a search with
colour-profile candidates and forward checking, exact for every n.

Listing batches are built by numpy: one gather lists all l-subsets of a
batch of graphs, and enumeration extends every model by all colourings of a
new vertex's edges and deduplicates the keys as byte strings.

Subgraph classes are read off a class table where one fits.  An l-vertex
subset has k^m listings, m = l(l-1)/2, and each is a relabelling of exactly
one model.  For k^m <= _TABLE_MAX = 2^16 (l = 2 with k <= 255, 3 with
k <= 40, 4 with k <= 6, 5 with k <= 3, 6 with k = 2, and every admitted l
with k = 1), one table per (l, k), built on first use by writing the l!
relabelled listings of every model, maps the base-k code of a listing to
its model's row.
Counting the classes of a graph's l-subsets is then their codes, one lookup
and a `bincount`: no listing is canonicalised.  At l = 5 with 3 colours a
call takes about 0.3 ms of CPU at n = 10, 2-3 ms at n = 25 and 50-60 ms at
n = 40 (2-core machine, Python 3.11), where canonicalising took 0.4-1.3 ms,
30-115 ms and 0.3-0.56 s; the first call builds the table in about 0.02 s.
Other (l, k) canonicalise each distinct subset listing once.  Monochromatic triangles are counted as
trace(A_c^3) / 6 over the 0/1 adjacency matrix A_c of each colour c.
"""

from __future__ import annotations

import io
import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, islice, product

import numpy as np

CANON_MAX_N = 9        # exhaustive canonicalization limit
GRAPH_MAX_N = 400      # vertex limit of a ColouredGraph (see README)
_DECIMAL = re.compile(r"[0-9]+")
# chars per line of any text input, its newline included: a certificate's
# Q row of 27 rationals at int()'s 4,300-digit limit takes 232,280
_MAX_LINE = 1 << 18
# what a file opened by _open_text reads a byte 0x80-0xff that is not UTF-8 as
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
_BATCH_BYTES = 1 << 20  # bytes of relabelled listings per gather (min. one row)
# relabelled listings gathered by one canonicalisation, in bytes: those of
# enumerate_models(6, 3), 192,456 * 6! * 15 (about 4 s of CPU)
_MAX_GATHER = 2_078_524_800
_MAX_CANDIDATES = 192_456  # extension batch of enumerate_models(6, 3)
_MAX_SUBSETS = 658_008     # C(40, 5): 5-subset counts of 40 vertices
# listings k^m of an l-vertex subset, m = l(l-1)/2, up to which subgraph
# classes are read off a class table instead of canonicalised
_TABLE_MAX = 1 << 16


class SizeLimitError(ValueError):
    """Input exceeds the size supported by an exhaustive operation."""


def _check_size(n: int, k: int):
    # colours are stored one byte each, in listings and canonical keys;
    # parsing, `matrix` and membership loop over the n^2 pairs in Python
    if not 1 <= k <= 255:
        raise (SizeLimitError if k > 255 else ValueError)(
            "colour count must be 1 <= k <= 255, got %d" % k)
    if not 0 <= n <= GRAPH_MAX_N:
        raise (SizeLimitError if n > GRAPH_MAX_N else ValueError)(
            "vertex count must be 0 <= n <= %d, got %d" % (GRAPH_MAX_N, n))


class ColouredGraph:
    """Complete graph with an edge colouring over {1..k}.

    `entries` is the row-major upper-triangle colour listing, one byte per
    edge; for a graph in canonical form it is the canonical key.  Immutable.
    """

    __slots__ = ("n", "k", "entries")

    def __init__(self, n: int, k: int = 3, entries=b""):
        _check_size(n, k)
        m = n * (n - 1) // 2
        if isinstance(entries, np.ndarray):
            entries = entries.tolist()  # by value: bytes() copies raw memory
        try:
            entries = bytes(entries)
        except ValueError:              # a colour outside 0..255
            raise ValueError("edge colour out of range 1..%d" % k) from None
        if len(entries) != m:
            raise ValueError("expected %d edge colours, got %d" % (m, len(entries)))
        if entries and not 1 <= min(entries) <= max(entries) <= k:
            raise ValueError("edge colour out of range 1..%d" % k)
        self.n = n
        self.k = k
        self.entries = entries

    @classmethod
    def from_matrix(cls, rows, k: int = 3) -> "ColouredGraph":
        n = len(rows)
        for i in range(n):
            if len(rows[i]) != n:
                raise ValueError("colour matrix is not square")
            if rows[i][i] != 0:
                raise ValueError("diagonal entry must be 0")
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("colour matrix is not symmetric")
        ent = [rows[i][j] for i in range(n) for j in range(i + 1, n)]
        return cls(n, k, ent)

    def colour(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError("vertex %r is not in range(%d)"
                             % (j if 0 <= i < self.n else i, self.n))
        if i == j:
            return 0
        if i > j:
            i, j = j, i
        return self.entries[_pair_index(self.n, i, j)]

    def matrix(self):
        n = self.n
        rows = [[0] * n for _ in range(n)]
        t = 0
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = self.entries[t]
                t += 1
        return rows

    def relabel(self, perm) -> "ColouredGraph":
        """H with H[a][b] = self[perm[a]][perm[b]]; perm permutes range(n)."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of range(%d)" % self.n)
        return self.induced(perm)

    def induced(self, vertices) -> "ColouredGraph":
        """The graph on distinct `vertices`; its vertex a is vertices[a]."""
        vs = list(vertices)
        for a, v in enumerate(vs):
            self.colour(v, v)           # refuses a vertex outside range(n)
            if v in vs[:a]:
                raise ValueError("vertex %r is repeated" % v)
        ent = [self.colour(vs[i], vs[j])
               for i in range(len(vs)) for j in range(i + 1, len(vs))]
        return ColouredGraph(len(vs), self.k, ent)

    def edge_colour_counts(self) -> dict:
        return {c: self.entries.count(c) for c in range(1, self.k + 1)}

    def __eq__(self, other):
        return (isinstance(other, ColouredGraph) and self.n == other.n
                and self.k == other.k and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n, self.k, self.entries))

    def __repr__(self):
        return "ColouredGraph(n=%d, k=%d, %r)" % (self.n, self.k, tuple(self.entries))


def _pair_index(n: int, i: int, j: int) -> int:
    # row-major upper-triangle position of pair (i, j), i < j
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


# 32, not 16: a run cycling through the 18 sizes 8..25 rebuilt a table on
# 13% of calls at 16; 32 tables at n = 400 (640 kB each) hold about 20 MB
@lru_cache(maxsize=32)
def _pair_table(n: int) -> np.ndarray:
    """Read-only (n, n) int32 P, P[a, b] = P[b, a] the position of {a, b}."""
    table = np.zeros((n, n), dtype=np.int32)
    a, b = np.triu_indices(n, 1)
    table[a, b] = table[b, a] = _pair_index(n, a, b)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _relabelling_index(n: int) -> np.ndarray:
    """(n!, m) uint8 array I whose rows listing[I[q]] are the listings of
    the graph under all n! relabellings."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, n + 1):
        perms = np.concatenate([
            np.hstack((np.full((len(perms), 1), first, np.int8),
                       perms + (perms >= first)))
            for first in range(size)])
    cols = np.ascontiguousarray(perms.T)      # cols[i]: images of vertex i
    del perms
    pos = _pair_table(n).ravel()              # pos[a * n + b]: pair {a, b}
    pairs = list(combinations(range(n), 2))
    idx = np.empty((len(pairs), cols.shape[1]), dtype=np.uint8)
    for t, (i, j) in enumerate(pairs):
        idx[t] = pos[cols[i].astype(np.int16) * n + cols[j]]
    return np.ascontiguousarray(idx.T)


def _check_gather(rows: int, n: int):
    # canonicalising a row gathers its n! relabelled m-byte listings
    size = rows * math.factorial(n) * (n * (n - 1) // 2)
    if size > _MAX_GATHER:
        raise SizeLimitError(
            "canonicalisation limited to %d gathered bytes; %d listings of "
            "%d vertices need %d" % (_MAX_GATHER, rows, n, size))


def canonical_keys_batch(flats: np.ndarray, n: int) -> list[bytes]:
    """Canonical keys of a (g, m) uint8 batch of n-vertex listings: the
    smallest relabelled listing of each row.  Colours are at least 1, so no
    listing holds a zero byte and fixed-width numpy byte strings order
    listings as bytes do."""
    if n > CANON_MAX_N:
        raise SizeLimitError("canonicalisation limited to n <= %d"
                             % CANON_MAX_N)
    _check_gather(len(flats), n)
    m = n * (n - 1) // 2
    if m == 0:
        return [b""] * len(flats)
    idx = _relabelling_index(n)
    step = max(1, _BATCH_BYTES // idx.size)
    keys = []
    for start in range(0, len(flats), step):
        block = flats[start:start + step]
        listings = np.ascontiguousarray(block[:, idx]).view("S%d" % m)
        listings = listings.reshape(len(block), -1)
        best = listings.argmin(axis=1)
        keys.extend(listings[np.arange(len(block)), best].tolist())
    return keys


def canonical_key(G: ColouredGraph) -> bytes:
    """Canonical key of one graph; a model from `enumerate_models` is
    already its own key."""
    flat = np.frombuffer(G.entries, np.uint8)[None]
    return canonical_keys_batch(flat, G.n)[0]


def is_isomorphic(G: ColouredGraph, H: ColouredGraph) -> bool:
    """Colour-respecting isomorphism test, exact for every n.

    A depth-first search for a bijection from V(G) to V(H).  A vertex's
    candidates start as the H-vertices with its colour profile (its number
    of edges of each colour).  Assigning v -> w drops, for every unassigned
    u, the candidates whose colour to w differs from colour(v, u); the
    search branches on the vertex with the fewest candidates.
    """
    if G.n != H.n or G.k != H.k:
        return False
    gm, hm = G.matrix(), H.matrix()
    gp = [sorted(row) for row in gm]
    hp = [sorted(row) for row in hm]
    if sorted(gp) != sorted(hp):
        return False
    cands = {v: [w for w in range(H.n) if hp[w] == gp[v]]
             for v in range(G.n)}

    def extend(cands) -> bool:
        if not cands:
            return True
        v = min(cands, key=lambda u: len(cands[u]))
        for w in cands[v]:
            rest = {}
            for u, ws in cands.items():
                if u != v:
                    # hm[w][w] is 0, never an edge colour: w itself drops
                    rest[u] = [x for x in ws if hm[w][x] == gm[v][u]]
                    if not rest[u]:
                        break
            else:
                if extend(rest):
                    return True
        return False

    return extend(cands)


# ---------------------------------------------------------------------------
# enumeration


def _check_enumeration_limit(l: int, k: int):
    # enumerating K_l extends every (l-1)-vertex model by all k^(l-1)
    # colourings of the new vertex's edges, a batch that grows with k as
    # fast as with l
    _check_size(l, k)
    if l > CANON_MAX_N:
        raise SizeLimitError("enumeration limited to l <= %d" % CANON_MAX_N)
    if l >= 2:
        batch = count_models_polya(l - 1, k) * k ** (l - 1)
        if batch > _MAX_CANDIDATES:
            raise SizeLimitError(
                "enumeration limited to %d candidate listings; l = %d, "
                "k = %d needs %d" % (_MAX_CANDIDATES, l, k, batch))
        _check_gather(batch, l)


@lru_cache(maxsize=64)
def _model_keys(l: int, k: int) -> tuple:
    """Canonical keys (sorted) of all k-colourings of K_l up to isomorphism."""
    if l <= 1:
        return (b"",)
    prev = _model_keys(l - 1, k)
    base = np.frombuffer(b"".join(prev), dtype=np.uint8).reshape(len(prev), -1)
    vectors = np.array(list(product(range(1, k + 1), repeat=l - 1)),
                       dtype=np.uint8).reshape(-1, l - 1)
    # every old model with every colouring of a new vertex 0's edges, which
    # come first in the row-major listing; distinct keys times distinct
    # vectors, so the candidates are distinct
    cands = np.hstack((np.tile(vectors, (len(prev), 1)),
                       np.repeat(base, len(vectors), axis=0)))
    return tuple(sorted(set(canonical_keys_batch(cands, l))))


def enumerate_models(l: int, k: int = 3) -> list[ColouredGraph]:
    """Representatives of all k-edge-colourings of K_l up to isomorphism,
    in canonical form, sorted by canonical key."""
    if l < 0:
        raise ValueError("l must be >= 0")
    _check_enumeration_limit(l, k)
    return [ColouredGraph(l, k, key) for key in _model_keys(l, k)]


def _partitions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def count_models_polya(l: int, k: int) -> int:
    """Number of k-edge-colourings of K_l up to isomorphism, by Burnside's
    lemma over the pair action of the symmetric group (cycle-index oracle,
    independent of the extension-based enumeration)."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if l > 12:
        raise SizeLimitError("cycle-index count limited to l <= 12")
    if l <= 1:
        return 1
    total = 0
    for part in _partitions(l):
        # number of permutations with this cycle type
        size = math.factorial(l)
        for length in set(part):
            c = part.count(length)
            size //= (length ** c) * math.factorial(c)
        # orbits of the induced action on unordered pairs
        orbits = 0
        for a in part:
            orbits += a // 2  # pairs within one cycle
        for x, y in combinations(range(len(part)), 2):
            orbits += math.gcd(part[x], part[y])
        total += size * (k ** orbits)
    return total // math.factorial(l)


# ---------------------------------------------------------------------------
# densities and triangle counts


def _subsets(n: int, l: int) -> list:
    """All l-subsets of range(n) in `combinations` order, as l int32 arrays
    of length C(n, l): array s holds the s-th smallest vertex of each
    subset.  Every subset of s vertices, in order, is extended by each
    larger vertex that leaves room for the rest."""
    rows = []
    for s in range(l):
        low = rows[-1] + np.int32(1) if s else np.zeros(1, np.int32)
        reps = np.int32(n - l + s + 1) - low   # choices for vertex s
        ends = np.cumsum(reps, dtype=np.int32)
        new = (np.arange(ends[-1], dtype=np.int32)
               + np.repeat(low - (ends - reps), reps))
        rows = [np.repeat(row, reps) for row in rows] + [new]
    return rows


def _subset_pairs(flats: np.ndarray, n: int, l: int):
    """Yield, pair by pair in listing order, that pair's byte in every
    l-subset of each row of a (g, m) uint8 batch of n-vertex listings (of
    colours, or of any per-pair values): (g, C(n, l)) arrays, subsets in
    `combinations` order.  One pair at a time, so no (C(n, l), m) index is
    held."""
    # square[:, a * n + b]: the byte of pair {a, b} (of pair 0 for a == b)
    square = np.take(flats, _pair_table(n).ravel(), 1)
    subsets = _subsets(n, l)
    for i in range(l):
        row = subsets[i] * np.int32(n)
        for j in range(i + 1, l):
            yield np.take(square, row + subsets[j], 1)


def _listing_codes(digits, k: int, shape) -> np.ndarray:
    """int32 base-k codes of listings given one pair at a time: `digits`
    yields, pair by pair in listing order, the colours minus 1 of that
    pair, as arrays of `shape`.  The first pair is the most significant
    digit; codes are below k^m <= _TABLE_MAX."""
    codes = np.zeros(shape, dtype=np.int32)
    for digit in digits:
        codes *= np.int32(k)
        codes += digit
    return codes


@lru_cache(maxsize=64)
def _class_table(l: int, k: int) -> np.ndarray:
    """Read-only (k^m,) int32 table, m = l(l-1)/2, for k^m <= _TABLE_MAX:
    entry `code` is the row in `_model_keys(l, k)` of the class of the
    listing with that base-k code (see `_listing_codes`).  Every listing is
    a relabelling of exactly one model, so writing each model's l!
    relabelled listings fills the table without canonicalising any."""
    keys = _model_keys(l, k)
    digits = (np.frombuffer(b"".join(keys), np.uint8).reshape(len(keys), -1)
              - np.uint8(1))
    idx = _relabelling_index(l)
    codes = _listing_codes((digits[:, col] for col in idx.T), k,
                           (len(keys), len(idx)))
    table = np.full(k ** (l * (l - 1) // 2), -1, dtype=np.int32)
    table[codes] = np.arange(len(keys), dtype=np.int32)[:, None]
    if table.min() < 0:
        raise RuntimeError("class table (%d, %d) misses a listing" % (l, k))
    table.flags.writeable = False
    return table


def _subset_classes(flats: np.ndarray, n: int, l: int, k: int) -> np.ndarray:
    """The classes of all l-subsets of each row of a (g, m) uint8 batch of
    n-vertex k-colour listings, as rows of `_model_keys(l, k)`: a
    (g, C(n, l)) int32 array in `combinations` order within a row.  Needs
    2 <= l and k^(l(l-1)/2) <= _TABLE_MAX."""
    codes = _listing_codes(_subset_pairs(flats - np.uint8(1), n, l), k,
                           (len(flats), math.comb(n, l)))
    return _class_table(l, k)[codes]


def subgraph_class_counts(G: ColouredGraph, l: int) -> dict:
    """Map canonical key -> number of l-subsets of V(G) inducing that
    class, in key order."""
    n = G.n
    if l > n:
        raise ValueError("subgraph size exceeds |G|")
    if l > CANON_MAX_N:
        raise SizeLimitError("subgraph classes limited to l <= %d"
                             % CANON_MAX_N)
    subsets = math.comb(n, l)      # listing rows, all held at once
    if subsets > _MAX_SUBSETS:
        raise SizeLimitError("subgraph classes limited to %d subsets; "
                             "C(%d, %d) = %d" % (_MAX_SUBSETS, n, l, subsets))
    if l < 2:
        return {b"": subsets}
    m = l * (l - 1) // 2
    flats = np.frombuffer(G.entries, np.uint8)[None]
    if G.k ** m <= _TABLE_MAX:
        keys = _model_keys(l, G.k)
        rows = _subset_classes(flats, n, l, G.k).ravel()
        counts = np.bincount(rows, minlength=len(keys)).tolist()
        return {key: c for key, c in zip(keys, counts) if c}
    # canonicalise each distinct listing once, then tally
    listings = np.stack(list(_subset_pairs(flats, n, l)), axis=-1)
    raw, counts = np.unique(listings.view("S%d" % m), return_counts=True)
    keys = canonical_keys_batch(raw.view(np.uint8).reshape(-1, m), l)
    out: dict[bytes, int] = {}
    for key, count in zip(keys, counts.tolist()):
        out[key] = out.get(key, 0) + count
    return dict(sorted(out.items()))


def density(H: ColouredGraph, G: ColouredGraph) -> Fraction:
    """Probability that a uniformly random |H|-subset of V(G) induces H."""
    if H.n > G.n:
        raise ValueError("|H| > |G|")
    counts = subgraph_class_counts(G, H.n)
    hk = canonical_key(H)
    return Fraction(counts.get(hk, 0), math.comb(G.n, H.n))


def mono_triangles(G: ColouredGraph) -> dict:
    """Exact monochromatic-triangle counts, per colour and total: for each
    colour c, trace(A_c^3) / 6 with A_c the 0/1 adjacency matrix of c."""
    per = dict.fromkeys(range(1, G.k + 1), 0)
    if G.n >= 3:
        colours = np.frombuffer(G.entries, np.uint8)[_pair_table(G.n)]
        np.fill_diagonal(colours, 0)
        for c in set(G.entries):
            A = (colours == c).astype(np.float64)
            # A is symmetric, so the sum is trace(A^3); exact in float64:
            # every entry of A @ A is a count below n, and the sum is below
            # n^3 < 2^53
            per[c] = int((A @ A * A).sum()) // 6
    per["total"] = sum(per[c] for c in range(1, G.k + 1))
    return per


def goodman(n: int) -> int:
    """Minimum number of monochromatic triangles over all 2-colourings of
    K_n (the classical three-case closed form)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 0:
        return n * (n - 2) * (n - 4) // 24
    if n % 4 == 1:
        return n * (n - 1) * (n - 5) // 24
    return (n + 1) * (n - 3) * (n - 4) // 24


def corollary_value(n: int) -> int:
    """r*C(m+1,3) + (5-r)*C(m,3) with n = 5m + r: the number of
    monochromatic triangles in the balanced 5-class construction.  This
    equals the true 3-colour minimum only for sufficiently large n; e.g. at
    n = 17 the formula gives 11 while the known minimum is 5."""
    if n < 5:
        raise ValueError("n must be >= 5")
    m, r = divmod(n, 5)
    return r * math.comb(m + 1, 3) + (5 - r) * math.comb(m, 3)


def bad_family() -> list[ColouredGraph]:
    """All 4-vertex colourings with a monochromatic triangle whose extra
    edge-colour pattern (i, j, k) is (2,1,0), (1,1,1) or (0,2,1): i extra
    edges of the triangle colour, j >= k of the other two colours.
    Materialized by filtering the 66 4-vertex models."""
    members = []
    for M in enumerate_models(4, 3):
        per = mono_triangles(M)
        counts = M.edge_colour_counts()
        for c in range(1, 4):
            if per[c] == 0:
                continue
            i = counts[c] - 3
            others = sorted((counts[d] for d in range(1, 4) if d != c),
                            reverse=True)
            if (i, others[0], others[1]) in {(2, 1, 0), (1, 1, 1), (0, 2, 1)}:
                members.append(M)
                break
    return members


# ---------------------------------------------------------------------------
# text format


def format_graph(G: ColouredGraph) -> str:
    """Graph text format: "n k" then the n x n colour matrix."""
    lines = ["%d %d" % (G.n, G.k)]
    for row in G.matrix():
        lines.append(" ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def _open_text(path):
    """Open a file for _text_lines, which names the line of a bad byte."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _text_lines(source, error=ValueError):
    """The numbered, stripped, non-blank lines of a string or an open text
    file, read one line at a time.  A line longer than _MAX_LINE
    characters, its newline included, or a byte that is not UTF-8 raises
    `error`."""
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    for number in count(1):
        try:
            line = source.readline(_MAX_LINE + 1)
        except UnicodeDecodeError as exc:   # a strict decoder reads ahead
            raise error("line %d: byte 0x%02x at or after it is not UTF-8"
                        % (number, exc.object[exc.start])) from exc
        if not line:
            return
        if len(line) > _MAX_LINE:
            raise error("line %d is longer than %d characters"
                        % (number, _MAX_LINE))
        if not line.isascii() and (bad := _NOT_UTF8.search(line)):
            raise error("line %d: byte 0x%02x is not UTF-8"
                        % (number, ord(bad[0]) - 0xdc00))
        line = line.strip()
        if line:
            yield number, line


def _decimals(number: int, line: str) -> list:
    """The tokens of a graph-file line: unsigned ASCII decimal integers
    (bare int() would also take "1_0" and non-ASCII digits)."""
    toks = line.split()
    try:
        bad = next((t for t in toks if not _DECIMAL.fullmatch(t)), None)
        if bad is not None:
            raise ValueError("not a decimal integer: %.40r" % bad)
        return [int(t) for t in toks]
    except ValueError as exc:
        raise ValueError("line %d: %s" % (number, exc)) from exc


def parse_graph(source) -> ColouredGraph:
    """Read the graph text format from a string or an open text file, one
    line at a time: the header's sizes are checked before any row is read,
    and reading stops at the first non-blank line after the n rows."""
    lines = _text_lines(source)
    head = next(lines, None)
    if head is None:
        raise ValueError("empty graph text")
    head = _decimals(*head)
    if len(head) != 2:
        raise ValueError("header must be 'n k'")
    n, k = head
    _check_size(n, k)
    rows = [_decimals(*ln) for ln in islice(lines, n)]
    extra = next(lines, None) is not None
    if extra or len(rows) != n:
        raise ValueError("expected %d matrix rows, got %s"
                         % (n, "more" if extra else len(rows)))
    return ColouredGraph.from_matrix(rows, k)
