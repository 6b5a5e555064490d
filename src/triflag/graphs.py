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
One numpy kernel finds it for a whole batch of listings: it gathers every
relabelled listing through a cached index and takes one `argmin` over them
as fixed-width byte strings.  Models are sorted by these keys and reports
print them, so they stay this global minimum; colour-profile refinement
would not lift the size limit either, since every vertex of a balanced
blow-up has the same profile.  Isomorphism testing does not canonicalise:
it is a search with colour-profile candidates and forward checking, exact
for every n.

Listing batches are built by numpy and deduplicated as the same byte
strings: one gather lists all l-subsets of a batch of graphs, and
enumeration extends every model by all colourings of a new vertex's edges.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np

CANON_MAX_N = 10       # exhaustive canonicalization limit
GRAPH_MAX_N = 400      # vertex limit of a ColouredGraph (see README)
_DECIMAL = re.compile(r"[0-9]+")
_BATCH_BYTES = 1 << 20  # bytes of relabelled listings per gather (min. one row)
_MAX_CANDIDATES = 192_456  # extension batch of enumerate_models(6, 3)


class SizeLimitError(ValueError):
    """Input exceeds the size supported by an exhaustive operation."""


def _check_size(n: int, k: int):
    # colours are stored one byte each, in listings and canonical keys;
    # counting monochromatic triangles loops over all C(n, 3) triples
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
        """Graph H with H[a][b] = self[perm[a]][perm[b]]."""
        n = self.n
        ent = [self.colour(perm[i], perm[j])
               for i in range(n) for j in range(i + 1, n)]
        return ColouredGraph(n, self.k, ent)

    def induced(self, vertices) -> "ColouredGraph":
        vs = list(vertices)
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


@lru_cache(maxsize=16)
def _pair_table(n: int) -> np.ndarray:
    """Read-only (n, n) int32 P, P[a, b] = P[b, a] the position of {a, b}."""
    table = np.zeros((n, n), dtype=np.int32)
    a, b = np.triu_indices(n, 1)
    table[a, b] = table[b, a] = _pair_index(n, a, b)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _relabelling_index(n: int) -> np.ndarray:
    """(n!, m) uint8 array I with listing[I[q]] the listing of the graph
    relabelled by the q-th permutation of range(n) in lexicographic order
    (the order of `itertools.permutations`)."""
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


def _lex_min(flats: np.ndarray, n: int):
    """Smallest relabelled listing of each row of a (g, m) uint8 batch of
    n-vertex listings, and the lexicographic rank of a permutation giving
    it (the first one).  Colours are at least 1, so no listing holds a zero
    byte and fixed-width numpy byte strings order listings as bytes do."""
    if n > CANON_MAX_N:
        raise SizeLimitError("canonicalisation limited to n <= %d"
                             % CANON_MAX_N)
    m = n * (n - 1) // 2
    if m == 0:
        return [b""] * len(flats), [0] * len(flats)
    # the index is kept up to n = 9 (13 MB, and rebuilding it costs a
    # 9-vertex key far more than its gather); at n = 10 it takes 163 MB and
    # is rebuilt on each call
    idx = (_relabelling_index(n) if n <= 9
           else _relabelling_index.__wrapped__(n))
    step = max(1, _BATCH_BYTES // idx.size)
    keys, ranks = [], []
    for start in range(0, len(flats), step):
        block = flats[start:start + step]
        listings = np.ascontiguousarray(block[:, idx]).view("S%d" % m)
        listings = listings.reshape(len(block), -1)
        best = listings.argmin(axis=1)
        keys.extend(listings[np.arange(len(block)), best].tolist())
        ranks.extend(best.tolist())
    return keys, ranks


def canonical_keys_batch(flats: np.ndarray, n: int) -> list[bytes]:
    """Canonical keys for a batch of graphs given as a (g, m) uint8 array."""
    return _lex_min(flats, n)[0]


def canonical_form(G: ColouredGraph):
    """Canonical key and the relabelling permutation achieving it.

    The key is the lexicographically smallest colour listing over all n!
    relabellings, so n is limited to CANON_MAX_N.  Returns (key, perm)
    where perm maps canonical positions to original vertices:
    G.relabel(perm).entries == key.
    """
    flat = np.frombuffer(G.entries, dtype=np.uint8).reshape(1, -1)
    (key,), (rank,) = _lex_min(flat, G.n)
    rest = list(range(G.n))
    perm = []
    for size in range(G.n, 0, -1):
        q, rank = divmod(rank, math.factorial(size - 1))
        perm.append(rest.pop(q))
    return key, tuple(perm)


def canonical_key(G: ColouredGraph) -> bytes:
    return canonical_form(G)[0]


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


def _subset_listings(flats: np.ndarray, n: int, l: int) -> np.ndarray:
    """The listings of all l-subsets of each row of a (g, m) uint8 batch of
    n-vertex listings: a (g * C(n, l), l(l-1)/2) array, row by row and in
    `combinations` order within a row."""
    pos = _pair_table(n)
    subsets = np.fromiter(chain.from_iterable(combinations(range(n), l)),
                          np.int32, math.comb(n, l) * l).reshape(-1, l)
    pairs = list(combinations(range(l), 2))
    # one pair column at a time: numpy casts an index array to intp, and a
    # whole (C(n, l), m) index tripled the peak memory of this gather
    out = np.empty((len(flats), len(subsets), len(pairs)), dtype=np.uint8)
    for t, (i, j) in enumerate(pairs):
        out[:, :, t] = np.take(flats, pos[subsets[:, i], subsets[:, j]], 1)
    return out.reshape(-1, len(pairs))


def subgraph_class_counts(G: ColouredGraph, l: int) -> dict:
    """Map canonical key -> number of l-subsets of V(G) inducing that class."""
    n = G.n
    if l > n:
        raise ValueError("subgraph size exceeds |G|")
    if l > CANON_MAX_N:
        raise SizeLimitError("subgraph classes limited to l <= %d"
                             % CANON_MAX_N)
    if l < 2:
        return {b"": math.comb(n, l)}
    m = l * (l - 1) // 2
    listings = _subset_listings(np.frombuffer(G.entries, np.uint8)[None], n, l)
    # canonicalise each distinct listing once, then tally
    raw, counts = np.unique(listings.view("S%d" % m), return_counts=True)
    keys = canonical_keys_batch(raw.view(np.uint8).reshape(-1, m), l)
    out: dict[bytes, int] = {}
    for key, count in zip(keys, counts.tolist()):
        out[key] = out.get(key, 0) + count
    return out


def density(H: ColouredGraph, G: ColouredGraph) -> Fraction:
    """Probability that a uniformly random |H|-subset of V(G) induces H."""
    if H.n > G.n:
        raise ValueError("|H| > |G|")
    counts = subgraph_class_counts(G, H.n)
    hk = canonical_key(H)
    return Fraction(counts.get(hk, 0), math.comb(G.n, H.n))


def mono_triangles(G: ColouredGraph) -> dict:
    """Exact monochromatic-triangle counts, per colour and total."""
    per = dict.fromkeys(range(1, G.k + 1), 0)
    mat = G.matrix()
    for a, b, c in combinations(range(G.n), 3):
        if mat[a][b] == mat[a][c] == mat[b][c]:
            per[mat[a][b]] += 1
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


def _decimals(line: str) -> list:
    """The tokens of a graph-file line: unsigned ASCII decimal integers
    (bare int() would also take "1_0" and non-ASCII digits)."""
    toks = line.split()
    bad = next((t for t in toks if not _DECIMAL.fullmatch(t)), None)
    if bad is not None:
        raise ValueError("not a decimal integer: %.40r" % bad)
    return [int(t) for t in toks]


def parse_graph(text: str) -> ColouredGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph text")
    head = _decimals(lines[0])
    if len(head) != 2:
        raise ValueError("header must be 'n k'")
    n, k = head
    _check_size(n, k)
    if len(lines) != n + 1:
        raise ValueError("expected %d matrix rows, got %d" % (n, len(lines) - 1))
    return ColouredGraph.from_matrix([_decimals(ln) for ln in lines[1:]], k)
