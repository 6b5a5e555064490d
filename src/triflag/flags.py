"""Types, labelled flags and their exact densities.

A type is a fully labelled coloured complete graph on {1..s}; a flag is a
coloured complete graph together with an injective, colour-respecting
embedding of a type.  Flag isomorphisms fix the labels pointwise.  The
operations here are the finite, exactly-computable quantities behind the
certificate check: flag densities, the chain rule that relates them, and
the probabilistic product coefficient over a larger model.

The certificate's coefficients are products of 4-vertex flags over
3-vertex types on 5-vertex models.  `triangle_pair_counts` counts them for
all 27 labelled types and a whole batch of models in one numpy pass: a
labelled type and a flag are each coded by their three colours, and one
gather over the 60 injections of a labelled triangle reads every
injection's type and its two flags; `avg_coefficient` is the definition
they are tested against.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from .graphs import (ColouredGraph, SizeLimitError, _pair_table,
                     enumerate_models)

# A type is just a ColouredGraph whose vertices are read as labels 1..s.
TypeSigma = ColouredGraph


def ten_types() -> list[TypeSigma]:
    """The ten 3-vertex types, one per isomorphism class of coloured
    triangles, in certificate order: the 3-vertex models, whose listings
    (their keys) are the sorted colour triples."""
    return enumerate_models(3, 3)


class Flag:
    """A coloured complete graph with a labelled embedding of a type.

    `theta[i]` is the model vertex carrying label i+1.
    """

    __slots__ = ("model", "theta")

    def __init__(self, model: ColouredGraph, theta=()):
        theta = tuple(int(v) for v in theta)
        if len(set(theta)) != len(theta):
            raise ValueError("theta must be injective")
        if any(v < 0 or v >= model.n for v in theta):
            raise ValueError("theta image out of range")
        self.model = model
        self.theta = theta

    @property
    def type_size(self) -> int:
        return len(self.theta)

    def flag_type(self) -> TypeSigma:
        """The labelled type induced on the theta image."""
        return self.model.induced(self.theta)

    def key(self) -> bytes:
        """Canonical key under label-fixing isomorphism: the minimal colour
        listing over reorderings of the unlabelled vertices only."""
        model, theta = self.model, self.theta
        rest = [v for v in range(model.n) if v not in theta]
        mat = model.matrix()
        best = None
        for perm in permutations(rest):
            order = theta + perm
            ent = tuple(mat[order[a]][order[b]]
                        for a in range(model.n)
                        for b in range(a + 1, model.n))
            if best is None or ent < best:
                best = ent
        return bytes(best) if best is not None else b""

    def __eq__(self, other):
        return (isinstance(other, Flag) and self.model == other.model
                and self.theta == other.theta)

    def __hash__(self):
        return hash((self.model, self.theta))

    def __repr__(self):
        return "Flag(%r, theta=%r)" % (self.model, self.theta)


def identity_flag(sigma: TypeSigma) -> Flag:
    return Flag(sigma, tuple(range(sigma.n)))


def flag_from_vector(sigma: TypeSigma, v) -> Flag:
    """The 4-vertex flag over a 3-vertex type whose fourth vertex sends the
    colours v = (c1, c2, c3) to labels 1, 2, 3."""
    if sigma.n != 3:
        raise ValueError("type must have 3 vertices")
    v = tuple(int(c) for c in v)
    if len(v) != 3 or any(c < 1 or c > 3 for c in v):
        raise ValueError("vector must be three colours in 1..3")
    s = sigma.entries
    model = ColouredGraph(4, 3, (s[0], s[1], v[0], s[2], v[1], v[2]))
    return Flag(model, (0, 1, 2))


def vector_of_flag(F: Flag):
    """Inverse of flag_from_vector for 4-vertex flags over 3-vertex types."""
    if F.model.n != 4 or F.type_size != 3:
        raise ValueError("not a 4-vertex flag over a 3-vertex type")
    (x,) = [u for u in range(4) if u not in F.theta]
    return tuple(F.model.colour(x, F.theta[i]) for i in range(3))


def _induced_flag(model: ColouredGraph, theta, vertices) -> Flag:
    """Flag induced on `vertices` (which must contain the theta image)."""
    vs = sorted(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    return Flag(model.induced(vs), tuple(pos[v] for v in theta))


def _respects(model_mat, sigma: TypeSigma, theta) -> bool:
    s = sigma.n
    for a in range(s):
        for b in range(a + 1, s):
            if model_mat[theta[a]][theta[b]] != sigma.colour(a, b):
                return False
    return True


def enumerate_flags(sigma: TypeSigma, l: int) -> list[Flag]:
    """One representative per flag-isomorphism class of sigma-flags on l
    vertices, in key order.  For a 3-vertex type and l = 4 the key order is
    the colour-vector order: the flags' `vector_of_flag`s are
    `product((1, 2, 3), repeat=3)`."""
    s = sigma.n
    if l < s:
        raise ValueError("l must be >= |sigma|")
    if s == 3 and l > 5:
        raise SizeLimitError("flags over 3-vertex types limited to l <= 5")
    if l == s:
        return [identity_flag(sigma)]
    out: dict[bytes, Flag] = {}
    for M in enumerate_models(l, sigma.k):
        mat = M.matrix()
        for theta in permutations(range(l), s):
            if not _respects(mat, sigma, theta):
                continue
            F = Flag(M, theta)
            key = F.key()
            if key not in out:
                out[key] = F
    return [out[key] for key in sorted(out)]


def _check_same_type(F: Flag, G: Flag):
    if F.type_size != G.type_size or F.flag_type() != G.flag_type():
        raise ValueError("flags must share the same labelled type")


def flag_density(F: Flag, G: Flag) -> Fraction:
    """Probability that a random |F|-superset of the labelled vertices of G
    induces a flag isomorphic to F.  Zero when |G| < |F|."""
    _check_same_type(F, G)
    l, m = F.model.n, G.model.n
    if m < l:
        return Fraction(0)
    fk = F.key()
    rest = [v for v in range(m) if v not in G.theta]
    need = l - F.type_size
    hits = 0
    total = 0
    for extra in combinations(rest, need):
        total += 1
        sub = _induced_flag(G.model, G.theta, list(G.theta) + list(extra))
        if sub.key() == fk:
            hits += 1
    return Fraction(hits, total)


def avg_coefficient(tau: TypeSigma, K1: Flag, K2: Flag,
                    L: ColouredGraph) -> Fraction:
    """Coefficient of L in the unlabelled flag product of K1 and K2.

    The probability that a uniformly random injection of the type into V(L),
    followed by a uniformly random split of the remaining vertices into two
    sides of the right sizes, induces flags isomorphic to K1 and K2.
    Injections that do not induce the type count as failures.
    """
    s = tau.n
    if K1.type_size != s or K2.type_size != s:
        raise ValueError("flag type size mismatch")
    if K1.flag_type() != tau or K2.flag_type() != tau:
        raise ValueError("flags are not over the given type")
    l1, l2 = K1.model.n, K2.model.n
    if L.n != l1 + l2 - s:
        raise ValueError("|L| must equal |K1| + |K2| - |tau|")
    k1, k2 = K1.key(), K2.key()
    mat = L.matrix()
    hits = 0
    total = 0
    for theta in permutations(range(L.n), s):
        rest = [v for v in range(L.n) if v not in theta]
        nsplit = math.comb(len(rest), l1 - s)
        if not _respects(mat, tau, theta):
            total += nsplit
            continue
        for A in combinations(rest, l1 - s):
            total += 1
            B = [v for v in rest if v not in A]
            fa = _induced_flag(L, theta, list(theta) + list(A))
            if fa.key() != k1:
                continue
            fb = _induced_flag(L, theta, list(theta) + list(B))
            if fb.key() == k2:
                hits += 1
    return Fraction(hits, total)


def _colour_code(colours) -> int:
    """9(c1 - 1) + 3(c2 - 1) + (c3 - 1) for three colours in 1..3: the
    labelled 3-vertex type with listing (c1, c2, c3), or the flag with
    colour vector (c1, c2, c3); the 27 codes follow `product` order."""
    c1, c2, c3 = colours
    if not 1 <= min(c1, c2, c3) <= max(c1, c2, c3) <= 3:
        raise ValueError("colours must be in 1..3")
    return 9 * c1 + 3 * c2 + c3 - 13


def _injection_positions() -> np.ndarray:
    """(60, 9) listing positions, one row per injection (a, b, c) of a
    labelled triangle into 5 vertices, in `permutations` order, with x < y
    the other two vertices: the pairs ab, ac, bc, then xa, xb, xc, then
    ya, yb, yc."""
    pos = _pair_table(5)
    rows = []
    for a, b, c in permutations(range(5), 3):
        x, y = (v for v in range(5) if v not in (a, b, c))
        rows.append([pos[a, b], pos[a, c], pos[b, c]]
                    + [pos[u, w] for u in (x, y) for w in (a, b, c)])
    return np.array(rows)


_INJECTIONS = _injection_positions()


def triangle_pair_counts(flats: np.ndarray):
    """Pair counts of all 27 labelled 3-vertex types over a batch of
    5-vertex models, in one numpy pass.

    `flats` is a (g, 10) uint8 batch of listings with colours in 1..3.  One
    gather over the 60 injections (a, b, c) of a labelled triangle gives
    each injection's type code (`_colour_code` of the colours of ab, ac,
    bc) and the flag codes of the two other vertices x < y (the colours
    they send to a, b, c).  Returns (cells, counts, valid):

      * cells: sorted distinct codes ((t * g + row) * 27 + i) * 27 + j;
      * counts: how many (injection, split) outcomes of type t in that row
        induce flags i and j (each outcome has probability 1/120); every
        injection adds both (i, j) and (j, i), so the counts are symmetric;
      * valid: a (27, g) array, valid[t, row] the injections of type t.
    """
    flats = np.asarray(flats)
    if flats.ndim != 2 or flats.shape[1] != 10 or flats.dtype != np.uint8:
        raise ValueError("need a (g, 10) uint8 batch of 5-vertex listings")
    if flats.size and not (flats.min() >= 1 and flats.max() <= 3):
        raise ValueError("colours must be in 1..3")
    g = len(flats)
    c = flats[:, _INJECTIONS].reshape(g, 60, 3, 3)
    codes = (9 * c[..., 0] + 3 * c[..., 1] + c[..., 2] - 13).astype(np.int64)
    t, fx, fy = codes[:, :, 0], codes[:, :, 1], codes[:, :, 2]
    typed = t * g + np.arange(g)[:, None]
    cells, counts = np.unique(np.concatenate(
        [(typed * 27 + fx) * 27 + fy, (typed * 27 + fy) * 27 + fx],
        axis=None), return_counts=True)
    valid = np.bincount(typed.ravel(), minlength=27 * g).reshape(27, g)
    return cells, counts, valid


def verify_chain_rule(F: Flag, m: int, H: Flag) -> bool:
    """Check p(F, H) = sum over l=m flags G of p(F, G) p(G, H), exactly.

    The m-subset classes of H are tallied once, so each subset key is
    computed a single time rather than once per flag G.
    """
    if not F.model.n <= m <= H.model.n:
        raise ValueError("need |F| <= m <= |H|")
    sigma = F.flag_type()
    lhs = flag_density(F, H)
    rest = [v for v in range(H.model.n) if v not in H.theta]
    tallies: Counter = Counter()
    for extra in combinations(rest, m - sigma.n):
        sub = _induced_flag(H.model, H.theta, list(H.theta) + list(extra))
        tallies[sub.key()] += 1
    total = sum(tallies.values())
    rhs = Fraction(0)
    for G in enumerate_flags(sigma, m):
        hits = tallies.get(G.key(), 0)
        if hits:
            rhs += flag_density(F, G) * Fraction(hits, total)
    return lhs == rhs

