"""The extremal construction, membership in the extremal family, and the
exact small-n minimum.

The construction G_ex(n) is the balanced blow-up of the unique triangle-free
2-colouring of K_5 (green 5-cycle plus blue complement): each base vertex
becomes a vertex class, edges inside a class are red, and cross edges take
the colour of the base edge between their classes.

Membership in the wider extremal family additionally allows recolouring a
matching between any two classes with the clique colour, as long as no new
monochromatic triangle appears.  `is_member_gn` decides membership exactly
for every admitted graph: it reads the classes off the triangles of the
clique colour, with no search.  `brute_min_mono` finds the minimum number
of monochromatic triangles over all colourings of a small K_n by
exhaustive enumeration, within the bounds of `enumerate_models`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .graphs import (ColouredGraph, _check_size, corollary_value,
                     enumerate_models, mono_triangles)


@dataclass(frozen=True)
class ClassPartition:
    """Five disjoint monochromatic cliques of one colour covering V."""

    classes: tuple          # tuple of frozenset
    colour: int

    def validate(self, G: ColouredGraph) -> bool:
        seen = set()
        for cls in self.classes:
            if seen & cls:
                return False
            seen |= cls
            for u, v in combinations(sorted(cls), 2):
                if G.colour(u, v) != self.colour:
                    return False
        return seen == set(range(G.n)) and len(self.classes) == 5


@dataclass(frozen=True)
class MembershipWitness:
    partition: ClassPartition
    base_colours: dict      # (i, j) class pair -> cross colour
    matchings: dict         # (i, j) class pair -> frozenset of recoloured edges


def pentagon_base() -> ColouredGraph:
    """The unique monochromatic-triangle-free 2-colouring of K_5:
    green cycle 1-2-3-4-5-1, blue complement."""
    rows = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            green = (j - i) % 5 in (1, 4)
            rows[i][j] = rows[j][i] = 3 if green else 2
    return ColouredGraph.from_matrix(rows)


def class_sizes(n: int, m: int) -> list[int]:
    """Balanced class sizes, larger classes first."""
    q, r = divmod(n, m)
    return [q + 1] * r + [q] * (m - r)


def build_gex(n: int) -> ColouredGraph:
    """The balanced blow-up G_ex(n) of the pentagon colouring.

    Classes take the sizes from class_sizes (deterministic layout, larger
    classes on the lower base vertices), intra-class edges are red (colour
    1), and cross edges inherit the base colouring.
    """
    if n < 5:
        raise ValueError("n must be at least |base| = 5")
    _check_size(n, 3)
    base = pentagon_base()
    owner = [ci for ci, size in enumerate(class_sizes(n, 5))
             for _ in range(size)]
    return ColouredGraph(n, 3, [
        1 if owner[u] == owner[v] else base.colour(owner[u], owner[v])
        for u in range(n) for v in range(u + 1, n)])


def _candidate_classes(mat, colour: int, sizes):
    """Candidate classes of the given sizes, in order of their first
    vertex, not yet checked to be disjoint cliques: a class of three or
    more vertices is a vertex with its neighbours across `colour`-edges in
    a `colour`-triangle; the vertices on no such edge are paired along
    `colour`-edges in every way."""
    adj = [sum(1 << u for u, c in enumerate(row) if c == colour)
           for row in mat]
    mates = [frozenset(u for u, c in enumerate(row)
                       if c == colour and adj[v] & adj[u])
             for v, row in enumerate(mat)]
    big = {m | {v} for v, m in enumerate(mates) if m}
    rest = [v for v, m in enumerate(mates) if not m]
    small = [s for s in sizes if s < 3]
    if (sorted(map(len, big), reverse=True) + small != sizes
            or len(rest) != sum(small)):
        return
    edges = [(u, v) for u, v in combinations(rest, 2) if mat[u][v] == colour]
    for pairs in combinations(edges, small.count(2)):
        paired = {v for e in pairs for v in e}
        if len(paired) == 2 * len(pairs):
            yield sorted([*big, *map(frozenset, pairs),
                          *(frozenset([v]) for v in rest if v not in paired)],
                         key=min)


def is_member_gn(G: ColouredGraph):
    """Membership in the extremal family: a balanced 5-class clique
    partition in some colour c, cross pairs coloured in a single base colour
    except for a c-matching, base pattern isomorphic to the pentagon
    colouring, and no monochromatic triangles beyond the c-triangles inside
    classes.  Returns (bool, witness or None).

    Balanced classes hold corollary_value(n) c-triangles, all that the
    graph may have, so no c-triangle of a member crosses two classes, and
    a class of three or more vertices is any of its vertices with its
    neighbours across c-edges in a c-triangle.  The at most ten vertices
    left over (none for n >= 15) form the classes of one or two.
    """
    n = G.n
    if n < 5:
        return False, None
    if G.k != 3:
        raise ValueError("membership test is defined for k = 3")
    per = mono_triangles(G)
    if per["total"] != corollary_value(n):
        return False, None
    mat = G.matrix()
    for colour in range(1, 4):
        # all monochromatic triangles must be in the clique colour
        if per[colour] != per["total"]:
            continue
        for classes in _candidate_classes(mat, colour, class_sizes(n, 5)):
            if ClassPartition(tuple(classes), colour).validate(G):
                witness = _check_cross_structure(mat, classes, colour)
                if witness is not None:
                    return True, witness
    return False, None


def _check_cross_structure(mat, classes, colour):
    """Validate cross-pair colours for a candidate partition, given the
    colour matrix; returns a MembershipWitness or None."""
    npairs = list(combinations(range(5), 2))
    base_colour: dict = {}
    matchings: dict = {}
    ambiguous = []
    for i, j in npairs:
        edges = [(u, v) for u in sorted(classes[i]) for v in sorted(classes[j])]
        non_c = {mat[u][v] for u, v in edges if mat[u][v] != colour}
        c_edges = [(u, v) for u, v in edges if mat[u][v] == colour]
        if len(non_c) > 1:
            return None
        # recoloured cross edges must form a matching
        touched = [x for e in c_edges for x in e]
        if len(touched) != len(set(touched)):
            return None
        matchings[i, j] = frozenset(c_edges)
        if non_c:
            base_colour[i, j] = non_c.pop()
        else:
            ambiguous.append((i, j))
    others = [c for c in range(1, 4) if c != colour]
    for choice in product(others, repeat=len(ambiguous)):
        assignment = dict(base_colour)
        assignment.update(dict(zip(ambiguous, choice)))
        rows = [[0] * 5 for _ in range(5)]
        for (i, j), c in assignment.items():
            rows[i][j] = rows[j][i] = c
        base = ColouredGraph.from_matrix(rows)
        # a triangle-free 2-colouring of K_5 is automatically the pentagon
        # pattern (unique up to isomorphism), in whatever colour pair
        if mono_triangles(base)["total"] == 0:
            part = ClassPartition(tuple(classes), colour)
            return MembershipWitness(part, assignment, matchings)
    return None


def brute_min_mono(n: int, k: int):
    """Exact minimum number of monochromatic triangles over all
    k-colourings of K_n, with the complete list of minimiser canonical
    keys.  Exhaustive up to isomorphism, within enumerate_models's bounds:
    (7, 2), (6, 3) and (5, 4) are admitted, (8, 2), (7, 3) and (6, 4) not."""
    best = None
    minimisers = []
    for M in enumerate_models(n, k):
        t = mono_triangles(M)["total"]
        if best is None or t < best:
            best = t
            minimisers = [M]
        elif t == best:
            minimisers.append(M)
    return best, [M.entries for M in minimisers]
