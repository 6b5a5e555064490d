"""The extremal construction, membership in the extremal family, and the
exact small-n minimum.

The construction G_ex(n) is the balanced blow-up of the unique triangle-free
2-colouring of K_5 (green 5-cycle plus blue complement): each base vertex
becomes a vertex class, edges inside a class are red, and cross edges take
the colour of the base edge between their classes.

Membership in the wider extremal family additionally allows recolouring a
matching between any two classes with the clique colour, as long as no new
monochromatic triangle appears.  `is_member_gn` decides membership exactly
(up to EXACT_PARTITION_MAX_N vertices) by backtracking over the partitions
of V into five cliques of one colour with the balanced class sizes.
`brute_min_mono` finds the minimum number of monochromatic triangles over
all colourings of a small K_n by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .graphs import (ColouredGraph, SizeLimitError, _check_size,
                     corollary_value, mono_triangles)

EXACT_PARTITION_MAX_N = 25


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


def _sizes_feasible(classes, size_pool) -> bool:
    """Can the current class sizes still grow into the target multiset?

    With no more classes than targets and both lists sorted in decreasing
    order, an embedding of classes into distinct targets exists iff the
    i-th largest class fits under the i-th largest target.
    """
    current = sorted((len(c) for c in classes), reverse=True)
    return all(c <= p for c, p in zip(current, size_pool))


def _partitions_into_cliques(G: ColouredGraph, colour: int, sizes):
    """Yield partitions of V(G) into cliques of `colour` whose size
    multiset is exactly `sizes` (backtracking over vertices in order)."""
    n = G.n
    mat = G.matrix()
    size_pool = sorted(sizes, reverse=True)
    classes: list[list[int]] = []

    def place(v: int):
        if v == n:
            if sorted((len(c) for c in classes), reverse=True) == size_pool:
                yield tuple(frozenset(c) for c in classes)
            return
        for cls in classes:
            if all(mat[v][u] == colour for u in cls):
                cls.append(v)
                if _sizes_feasible(classes, size_pool):
                    yield from place(v + 1)
                cls.pop()
        if len(classes) < len(size_pool):
            classes.append([v])
            if _sizes_feasible(classes, size_pool):
                yield from place(v + 1)
            classes.pop()

    yield from place(0)


def is_member_gn(G: ColouredGraph):
    """Membership in the extremal family: a balanced 5-class clique
    partition in some colour c, cross pairs coloured in a single base colour
    except for a c-matching, base pattern isomorphic to the pentagon
    colouring, and no monochromatic triangles beyond the c-triangles inside
    classes.  Returns (bool, witness or None)."""
    n = G.n
    if n < 5:
        return False, None
    if G.k != 3:
        raise ValueError("membership test is defined for k = 3")
    if n > EXACT_PARTITION_MAX_N:
        raise SizeLimitError("membership test limited to n <= %d"
                             % EXACT_PARTITION_MAX_N)
    target_sizes = tuple(sorted(class_sizes(n, 5), reverse=True))
    per = mono_triangles(G)
    if per["total"] != corollary_value(n):
        return False, None
    for colour in range(1, 4):
        # all monochromatic triangles must be in the clique colour
        if any(per[c] for c in range(1, 4) if c != colour):
            continue
        for classes in _partitions_into_cliques(G, colour, target_sizes):
            witness = _check_cross_structure(G, classes, colour)
            if witness is not None:
                return True, witness
    return False, None


def _check_cross_structure(G: ColouredGraph, classes, colour):
    """Validate cross-pair colours for a candidate partition; returns a
    MembershipWitness or None."""
    mat = G.matrix()
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
    keys.  Exhaustive up to isomorphism; limited to (k=2, n<=7) and
    (k=3, n<=6)."""
    from .graphs import enumerate_models
    if not ((k == 2 and n <= 7) or (k == 3 and n <= 6)):
        raise SizeLimitError("brute force limited to k=2 n<=7 / k=3 n<=6")
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
