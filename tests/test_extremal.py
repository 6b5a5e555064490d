import random

import pytest

from triflag.extremal import (_check_cross_structure, brute_min_mono,
                              build_gex, class_sizes, is_member_gn,
                              pentagon_base)
from triflag.graphs import (ColouredGraph, SizeLimitError, bad_family,
                            canonical_key, corollary_value, goodman,
                            is_isomorphic, mono_triangles,
                            subgraph_class_counts)


def test_pentagon_base_properties():
    P = pentagon_base()
    assert mono_triangles(P)["total"] == 0
    for v in range(5):
        row = [P.colour(v, u) for u in range(5) if u != v]
        assert sorted(row) == [2, 2, 3, 3]


def test_pentagon_unique_up_to_isomorphism():
    want = canonical_key(pentagon_base())
    found = set()
    for mask in range(1024):
        entries = tuple(2 + ((mask >> e) & 1) for e in range(10))
        G = ColouredGraph(5, 3, entries)
        if mono_triangles(G)["total"] == 0:
            found.add(canonical_key(G))
    assert found == {want}


def test_class_sizes():
    assert class_sizes(11, 5) == [3, 2, 2, 2, 2]
    assert class_sizes(25, 5) == [5, 5, 5, 5, 5]
    assert class_sizes(7, 5) == [2, 2, 1, 1, 1]


def test_build_gex_small_cases():
    g5 = build_gex(5)
    assert mono_triangles(g5)["total"] == 0
    assert is_isomorphic(
        g5, ColouredGraph(5, 3, pentagon_base().entries))
    g11 = build_gex(11)
    per = mono_triangles(g11)
    assert per["total"] == 1 and per[1] == 1
    assert mono_triangles(build_gex(20))["total"] == 20


def test_build_gex_validation():
    with pytest.raises(ValueError):
        build_gex(4)


def test_count_identity_over_range():
    for n in range(5, 61):
        assert mono_triangles(build_gex(n))["total"] == corollary_value(n)


def test_gex_has_no_bad_subgraphs():
    four_classes = subgraph_class_counts(build_gex(10), 4)
    assert not four_classes.keys() & {canonical_key(H) for H in bad_family()}


def test_membership_of_constructions():
    for n in range(5, 13):
        member, witness = is_member_gn(build_gex(n))
        assert member
        assert witness.partition.validate(build_gex(n))
        assert sorted((len(c) for c in witness.partition.classes),
                      reverse=True) == class_sizes(n, 5)


def eleven_vertex_pair():
    """The balanced 11-vertex construction and a second family member
    obtained by recolouring a legal cross-class matching."""
    g = build_gex(11)
    rows = [list(r) for r in g.matrix()]
    # classes are [0,1,2], [3,4], ...; recolour the matching
    # {(0,3), (1,4)} between the first two classes with the clique colour
    for u, v in [(0, 3), (1, 4)]:
        assert rows[u][v] == 3
        rows[u][v] = rows[v][u] = 1
    return g, ColouredGraph.from_matrix(rows)


def test_second_family_member():
    g, g2 = eleven_vertex_pair()
    assert mono_triangles(g2)["total"] == 1
    member, witness = is_member_gn(g2)
    assert member
    assert any(witness.matchings.values())
    assert not is_isomorphic(g, g2)


def test_non_matching_recolouring_is_rejected():
    # two red edges from one vertex into a class close a red cross
    # triangle with that class's own red edge: at n = 11 from vertex 3
    # into the class [0, 1, 2], at n = 15 from vertex 0 into [3, 4, 5]
    for n, edges in [(11, [(0, 3), (1, 3)]), (15, [(0, 3), (0, 4)])]:
        rows = [list(r) for r in build_gex(n).matrix()]
        for u, v in edges:
            assert rows[u][v] != 1
            rows[u][v] = rows[v][u] = 1
        g3 = ColouredGraph.from_matrix(rows)
        assert mono_triangles(g3)["total"] != corollary_value(n)
        assert not is_member_gn(g3)[0]


def test_members_of_recoloured_constructions_have_matchings():
    # the cross c-edges of a member form matchings, though no check but
    # the triangle count refuses two c-edges from one vertex into a class
    rng = random.Random(32)
    members = wide = 0          # wide: some class pair has two c-edges
    for n in range(5, 23):
        rows = build_gex(n).matrix()
        cross = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rows[u][v] != 1]
        for _ in range(12):
            recoloured = [list(row) for row in rows]
            for u, v in rng.sample(cross, rng.randint(1, 6)):
                recoloured[u][v] = recoloured[v][u] = 1
            member, witness = is_member_gn(
                ColouredGraph.from_matrix(recoloured))
            if member:
                members += 1
                for edges in witness.matchings.values():
                    ends = [x for e in edges for x in e]
                    assert len(ends) == len(set(ends)), (n, edges)
                wide += any(len(e) > 1 for e in witness.matchings.values())
    assert members > 100 and wide > 10


def test_membership_is_colour_permutation_invariant():
    g = build_gex(9)
    swapped = ColouredGraph(
        9, 3, tuple({1: 2, 2: 1, 3: 3}[c] for c in g.entries))
    assert is_member_gn(swapped)[0]


def test_membership_rejects_wrong_counts():
    assert not is_member_gn(ColouredGraph(6, 3, (1,) * 15))[0]


def test_brute_min_two_colours_matches_goodman():
    for n in range(3, 8):
        best, minimisers = brute_min_mono(n, 2)
        assert best == goodman(n)
        assert minimisers


def test_brute_min_three_colours_small():
    best, minimisers = brute_min_mono(5, 3)
    assert best == 0
    assert canonical_key(pentagon_base()) in minimisers


def test_brute_min_limits():
    # the bounds of enumerate_models: (5, 4) has 10,688 models
    best, minimisers = brute_min_mono(5, 4)
    assert best == 0 and minimisers
    for n, k in [(8, 2), (7, 3), (6, 4)]:
        with pytest.raises(SizeLimitError):
            brute_min_mono(n, k)


# ---------------------------------------------------------------------------
# membership against a search over every clique partition


def _sizes_feasible(classes, size_pool) -> bool:
    """Can the current class sizes still grow into the target multiset?

    With no more classes than targets and both lists sorted in decreasing
    order, an embedding of classes into distinct targets exists iff the
    i-th largest class fits under the i-th largest target.
    """
    current = sorted((len(c) for c in classes), reverse=True)
    return all(c <= p for c, p in zip(current, size_pool))


def _partitions_into_cliques(G, colour, sizes):
    """Yield partitions of V(G) into cliques of `colour` whose size
    multiset is exactly `sizes` (backtracking over vertices in order)."""
    n = G.n
    mat = G.matrix()
    size_pool = sorted(sizes, reverse=True)
    classes = []

    def place(v):
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


def oracle_membership(G):
    """(verdict, clique colour or None) by backtracking over every
    partition into cliques of one colour with the balanced sizes."""
    per = mono_triangles(G)
    if per["total"] != corollary_value(G.n):
        return False, None
    for colour in range(1, 4):
        if any(per[c] for c in range(1, 4) if c != colour):
            continue
        for classes in _partitions_into_cliques(G, colour, class_sizes(G.n, 5)):
            if _check_cross_structure(G.matrix(), classes, colour):
                return True, colour
    return False, None


def one_edge_changed(G, rng):
    ent = list(G.entries)
    t = rng.randrange(len(ent))
    ent[t] = rng.choice([c for c in (1, 2, 3) if c != ent[t]])
    return ColouredGraph(G.n, 3, ent)


def count_passing_colouring(n, rng):
    """A random colouring driven by single-edge changes to the
    construction's triangle count, all of one colour: it passes the
    count test, so membership rests on the classes and the cross pairs."""
    def cost(ent):
        per = mono_triangles(ColouredGraph(n, 3, ent))
        rest = sorted(per[c] for c in (1, 2, 3))
        return abs(per["total"] - corollary_value(n)) + rest[0] + rest[1]

    ent = [rng.randint(1, 3) for _ in range(n * (n - 1) // 2)]
    now = cost(ent)
    while now:
        t = rng.randrange(len(ent))
        old, ent[t] = ent[t], rng.randint(1, 3)
        new = cost(ent)
        if new <= now:
            now = new
        else:
            ent[t] = old
    return ColouredGraph(n, 3, ent)


def membership_cases(shuffled_member):
    rng = random.Random(2012)
    for n in range(5, 26):
        for pairs in (0, 1, 1, 2, 2, 3, 3, 4, 4, 4):
            G = shuffled_member(n, rng, pairs)
            yield G
            yield one_edge_changed(G, rng)
    for n in range(5, 13):
        for _ in range(12):
            yield count_passing_colouring(n, rng)


def test_membership_agrees_with_the_clique_partition_search(shuffled_member):
    members = counted = 0
    for G in membership_cases(shuffled_member):
        member, witness = is_member_gn(G)
        colour = witness.partition.colour if member else None
        assert (member, colour) == oracle_membership(G)
        if member:
            assert witness.partition.validate(G)
            assert sorted(map(len, witness.partition.classes),
                          reverse=True) == class_sizes(G.n, 5)
        members += member
        counted += mono_triangles(G)["total"] == corollary_value(G.n)
    # members, and non-members that reach the classes and the cross pairs
    assert members > 250 and counted - members > 50
