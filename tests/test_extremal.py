import random
from itertools import combinations

import pytest

from triflag.extremal import (brute_min_mono, build_gex, class_sizes,
                              clique_partition_5, is_member_gn,
                              maximal_mono_cliques, pentagon_base)
from triflag.graphs import (ColouredGraph, SizeLimitError, bad_family,
                            canonical_key, corollary_value, family_density,
                            goodman, is_isomorphic, mono_triangles)


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
    bad_base = ColouredGraph(3, 3, (2, 2, 2))
    with pytest.raises(ValueError):
        build_gex(9, base=bad_base)


def test_count_identity_over_range():
    for n in range(5, 61):
        assert mono_triangles(build_gex(n))["total"] == corollary_value(n)


def test_gex_has_no_bad_subgraphs():
    assert family_density(bad_family(), build_gex(10)) == 0


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
    g = build_gex(11)
    rows = [list(r) for r in g.matrix()]
    for u, v in [(0, 3), (1, 3)]:     # two edges meeting at vertex 3
        rows[u][v] = rows[v][u] = 1
    g3 = ColouredGraph.from_matrix(rows)
    assert mono_triangles(g3)["total"] != corollary_value(11)
    assert not is_member_gn(g3)[0]


def test_membership_is_colour_permutation_invariant():
    g = build_gex(9)
    swapped = ColouredGraph(
        9, 3, tuple({1: 2, 2: 1, 3: 3}[c] for c in g.entries))
    assert is_member_gn(swapped)[0]


def test_membership_rejects_wrong_counts():
    assert not is_member_gn(ColouredGraph(6, 3, (1,) * 15))[0]


def test_clique_partition_examples():
    part = clique_partition_5(build_gex(15))
    assert part is not None
    assert sorted(len(c) for c in part.classes) == [3, 3, 3, 3, 3]
    part = clique_partition_5(pentagon_base())
    assert part is not None
    assert all(len(c) == 1 for c in part.classes)
    assert clique_partition_5(ColouredGraph(6, 3, (2,) * 15)) is not None
    assert clique_partition_5(ColouredGraph(3, 3, (1, 1, 1))) is None
    part = clique_partition_5(build_gex(30))        # greedy search, n > 25
    assert part is not None and part.colour == 1
    assert sorted(len(c) for c in part.classes) == [6, 6, 6, 6, 6]


def test_maximal_mono_cliques():
    cliques = maximal_mono_cliques(build_gex(25))
    assert len(cliques) == 5
    assert all(colour == 1 and len(vs) == 5 for vs, colour in cliques)
    assert maximal_mono_cliques(pentagon_base()) == []
    big = maximal_mono_cliques(ColouredGraph(6, 3, (1,) * 15))
    assert len(big) == 1 and len(big[0][0]) == 6


def _brute_maximal_cliques(G, colour):
    cliques = [set(S) for r in range(1, G.n + 1)
               for S in combinations(range(G.n), r)
               if all(G.colour(u, v) == colour for u, v in combinations(S, 2))]
    return {frozenset(c) for c in cliques if not any(c < d for d in cliques)}


def test_maximal_mono_cliques_match_subset_enumeration():
    rng = random.Random(11)
    for n in range(1, 9):
        for _ in range(6):
            G = ColouredGraph(n, 3, [rng.randint(1, 3)
                                     for _ in range(n * (n - 1) // 2)])
            found = maximal_mono_cliques(G, min_size=1)
            assert len(set(found)) == len(found)
            for colour in (1, 2, 3):
                assert {vs for vs, c in found if c == colour} == \
                    _brute_maximal_cliques(G, colour)


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
    with pytest.raises(SizeLimitError):
        brute_min_mono(8, 2)
    with pytest.raises(SizeLimitError):
        brute_min_mono(7, 3)
