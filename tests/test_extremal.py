import pytest

from triflag.extremal import (brute_min_mono, build_gex, class_sizes,
                              is_member_gn, pentagon_base)
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
