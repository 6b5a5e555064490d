import hashlib
import io
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triflag import graphs
from triflag.extremal import build_gex
from triflag.flags import Flag
from triflag.graphs import (CANON_MAX_N, GRAPH_MAX_N, ColouredGraph,
                            SizeLimitError, _check_enumeration_limit,
                            _class_table, _model_keys, _open_text,
                            _pair_index, _pair_table, _relabelling_index,
                            _subsets, bad_family, canonical_key,
                            canonical_keys_batch,
                            corollary_value, count_models_polya, density,
                            enumerate_models,
                            format_graph, goodman, is_isomorphic,
                            mono_triangles, parse_graph,
                            subgraph_class_counts)


def mono_kn(n, colour, k=3):
    return ColouredGraph(n, k, (colour,) * (n * (n - 1) // 2))


def pentagon():
    rows = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            green = (j - i) % 5 in (1, 4)
            rows[i][j] = rows[j][i] = 3 if green else 2
    return ColouredGraph.from_matrix(rows)


@st.composite
def coloured_graphs(draw, max_n=7, k=3):
    n = draw(st.integers(1, max_n))
    m = n * (n - 1) // 2
    entries = tuple(draw(st.integers(1, k)) for _ in range(m))
    return ColouredGraph(n, k, entries)


def shuffled(G, seed):
    rng = random.Random(seed)
    perm = list(range(G.n))
    rng.shuffle(perm)
    return G.relabel(perm)


def random_graph(n, k, seed):
    rng = random.Random(seed)
    return ColouredGraph(n, k, [rng.randint(1, k)
                                for _ in range(n * (n - 1) // 2)])


def red_cycles(*lengths):
    """Disjoint red cycles covering all vertices, every other edge blue."""
    n = sum(lengths)
    rows = [[0 if i == j else 2 for j in range(n)] for i in range(n)]
    start = 0
    for length in lengths:
        for t in range(length):
            a, b = start + t, start + (t + 1) % length
            rows[a][b] = rows[b][a] = 1
        start += length
    return ColouredGraph.from_matrix(rows, k=2)


@pytest.mark.parametrize("colours, valid", [
    ([1, 2, 3], True),
    ((1, 2, 3), True),
    (range(1, 4), True),
    (b"\x01\x02\x03", True),
    (bytearray(b"\x01\x02\x03"), True),
    (np.array([1, 2, 3], dtype=np.uint8), True),
    # bytes() of this array would be 24 bytes of raw memory
    (np.array([1, 2, 3], dtype=np.int64), True),
    ((1, 1), False),
    ((1, 2, 0), False),
    ((1, 2, 4), False),
    ((1, 2, -1), False),
    ((1, 2, 256), False),
    (np.array([1, 2, 256], dtype=np.int64), False),
], ids=["list", "tuple", "range", "bytes", "bytearray", "uint8", "int64",
        "too-few", "0", "k+1", "-1", "256", "int64-256"])
def test_construction_validation(colours, valid):
    if valid:
        G = ColouredGraph(3, 3, colours)
        assert type(G.entries) is bytes
        assert G == ColouredGraph(3, 3, (1, 2, 3))
        assert repr(G) == "ColouredGraph(n=3, k=3, (1, 2, 3))"
    else:
        with pytest.raises(ValueError, match="edge colour"):
            ColouredGraph(3, 3, colours)


def test_from_matrix_refuses_an_asymmetric_matrix():
    with pytest.raises(ValueError, match="not symmetric"):
        ColouredGraph.from_matrix([[0, 1], [2, 0]])


def test_vertex_count_is_bounded():
    # n = -2 has n(n-1)/2 = 3 edges, so only the vertex check refuses it
    with pytest.raises(ValueError, match="0 <= n <= %d, got -2" % GRAPH_MAX_N):
        ColouredGraph(-2, 3, [1, 1, 1])
    with pytest.raises(SizeLimitError, match="got %d" % (GRAPH_MAX_N + 1)):
        ColouredGraph(GRAPH_MAX_N + 1, 3)
    with pytest.raises(SizeLimitError):
        build_gex(GRAPH_MAX_N + 1)
    assert build_gex(GRAPH_MAX_N).n == GRAPH_MAX_N


def test_pair_table_matches_pair_index():
    # the numpy gathers read the table; colour() and matrix() the formula
    for n in range(13):
        table = _pair_table(n)
        assert table.shape == (n, n)
        for i, j in combinations(range(n), 2):
            assert table[i, j] == table[j, i] == _pair_index(n, i, j)


def test_pair_tables_of_eighteen_sizes_stay_cached():
    # a run cycling through the vertex counts 8..25 rebuilds no table on
    # its second pass
    for n in range(8, 26):
        _pair_table(n)
    before = _pair_table.cache_info()
    for n in range(8, 26):
        _pair_table(n)
    assert _pair_table.cache_info().misses == before.misses


def test_relabel_refuses_a_non_permutation():
    G = ColouredGraph(3, 3, (1, 2, 3))
    # H[0][1] = G[2][0], H[0][2] = G[2][1], H[1][2] = G[0][1]
    assert G.relabel((2, 0, 1)) == ColouredGraph(3, 3, (2, 3, 1))
    assert G.relabel(iter((0, 1, 2))) == G
    for perm in [(0, 1, 2, 3), (0, 1), (0, 1, 5), (0, 0, 1), (-1, 0, 1)]:
        with pytest.raises(ValueError, match="not a permutation of range"):
            G.relabel(perm)


def test_colour_and_induced_refuse_vertices_the_graph_lacks():
    G = ColouredGraph(4, 3, (1, 2, 3, 1, 2, 3))
    with pytest.raises(ValueError, match=r"^vertex 5 is not in range\(4\)$"):
        G.colour(0, 5)
    with pytest.raises(ValueError, match=r"^vertex -1 is not in range\(4\)$"):
        G.colour(-1, 2)
    with pytest.raises(ValueError, match=r"^vertex 4 is not in range\(4\)$"):
        G.induced([0, 4])
    with pytest.raises(ValueError, match="^vertex 1 is repeated$"):
        G.induced([1, 1, 2])
    assert G.colour(3, 0) == G.colour(0, 3) == 3
    assert G.induced([2, 0]) == ColouredGraph(2, 3, (2,))


def test_all_red_triangle_key_is_labelling_invariant():
    keys = {canonical_key(mono_kn(3, 1).relabel(p))
            for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)]}
    assert len(keys) == 1


def test_pentagon_key_is_labelling_invariant():
    G = pentagon()
    assert canonical_key(shuffled(G, 5)) == canonical_key(G)


@pytest.mark.parametrize("n", [8, 9])
def test_canonical_key_is_relabelling_invariant_at_eight_and_nine_vertices(n):
    G = random_graph(n, 3, n)
    key = canonical_key(G)
    assert canonical_key(shuffled(G, n)) == key
    # the smallest listing of a relabelling: at most G's own, same colours
    assert key <= G.entries
    assert sorted(key) == sorted(G.entries)


def test_nine_vertex_relabelling_index_is_cached():
    canonical_key(random_graph(9, 3, 1))
    before = _relabelling_index.cache_info()
    canonical_key(random_graph(9, 3, 2))
    after = _relabelling_index.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 3)).flatmap(
    lambda k: coloured_graphs(max_n=6, k=k)))
def test_canonical_key_matches_flag_key_reference(G):
    # Flag.key is a pure-Python loop over permutations, independent of the
    # numpy kernel behind canonical_key
    assert canonical_key(G) == Flag(G, ()).key()


@pytest.mark.parametrize("l, k, digest", [
    (5, 3, "caa653628c77617f1a78fe5435c67dc81d1ea3f6cc54634510959c1fb6a1f574"),
    (6, 2, "d821b8caaa80fc8f3e5fd9aff1f856b89b78eead5eaeeb1c9851db0f5f538acc"),
])
def test_model_keys_and_order_are_pinned(l, k, digest):
    # reports print model keys, so neither the keys nor their order may move
    keys = b"".join(M.entries for M in enumerate_models(l, k))
    assert hashlib.sha256(keys).hexdigest() == digest


def test_canonicalisation_size_guard():
    # each call would otherwise build all 10! relabellings
    with pytest.raises(SizeLimitError):
        canonical_keys_batch(np.ones((1, 45), dtype=np.uint8), 10)
    with pytest.raises(SizeLimitError):
        subgraph_class_counts(build_gex(12), 10)
    with pytest.raises(SizeLimitError):
        density(mono_kn(10, 1), build_gex(12))
    with pytest.raises(SizeLimitError):
        canonical_key(mono_kn(10, 1))


def test_canonicalisation_is_bounded_by_the_bytes_it_gathers():
    # 133,632 candidates * 8! * 28 bytes = 151 GB, and the 220 distinct
    # 9-subsets of a random K_12 * 9! * 36 = 2.9 GB; both pass a row count
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="gathered bytes"):
        enumerate_models(8, 2)
    with pytest.raises(SizeLimitError, match="gathered bytes"):
        subgraph_class_counts(random_graph(12, 3, 9), 9)
    with pytest.raises(SizeLimitError, match="gathered bytes"):
        canonical_keys_batch(np.ones((160, 36), dtype=np.uint8), 9)
    assert time.perf_counter() - start < 1
    # the largest enumerations admitted
    _check_enumeration_limit(6, 3)
    _check_enumeration_limit(7, 2)


def test_subgraph_class_counts_refuses_too_many_subsets_at_once():
    # C(120, 5) listings would take 3.5 GiB before any was canonicalised
    G = build_gex(120)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="C\\(120, 5\\) = 190578024"):
        subgraph_class_counts(G, 5)
    with pytest.raises(SizeLimitError):
        density(mono_kn(5, 1), G)
    assert time.perf_counter() - start < 0.1
    assert sum(subgraph_class_counts(build_gex(40), 5).values()) == \
        math.comb(40, 5)


def test_red_path_vs_red_matching_on_k4():
    # path 0-1-2-3 in red vs matching {01, 23} in red, all else blue
    path = [[0] * 4 for _ in range(4)]
    match = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                path[i][j] = match[i][j] = 2
    for a, b in [(0, 1), (1, 2), (2, 3)]:
        path[a][b] = path[b][a] = 1
    for a, b in [(0, 1), (2, 3)]:
        match[a][b] = match[b][a] = 1
    k1 = canonical_key(ColouredGraph.from_matrix(path))
    k2 = canonical_key(ColouredGraph.from_matrix(match))
    assert k1 != k2


def test_isomorphism_basics():
    G = mono_kn(4, 1)
    assert is_isomorphic(G, shuffled(G, 3))
    assert not is_isomorphic(mono_kn(4, 1), mono_kn(4, 2))


@st.composite
def graph_pairs(draw):
    """A graph and a relabelled copy, a relabelled copy with one edge
    recoloured, or an independent colouring of the same size."""
    k = draw(st.sampled_from((2, 3)))
    G = draw(coloured_graphs(max_n=7, k=k))
    kind = draw(st.sampled_from(("copy", "recoloured", "independent")))
    if kind == "independent":
        return G, ColouredGraph(G.n, k, [draw(st.integers(1, k))
                                         for _ in G.entries])
    entries = list(shuffled(G, draw(st.integers(0, 10**6))).entries)
    if kind == "recoloured" and entries:
        entries[draw(st.integers(0, len(entries) - 1))] = \
            draw(st.integers(1, k))
    return G, ColouredGraph(G.n, k, entries)


@settings(max_examples=300, deadline=None)
@given(graph_pairs())
def test_isomorphism_matches_canonical_key_equality(pair):
    G, H = pair
    assert is_isomorphic(G, H) == (canonical_key(G) == canonical_key(H))


@pytest.mark.parametrize("lengths, other", [
    ((6,), (3, 3)), ((11,), (5, 6)), ((12,), (6, 6)), ((12,), (4, 4, 4))])
def test_isomorphism_same_profiles(lengths, other):
    # every vertex has two red and n - 3 blue edges in both graphs
    G, H = red_cycles(*lengths), red_cycles(*other)
    assert not is_isomorphic(G, H)
    assert not is_isomorphic(shuffled(H, 1), G)
    assert is_isomorphic(G, shuffled(G, 2))
    assert is_isomorphic(shuffled(H, 3), shuffled(H, 4))


def test_isomorphism_of_relabelled_k22_matching_blow_up():
    # a relabelled K_22 blow-up with a recoloured matching between two
    # classes, and a relabelled copy: a hard case for unrefined search
    G = ColouredGraph(22, 3, [int(c) for c in
        "1323221233332233322113232212333322333221122323311123322122333312322233"
        "3332112223322221221123333321333211223332223222333332112223333223332211"
        "3332112233322112332212233123322122332332212233221123333122333222233322"
        "123333233331233122221"])
    H = ColouredGraph(22, 3, [int(c) for c in
        "3322213112222132323331322313323223232322132231332322323232213313223133"
        "2212122313222131123333332322213112333333232231332212122333232232323221"
        "1222213232333222213232333311233333323322121223123333332233333323232333"
        "212112212232112223122"])
    assert is_isomorphic(G, H)
    assert is_isomorphic(H, G)


def test_isomorphism_of_random_k10():
    G = random_graph(10, 3, 1)
    assert is_isomorphic(G, shuffled(G, 1))
    recoloured = list(G.entries)
    recoloured[0] = 1 + recoloured[0] % 3
    assert not is_isomorphic(G, ColouredGraph(10, 3, recoloured))


@settings(max_examples=50, deadline=None)
@given(coloured_graphs(), st.integers(0, 10**6))
def test_canonical_key_relabelling_invariant(G, seed):
    assert canonical_key(shuffled(G, seed)) == canonical_key(G)


def test_model_counts_match_known_sequence():
    expected = [1, 1, 3, 10, 66, 792]
    for l, want in enumerate(expected):
        assert len(enumerate_models(l, 3)) == want
        assert count_models_polya(l, 3) == want


def test_enumeration_is_sorted_and_duplicate_free():
    for l in (4, 5):
        models = enumerate_models(l, 3)
        keys = [canonical_key(M) for M in models]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        # a model's listing is its canonical key
        assert all(M.entries == k for M, k in zip(models, keys))


def test_enumeration_matches_polya_for_two_colours():
    for l in range(1, 7):
        assert len(enumerate_models(l, 2)) == count_models_polya(l, 2)


def test_colour_count_is_one_byte():
    # the empty and one-vertex graphs have no edge colour to refuse
    for n in (0, 1):
        with pytest.raises(ValueError, match="1 <= k <= 255, got 0"):
            ColouredGraph(n, 0)
    with pytest.raises(SizeLimitError, match="1 <= k <= 255, got 256"):
        ColouredGraph(1, 256)
    assert ColouredGraph(2, 255, (255,)).k == 255


def test_enumeration_size_limits():
    with pytest.raises(SizeLimitError):
        enumerate_models(7, 3)
    with pytest.raises(SizeLimitError):
        enumerate_models(9, 2)
    with pytest.raises(SizeLimitError):
        enumerate_models(10, 1)
    # colours are one byte each
    with pytest.raises(SizeLimitError, match="k <= 255"):
        enumerate_models(2, 256)
    # the extension batches would hold 454,750,000 and 10,944,512 listings
    # (enumerate_models(6, 3) builds 192,456)
    for l, k in ((5, 10), (6, 4)):
        with pytest.raises(SizeLimitError, match="candidate listings"):
            enumerate_models(l, k)


def test_density_examples():
    assert density(mono_kn(3, 1), mono_kn(5, 1)) == 1
    for colour in (1, 2, 3):
        assert density(mono_kn(3, colour), pentagon()) == 0
    one_blue = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    one_blue[0][1] = one_blue[1][0] = 2
    G = ColouredGraph.from_matrix(one_blue)
    assert density(mono_kn(3, 1), G) == Fraction(1, 2)
    with pytest.raises(ValueError):
        density(mono_kn(4, 1), mono_kn(3, 1))


@settings(max_examples=25, deadline=None)
@given(coloured_graphs(max_n=6), st.integers(0, 10**6))
def test_density_isomorphism_invariant(G, seed):
    H = mono_kn(3, 1)
    assert density(H, G) == density(H, shuffled(G, seed)) if G.n >= 3 else True


def test_densities_sum_to_one():
    rng = random.Random(42)
    entries = tuple(rng.randint(1, 3) for _ in range(21))
    G = ColouredGraph(7, 3, entries)
    for l in (3, 4, 5):
        total = sum(density(M, G) for M in enumerate_models(l, 3))
        assert total == 1


def test_mono_triangle_counts():
    per = mono_triangles(mono_kn(5, 1))
    assert (per[1], per[2], per[3], per["total"]) == (10, 0, 0, 10)
    assert mono_triangles(pentagon())["total"] == 0


def test_mono_triangles_agree_with_family_density():
    rng = random.Random(7)
    for _ in range(10):
        entries = tuple(rng.randint(1, 3) for _ in range(15))
        G = ColouredGraph(6, 3, entries)
        assert Fraction(mono_triangles(G)["total"], 20) == \
            sum(density(mono_kn(3, c), G) for c in (1, 2, 3))


def mono_triangles_by_triples(G):
    """Monochromatic-triangle counts by a loop over all C(n, 3) triples."""
    per = dict.fromkeys(range(1, G.k + 1), 0)
    mat = G.matrix()
    for a, b, c in combinations(range(G.n), 3):
        if mat[a][b] == mat[a][c] == mat[b][c]:
            per[mat[a][b]] += 1
    per["total"] = sum(per[c] for c in range(1, G.k + 1))
    return per


def test_mono_triangles_match_the_triple_loop():
    rng = random.Random(11)
    for n in list(range(8)) + [rng.randrange(8, 61) for _ in range(20)] + [60]:
        G = random_graph(n, rng.randint(1, 4), rng.randrange(10**6))
        assert mono_triangles(G) == mono_triangles_by_triples(G)
    G = build_gex(400)
    assert mono_triangles(G) == mono_triangles_by_triples(G)


def test_goodman_values():
    assert goodman(5) == 0
    assert goodman(6) == 2
    assert goodman(7) == 4
    assert goodman(8) == 8
    assert goodman(9) == 12


def test_corollary_values():
    assert corollary_value(11) == 1
    assert corollary_value(20) == 20
    # the closed form is asymptotic only; at n=17 it differs from the
    # documented true minimum of 5
    assert corollary_value(17) == 11


def test_bad_family_structure():
    family = bad_family()
    keys = {canonical_key(H) for H in family}
    assert len(keys) == len(family)
    for H in family:
        assert H.n == 4
        assert mono_triangles(H)["total"] >= 1
    assert canonical_key(mono_kn(4, 1)) not in keys


def test_bad_family_matches_ijk_oracle():
    def classifies(G):
        per = mono_triangles(G)
        for c in (1, 2, 3):
            if per[c] == 0:
                continue
            counts = G.edge_colour_counts()
            others = sorted((counts[d] for d in (1, 2, 3) if d != c),
                            reverse=True)
            i = counts[c] - 3
            # (extra c-edges, larger other count, smaller other count)
            if per[c] >= 1 and (i, others[0], others[1]) in \
                    {(2, 1, 0), (1, 1, 1), (0, 2, 1)}:
                return True
        return False

    oracle = {canonical_key(M) for M in enumerate_models(4, 3)
              if classifies(M)}
    assert {canonical_key(H) for H in bad_family()} == oracle


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((1, 2, 3)).flatmap(
    lambda k: coloured_graphs(max_n=9, k=k)), st.data())
def test_subgraph_class_counts_matches_per_subset_oracle(G, data):
    l = data.draw(st.integers(0, min(G.n, CANON_MAX_N)))
    want = {}
    for vs in combinations(range(G.n), l):
        key = canonical_key(G.induced(vs))
        want[key] = want.get(key, 0) + 1
    assert subgraph_class_counts(G, l) == want


def test_subsets_match_combinations():
    for n in range(13):
        for l in range(n + 1):
            want = list(combinations(range(n), l))
            rows = _subsets(n, l)
            assert len(rows) == l
            assert all(row.dtype == np.int32 for row in rows)
            if l:
                assert list(zip(*(row.tolist() for row in rows))) == want


def canonicalising_class_counts(G, l, monkeypatch):
    # with no class table admitted, every (l, k) takes the np.unique +
    # canonical_keys_batch path
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_TABLE_MAX", 0)
        return subgraph_class_counts(G, l)


@pytest.mark.parametrize("n", [10, 17, 24, 31, 40])
def test_class_table_path_matches_canonicalising_path(n, monkeypatch):
    rng = random.Random(n)
    cases = [(build_gex(n), l) for l in (2, 3, 4, 5)]
    for k in (1, 2, 3):
        G = random_graph(n, k, rng.randrange(10**6))
        cases += [(G, l) for l in (2, 3, 4, 5)]
        if k == 2 and math.comb(n, 6) <= graphs._MAX_SUBSETS:
            cases.append((G, 6))
    for G, l in cases:
        got = subgraph_class_counts(G, l)
        assert list(got) == sorted(got)
        assert got == canonicalising_class_counts(G, l, monkeypatch)


@pytest.mark.parametrize("n, k, l", [(30, 255, 2), (12, 40, 3), (12, 6, 4),
                                     (12, 1, 9)])
def test_class_table_path_at_the_edges_of_its_bound(n, k, l, monkeypatch):
    G = random_graph(n, k, n + k + l)
    assert G.k ** (l * (l - 1) // 2) <= graphs._TABLE_MAX
    assert subgraph_class_counts(G, l) == \
        canonicalising_class_counts(G, l, monkeypatch)


def test_class_tables_within_the_bound_are_total():
    admitted = [(l, k) for l in range(2, CANON_MAX_N + 1)
                for k in range(1, 256)
                if k ** (l * (l - 1) // 2) <= graphs._TABLE_MAX]
    assert [(l, max(k for ll, k in admitted if ll == l))
            for l in range(2, 7)] == [(2, 255), (3, 40), (4, 6), (5, 3),
                                      (6, 2)]
    for l, k in admitted:
        _check_enumeration_limit(l, k)
        table = _class_table(l, k)
        assert len(table) == k ** (l * (l - 1) // 2)
        assert table.min() == 0
        assert table.max() == len(_model_keys(l, k)) - 1


def test_class_table_refuses_to_build_with_a_missing_model(monkeypatch):
    # the build checks its table with a raise, so the check also runs
    # under python -O
    keys = _model_keys(4, 3)
    monkeypatch.setattr(graphs, "_model_keys", lambda l, k: keys[1:])
    with pytest.raises(RuntimeError, match="misses a listing"):
        _class_table.__wrapped__(4, 3)


def test_subgraph_class_counts_total():
    rng = random.Random(3)
    entries = tuple(rng.randint(1, 3) for _ in range(21))
    G = ColouredGraph(7, 3, entries)
    counts = subgraph_class_counts(G, 4)
    assert sum(counts.values()) == 35  # C(7,4)


def test_graph_text_round_trip():
    for G in [mono_kn(4, 2), pentagon()]:
        assert parse_graph(format_graph(G)) == G
        assert parse_graph(io.StringIO(format_graph(G))) == G
    with pytest.raises(ValueError, match="expected 2 matrix rows, got 1"):
        parse_graph("2 3\n0 1\n")
    with pytest.raises(ValueError, match="expected 2 matrix rows, got more"):
        parse_graph("2 3\n0 1\n1 0\n1 0\n")
    with pytest.raises(ValueError):
        parse_graph("")


class _FailsPastFirstLine(io.StringIO):
    def readline(self, limit=-1):
        if self.tell():
            raise AssertionError("read past the first line")
        return super().readline(limit)


def test_parse_graph_refuses_a_file_at_its_header():
    text = "%d 3\n" % (GRAPH_MAX_N + 1) + "1 " * GRAPH_MAX_N + "\n"
    with pytest.raises(SizeLimitError, match="got %d" % (GRAPH_MAX_N + 1)):
        parse_graph(_FailsPastFirstLine(text))


def test_parse_graph_caps_the_length_of_a_file_line():
    # "0 1", the padding and the newline: 262,144 characters pass, 262,145
    # do not, in a string as in a file
    for pad, error in ((262_140, None),
                       (262_141, "line 2 is longer than 262144 characters")):
        text = "2 3\n0 1%s\n1 0\n" % (" " * pad)
        for source in (text, io.StringIO(text)):
            if error is None:
                assert parse_graph(source) == parse_graph("2 3\n0 1\n1 0\n")
            else:
                with pytest.raises(ValueError, match=error):
                    parse_graph(source)


@pytest.mark.parametrize("token", ["\u0663", "\uff13", "1_0", "+3", "-1",
                                   "3.0", "0x3"])
def test_parse_graph_takes_ascii_decimals_only(token):
    # int() alone would read Arabic-Indic and full-width digits, "1_0"
    # and a sign; the error names the line
    with pytest.raises(ValueError, match="line 2: not a decimal integer"):
        parse_graph("2 3\n0 %s\n%s 0\n" % (token, token))
    with pytest.raises(ValueError, match="line 1: not a decimal integer"):
        parse_graph("2 %s\n0 1\n1 0\n" % token)


def test_parse_graph_mutation_fuzz_raises_only_value_error(
        mutant, write_with_bad_byte, tmp_path):
    lines = format_graph(build_gex(7)).splitlines()
    rng = random.Random(2012)
    # a byte that is not UTF-8
    path = tmp_path / "g.txt"
    number = write_with_bad_byte(path, lines, rng)
    with _open_text(path) as fh, pytest.raises(
            ValueError, match="^line %d: byte 0xff is not UTF-8$" % number):
        parse_graph(fh)
    for case in range(300):
        text = mutant(lines, rng)
        try:
            parse_graph(text)
        except ValueError:
            pass
        except Exception as exc:
            pytest.fail("case %d: %s escaped: %.200s"
                        % (case, type(exc).__name__, exc))
