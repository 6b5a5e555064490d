import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest

from triflag.flags import (Flag, avg_coefficient, enumerate_flags,
                           flag_density, flag_from_vector, identity_flag,
                           ten_types, triangle_pair_counts, vector_of_flag,
                           verify_chain_rule)
from triflag.graphs import ColouredGraph, canonical_key, enumerate_models


def pair_counts_oracle(tau, L):
    """Oracle: the pair counts of a 3-vertex type over one 5-vertex model,
    injection by injection.  Returns (counts, valid): counts maps
    colour-vector pairs (v1, v2) to the (injection, split) outcomes
    inducing those flags, valid is the number of injections inducing
    tau."""
    t01, t02, t12 = tau.entries
    mat = L.matrix()
    counts = Counter()
    valid = 0
    for theta in permutations(range(5), 3):
        a, b, c = theta
        if mat[a][b] != t01 or mat[a][c] != t02 or mat[b][c] != t12:
            continue
        valid += 1
        x, y = (v for v in range(5) if v not in theta)
        vx = (mat[x][a], mat[x][b], mat[x][c])
        vy = (mat[y][a], mat[y][b], mat[y][c])
        counts[vx, vy] += 1
        counts[vy, vx] += 1
    return counts, valid


def mono_kn(n, colour):
    return ColouredGraph(n, 3, (colour,) * (n * (n - 1) // 2))


def k5_one_green_off_triangle():
    """All-red K5 except one green edge between the two unlabelled
    vertices 3, 4."""
    rows = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
    rows[3][4] = rows[4][3] = 3
    return ColouredGraph.from_matrix(rows)


SIGMA1 = ten_types()[0]
SIGMA10 = ten_types()[9]


def test_ten_types_cover_all_triangle_classes():
    types = ten_types()
    # the shipped certificate's order
    assert [tuple(t.entries) for t in types] == list(
        combinations_with_replacement((1, 2, 3), 3))
    assert SIGMA1.entries == bytes((1, 1, 1))
    assert SIGMA10.entries == bytes((3, 3, 3))
    keys = {canonical_key(t) for t in types}
    assert keys == {canonical_key(M) for M in enumerate_models(3, 3)}
    assert len(keys) == 10


def test_flag_validation():
    with pytest.raises(ValueError):
        Flag(mono_kn(4, 1), (0, 0, 1))
    with pytest.raises(ValueError):
        Flag(mono_kn(4, 1), (0, 1, 9))
    with pytest.raises(ValueError):
        flag_from_vector(SIGMA1, (1, 1, 4))
    with pytest.raises(ValueError):
        flag_from_vector(mono_kn(4, 1), (1, 1, 1))


def test_flag_vector_round_trip():
    for sigma in ten_types():
        for v in [(1, 1, 1), (1, 2, 3), (3, 3, 3), (2, 1, 2)]:
            assert vector_of_flag(flag_from_vector(sigma, v)) == v


def test_enumerate_flags_counts():
    for sigma in ten_types():
        assert len(enumerate_flags(sigma, 4)) == 27
        assert len(enumerate_flags(sigma, 3)) == 1
    empty = ColouredGraph(0, 3, ())
    assert len(enumerate_flags(empty, 5)) == 792


def test_four_vertex_flags_biject_with_colour_vectors():
    for sigma in ten_types():
        flags = enumerate_flags(sigma, 4)
        keys = {F.key() for F in flags}
        assert len(keys) == 27
        vector_keys = {flag_from_vector(sigma, v).key() for F in flags
                       for v in [vector_of_flag(F)]}
        assert keys == vector_keys


def test_four_vertex_flags_come_in_colour_vector_order():
    for sigma in ten_types():
        assert [vector_of_flag(F) for F in enumerate_flags(sigma, 4)] == \
            list(product((1, 2, 3), repeat=3))


def test_flag_density_basics():
    one = identity_flag(SIGMA1)
    big = Flag(mono_kn(5, 1), (0, 1, 2))
    assert flag_density(one, big) == 1
    f111 = flag_from_vector(SIGMA1, (1, 1, 1))
    assert flag_density(f111, big) == 1
    # |G| < |F| convention
    assert flag_density(f111, identity_flag(SIGMA1)) == 0
    with pytest.raises(ValueError):
        flag_density(f111, Flag(mono_kn(5, 2), (0, 1, 2)))


def test_flags_over_another_labelled_type_are_refused():
    # both refuse before any subflag tally
    F = flag_from_vector(SIGMA1, (1, 2, 3))
    H = Flag(mono_kn(5, 3), (0, 1, 2))          # over SIGMA10
    for call in (lambda: flag_density(F, H),
                 lambda: verify_chain_rule(F, 4, H)):
        with pytest.raises(ValueError, match="^flags must share the same "
                                             "labelled type$"):
            call()


def test_avg_coefficient_examples():
    f111 = flag_from_vector(SIGMA1, (1, 1, 1))
    assert avg_coefficient(SIGMA1, f111, f111, mono_kn(5, 1)) == 1
    assert avg_coefficient(SIGMA1, f111, f111,
                           k5_one_green_off_triangle()) == Fraction(1, 10)
    # no red triangle at all: no valid injection
    assert avg_coefficient(SIGMA1, f111, f111, mono_kn(5, 2)) == 0


def test_avg_coefficient_symmetry():
    rng = random.Random(17)
    for _ in range(5):
        L = ColouredGraph(5, 3, tuple(rng.randint(1, 3) for _ in range(10)))
        k1 = flag_from_vector(SIGMA1, tuple(rng.randint(1, 3)
                                            for _ in range(3)))
        k2 = flag_from_vector(SIGMA1, tuple(rng.randint(1, 3)
                                            for _ in range(3)))
        assert avg_coefficient(SIGMA1, k1, k2, L) == \
            avg_coefficient(SIGMA1, k2, k1, L)


def test_triangle_pair_counts_matches_avg_coefficient():
    rng = random.Random(23)
    for _ in range(5):
        L = ColouredGraph(5, 3, tuple(rng.randint(1, 3) for _ in range(10)))
        for sigma in (SIGMA1, ten_types()[4]):
            counts, valid = pair_counts_oracle(sigma, L)
            assert sum(counts.values()) == 2 * valid
            for (v1, v2), c in counts.items():
                got = avg_coefficient(sigma, flag_from_vector(sigma, v1),
                                      flag_from_vector(sigma, v2), L)
                assert got == Fraction(c, 120)


def test_triangle_pair_counts_batch_matches_oracle():
    # all 27 labelled types on all 792 models; codes follow product order
    models = enumerate_models(5, 3)
    flats = np.frombuffer(b"".join(M.entries for M in models),
                          dtype=np.uint8).reshape(-1, 10)
    cells, counts, valid = triangle_pair_counts(flats)
    g = len(models)
    got = {}
    for code, c in zip(cells.tolist(), counts.tolist()):
        rest, j = divmod(code, 27)
        rest, i = divmod(rest, 27)
        t, row = divmod(rest, g)
        got[t, row, i, j] = c
    vectors = list(product((1, 2, 3), repeat=3))
    want = {}
    for t, entries in enumerate(vectors):
        tau = ColouredGraph(3, 3, entries)
        for row, M in enumerate(models):
            pairs, n = pair_counts_oracle(tau, M)
            assert valid[t, row] == n
            for (v1, v2), c in pairs.items():
                want[t, row, vectors.index(v1), vectors.index(v2)] = c
    assert got == want
    assert valid.shape == (27, g)


def test_triangle_pair_counts_rejects_bad_batches():
    for bad in (np.ones((2, 9), dtype=np.uint8),
                np.ones((2, 10), dtype=np.int64),
                np.full((1, 10), 4, dtype=np.uint8),
                np.zeros((1, 10), dtype=np.uint8)):
        with pytest.raises(ValueError):
            triangle_pair_counts(bad)


def test_chain_rule_degenerate():
    rng = random.Random(5)
    H = Flag(ColouredGraph(6, 3, tuple(rng.randint(1, 3)
                                       for _ in range(15))), ())
    F = Flag(mono_kn(3, 1), ())
    assert verify_chain_rule(F, 3, H)
    assert verify_chain_rule(F, 4, H)


def test_chain_rule_flagged():
    rng = random.Random(9)
    while True:
        entries = tuple(rng.randint(1, 3) for _ in range(15))
        M = ColouredGraph(6, 3, entries)
        mat = M.matrix()
        if mat[0][1] == mat[0][2] == mat[1][2] == 1:
            break
    H = Flag(M, (0, 1, 2))
    F = flag_from_vector(SIGMA1, (1, 2, 3))
    assert verify_chain_rule(F, 4, H)
