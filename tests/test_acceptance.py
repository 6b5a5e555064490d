"""End-to-end acceptance suite.

Each test covers one acceptance criterion and finishes with a single
pass line; any assertion failure marks the criterion failed.
"""

import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from triflag import certificate as cert_mod
from triflag import sdp as sdp_mod
from triflag.certificate import (Certificate, CertificateBlock,
                                 serialize_certificate, verify)
from triflag.cli import main as cli_main
from triflag.exact import SymMatrix, psd_check
from triflag.extremal import brute_min_mono, build_gex, is_member_gn
from triflag.flags import (Flag, enumerate_flags, flag_from_vector,
                           identity_flag, ten_types, vector_of_flag,
                           verify_chain_rule)
from triflag.graphs import (ColouredGraph, canonical_key, corollary_value,
                            count_models_polya, enumerate_models, goodman,
                            mono_triangles)


def report(line):
    print(line)


def test_criterion_01_model_counts():
    start = time.monotonic()
    expected = [1, 1, 3, 10, 66, 792]
    for l, want in enumerate(expected):
        assert len(enumerate_models(l, 3)) == want
        assert count_models_polya(l, 3) == want
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report("criterion 1: PASS - model counts 1,1,3,10,66,792 match the "
           "cycle-index oracle in %.2fs" % elapsed)


def test_criterion_02_flag_classes(shipped_cert):
    for block in shipped_cert.blocks:
        flags = enumerate_flags(block.type_sigma, 4)
        assert len(flags) == 27
        assert {vector_of_flag(F) for F in flags} == set(block.vectors)
    report("criterion 2: PASS - 27 four-vertex flag classes per type, "
           "bijective with the certificate vectors")


def test_criterion_03_psd_blocks(shipped_cert):
    start = time.monotonic()
    for block in shipped_cert.blocks:
        assert psd_check(block.Q).is_psd
    Q1 = shipped_cert.blocks[0].Q.rows
    support = sorted({i for i in range(27)
                      for j in range(27) if Q1[i][j]})
    assert len(support) == 2
    a, b = support
    assert Q1[a][a] * Q1[b][b] - Q1[a][b] * Q1[b][a] == 0
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report("criterion 3: PASS - ten exact PSD verdicts, singular 2x2 "
           "support of block 1 confirmed, in %.2fs" % elapsed)


def test_criterion_04_full_verification(shipped_report):
    start = time.monotonic()
    assert len(shipped_report.lambdas) == 792
    assert all(lam >= 0 for lam in shipped_report.lambdas.values())
    assert shipped_report.bad_family_ok
    assert shipped_report.verified
    exit_code = cli_main(["verify"])
    assert exit_code == 0
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report("criterion 4: PASS - all 792 lambda >= 0, bad-family "
           "condition holds, exit code 0, in %.2fs" % elapsed)


def test_criterion_05_extremal_zeroes(shipped_report):
    rows = cert_mod.extremal_zero_report(shipped_report.lambdas)
    occurring = [key for key, lam, occ in rows if occ]
    assert occurring
    assert all(lam == 0 for key, lam, occ in rows if occ)
    # independent occurrence check: a 5-subset of G_ex(25) is determined up
    # to isomorphism by how many vertices it takes from each class, so the
    # 126 class compositions, keyed by the label-free reference Flag.key,
    # give every induced model
    G = build_gex(25)
    classes = [range(5 * c, 5 * c + 5) for c in range(5)]
    compositions = [m for m in product(range(6), repeat=5) if sum(m) == 5]
    assert len(compositions) == 126
    induced = {Flag(G.induced([v for cls, k in zip(classes, m)
                               for v in cls[:k]]), ()).key()
               for m in compositions}
    assert set(occurring) == induced
    report("criterion 5: PASS - lambda = 0 on all %d models induced in "
           "the 25-vertex construction" % len(occurring))


def test_criterion_06_goodman():
    start = time.monotonic()
    for n in range(3, 8):
        best, minimisers = brute_min_mono(n, 2)
        assert best == goodman(n)
        assert len(minimisers) >= 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report("criterion 6: PASS - two-colour brute minimum equals the "
           "closed formula for n = 3..7 in %.2fs" % elapsed)


def test_criterion_07_construction_identity():
    start = time.monotonic()
    for n in range(5, 61):
        assert mono_triangles(build_gex(n))["total"] == corollary_value(n)
    g = build_gex(11)
    assert mono_triangles(g)["total"] == 1
    rows = [list(r) for r in g.matrix()]
    for u, v in [(0, 3), (1, 4)]:
        rows[u][v] = rows[v][u] = 1
    g2 = ColouredGraph.from_matrix(rows)
    assert is_member_gn(g)[0] and is_member_gn(g2)[0]
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report("criterion 7: PASS - triangle-count identity on n = 5..60 and "
           "both 11-vertex family members accepted in %.2fs" % elapsed)


def _random_triple(rng):
    roll = rng.random()
    if roll < 0.45:
        # unflagged: 3-vertex pattern against a 6-vertex colouring
        F = Flag(rng.choice(enumerate_models(3, 3)), ())
        H = Flag(ColouredGraph(6, 3, tuple(rng.randint(1, 3)
                                           for _ in range(15))), ())
        return F, 4, H
    if roll < 0.55:
        # unflagged with the intermediate size at 5
        F = Flag(rng.choice(enumerate_models(3, 3)), ())
        H = Flag(ColouredGraph(6, 3, tuple(rng.randint(1, 3)
                                           for _ in range(15))), ())
        return F, 5, H
    # flagged over a random 3-vertex type planted on a 6-vertex model
    sigma = rng.choice(ten_types())
    entries = [rng.randint(1, 3) for _ in range(15)]
    M = ColouredGraph(6, 3, tuple(entries))
    mat = [list(r) for r in M.matrix()]
    for a in range(3):
        for b in range(a + 1, 3):
            mat[a][b] = mat[b][a] = sigma.colour(a, b)
    H = Flag(ColouredGraph.from_matrix(mat), (0, 1, 2))
    if rng.random() < 0.5:
        F = identity_flag(sigma)
    else:
        F = flag_from_vector(sigma, tuple(rng.randint(1, 3)
                                          for _ in range(3)))
    return F, 4, H


def test_criterion_08_chain_rule_and_sum_rule(shipped_cert, shipped_table):
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(100):
        F, m, H = _random_triple(rng)
        assert verify_chain_rule(F, m, H)
    # total-probability rule: for every type and every model, the product
    # coefficients sum to (valid injections)/60, counted independently
    models = enumerate_models(5, 3)
    for r, block in enumerate(shipped_cert.blocks):
        t01, t02, t12 = block.type_sigma.entries
        for M in models:
            mat = M.matrix()
            valid = sum(1 for a, b, c in permutations(range(5), 3)
                        if mat[a][b] == t01 and mat[a][c] == t02
                        and mat[b][c] == t12)
            cells = shipped_table.counts[r][M.entries]
            assert sum(cells.values()) == 2 * valid
            assert shipped_table.valid_injections[r][M.entries] \
                == valid
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report("criterion 8: PASS - chain rule exact on 100 seeded triples "
           "and coefficient sum rule on 10x792 grid in %.2fs" % elapsed)


def test_criterion_09_mutation_sensitivity(shipped_cert, shipped_table,
                                           tmp_path):
    raised = Certificate(Fraction(1, 24), shipped_cert.blocks)
    rep = verify(raised, shipped_table)
    assert rep.negative_lambda_keys
    path = tmp_path / "raised.cert"
    path.write_text(serialize_certificate(raised))
    assert cli_main(["verify", "--cert", str(path)]) == 1

    blocks = list(shipped_cert.blocks)
    b = blocks[0]
    blocks[0] = CertificateBlock(
        b.type_sigma, b.vectors, b.flags,
        SymMatrix([[-x for x in row] for row in b.Q.rows]))
    rep = verify(Certificate(shipped_cert.bound, tuple(blocks)),
                 shipped_table)
    assert rep.psd_failed_blocks == [1]
    report("criterion 9: PASS - bound 1/24 yields negative lambdas and "
           "exit 1; negated block reported as PSD failure of block 1")


def test_criterion_10_sdp_round_trip(shipped_cert, shipped_table,
                                     tmp_path, read_problem):
    prob_path = tmp_path / "problem.dat-s"
    sdp_mod.export_sdp(prob_path)
    _, rhs, entries = read_problem(prob_path)
    tol = Fraction(1, 10**38)
    for k, key in enumerate(shipped_table.model_keys, start=1):
        M = ColouredGraph(5, 3, tuple(key))
        exact = Fraction(mono_triangles(M)["total"], 10) - Fraction(1, 25)
        assert abs(rhs[k - 1] - exact) <= tol
        for (i, j), c in shipped_table.counts[k % 10][key].items():
            if i <= j:
                assert abs(entries[k, (k % 10) + 1, i + 1, j + 1]
                           - Fraction(c, 120)) <= tol

    rng = random.Random(10)
    blocks = []
    for blk in shipped_cert.blocks:
        blocks.append([[float(blk.Q.rows[i][j]) +
                        rng.uniform(-1e-14, 1e-14)
                        for j in range(27)] for i in range(27)])
    recovered = sdp_mod.round_solution(blocks, max_den=4 * 10**6)
    assert recovered == shipped_cert
    assert verify(recovered, shipped_table).verified
    report("criterion 10: PASS - problem file round-trips at emitted "
           "precision; perturbed data rounds back to the exact "
           "certificate and re-verifies")
