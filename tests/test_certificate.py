import hashlib
import itertools
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

from triflag import certificate as cert_mod
from triflag.certificate import (Certificate, CertificateBlock,
                                 CertificateError, coefficient_table,
                                 lambda_vector,
                                 load_certificate, report_text,
                                 serialize_certificate, verify)
from triflag.exact import SymMatrix
from triflag.flags import avg_coefficient, flag_from_vector
from triflag.graphs import (ColouredGraph, _open_text, bad_family,
                            canonical_key, enumerate_models, mono_triangles,
                            subgraph_class_counts)

SHIPPED_SHA256 = \
    "42987518138734882c68c1e1df5badfb8ca8f2f4017c5ee026861d4c075ca71a"


def all_red_k5():
    return ColouredGraph(5, 3, (1,) * 10)


def test_shipped_file_checksum_is_pinned():
    digest = hashlib.sha256(
        cert_mod.shipped_certificate_text().encode()).hexdigest()
    assert digest == SHIPPED_SHA256


def test_shipped_structure(shipped_cert):
    assert shipped_cert.bound == Fraction(1, 25)
    assert len(shipped_cert.blocks) == 10
    for block in shipped_cert.blocks:
        assert len(block.vectors) == 27
        assert len(set(block.vectors)) == 27
        assert block.Q.dim == 27
    type_keys = {canonical_key(b.type_sigma) for b in shipped_cert.blocks}
    assert type_keys == {canonical_key(M) for M in enumerate_models(3, 3)}


def test_serialize_round_trip(shipped_cert):
    assert load_certificate(serialize_certificate(shipped_cert)) \
        == shipped_cert


def _mutate_line(text, predicate, edit):
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if predicate(i, ln):
            lines[i] = edit(ln)
            break
    return "\n".join(lines) + "\n"


def test_loader_rejects_asymmetric_q(shipped_cert):
    text = serialize_certificate(shipped_cert)
    lines = text.splitlines()
    q_start = lines.index("Q 27") + 1
    row = lines[q_start].split()
    row[1] = "99999/7"
    lines[q_start] = " ".join(row)
    with pytest.raises(CertificateError,
                       match=r"block 1: .*not symmetric at \(1, 2\)"):
        load_certificate("\n".join(lines) + "\n")


def test_loader_rejects_duplicate_flag_vectors(shipped_cert):
    lines = serialize_certificate(shipped_cert).splitlines()
    f_start = [i for i, ln in enumerate(lines) if ln == "FLAGS 27"][3] + 1
    lines[f_start + 5] = lines[f_start + 6]
    with pytest.raises(CertificateError, match="block 4: .*27 flag vectors"):
        load_certificate("\n".join(lines) + "\n")


def test_loader_rejects_a_repeated_type(shipped_cert):
    lines = serialize_certificate(shipped_cert).splitlines()
    t1, t2 = (lines.index("TYPE %d" % r) + 1 for r in (1, 2))
    lines[t2:t2 + 3] = lines[t1:t1 + 3]
    with pytest.raises(CertificateError, match="non-isomorphic"):
        load_certificate("\n".join(lines) + "\n")


def test_loader_rejects_colour_out_of_range(shipped_cert):
    text = serialize_certificate(shipped_cert)
    lines = text.splitlines()
    f_start = lines.index("FLAGS 27") + 1
    lines[f_start] = "1 1 4"
    with pytest.raises(CertificateError, match="1..3"):
        load_certificate("\n".join(lines) + "\n")


def test_loader_rejects_truncation(shipped_cert):
    text = serialize_certificate(shipped_cert)
    head = "\n".join(text.splitlines()[:50]) + "\n"
    with pytest.raises(CertificateError, match="line|end of file"):
        load_certificate(head)


def test_loader_rejects_zero_denominators(shipped_cert):
    text = serialize_certificate(shipped_cert)
    with pytest.raises(CertificateError, match="line 2: bad bound"):
        load_certificate(text.replace("BOUND 1/25", "BOUND 1/0"))
    first_q_row = text.splitlines().index("Q 27") + 1
    q_entry = _mutate_line(text, lambda i, ln: i == first_q_row,
                           lambda ln: " ".join(["3/0"] + ln.split()[1:]))
    with pytest.raises(CertificateError,
                       match="line %d: bad rational" % (first_q_row + 1)):
        load_certificate(q_entry)


def test_loader_rejects_trailing_text(shipped_cert):
    text = serialize_certificate(shipped_cert)
    last = len(text.splitlines())
    with pytest.raises(CertificateError,
                       match="line %d: unexpected text" % (last + 2)):
        load_certificate(text + "\nTYPE 11\n")
    assert load_certificate(text + "\n\n") == shipped_cert


def test_loader_refuses_a_file_before_building_its_blocks(shipped_cert):
    # text after block 10, or a file cut off inside it, is refused before
    # any of the ten blocks is built
    text = serialize_certificate(shipped_cert)
    lines = text.splitlines()
    cut = len(lines) - 10
    cases = [(text + "\nTYPE 11\n",
              "line %d: unexpected text after block 10" % (len(lines) + 2)),
             ("\n".join(lines[:cut]) + "\n",
              "unexpected end of file at line %d" % (cut + 1))]
    for bad, message in cases:
        with mock.patch.object(cert_mod, "CertificateBlock",
                               wraps=CertificateBlock) as built:
            with pytest.raises(CertificateError, match=message):
                load_certificate(bad)
        assert built.call_count == 0
    with mock.patch.object(cert_mod, "CertificateBlock",
                           wraps=CertificateBlock) as built:
        assert load_certificate(text) == shipped_cert
    assert built.call_count == 10


def test_loader_rejects_bad_header():
    with pytest.raises(CertificateError, match="FLAGCERT"):
        load_certificate("FLAGCERT 2\nBOUND 1/25\n")


def test_loader_mutation_fuzz_raises_only_certificate_error(
        shipped_cert, mutant, write_with_bad_byte, tmp_path):
    lines = serialize_certificate(shipped_cert).splitlines()
    rng = random.Random(2012)
    cases = [mutant(lines, rng) for _ in range(100)]
    # a byte that is not UTF-8: a file opened as the command line opens it
    # names the byte's line, a strictly decoding one names a line before it
    path = tmp_path / "cert"
    number = write_with_bad_byte(path, lines, rng)
    with _open_text(path) as fh, pytest.raises(
            CertificateError, match="^line %d: byte 0xff is not UTF-8$"
            % number):
        load_certificate(fh)
    with open(path, encoding="utf-8") as fh, pytest.raises(
            CertificateError) as strict:
        load_certificate(fh)
    named = re.fullmatch(r"line (\d+): byte 0xff at or after it is not "
                         r"UTF-8", str(strict.value))
    assert named and int(named[1]) <= number
    # a line over the length cap after block 10
    cases.append("\n".join(lines + ["0" * (1 << 18)]) + "\n")
    with pytest.raises(CertificateError, match="line %d is longer than"
                       % (len(lines) + 1)):
        load_certificate(cases[-1])
    for case, text in enumerate(cases):
        try:
            load_certificate(text)
        except CertificateError:
            pass
        except Exception as exc:
            pytest.fail("case %d: %s escaped: %.200s"
                        % (case, type(exc).__name__, exc))


def table_entry(table, r, key, i, j) -> Fraction:
    """A_r[key][i][j]: the table holds 120 times it as an integer."""
    return Fraction(table.counts[r][key].get((i, j), 0), 120)


def test_table_identity_entries(shipped_cert, shipped_table):
    key = all_red_k5().entries
    block0 = shipped_cert.blocks[0]
    i = block0.vectors.index((1, 1, 1))
    assert table_entry(shipped_table, 0, key, i, i) == 1
    assert shipped_table.valid_injections[0][key] == 60


def relabelled(cert, rng):
    """The same certificate in another layout: in every block the type's
    labels are permuted and the flags are listed in a random order.  Also
    returns each block's order: new flag i is old flag order[i]."""
    blocks = []
    orders = []
    for b in cert.blocks:
        pi = rng.sample(range(3), 3)         # new label a is old label pi[a]
        sigma = b.type_sigma.relabel(pi)
        order = rng.sample(range(27), 27)
        vectors = tuple(tuple(b.vectors[k][p] for p in pi) for k in order)
        rows = [[b.Q.rows[i][j] for j in order] for i in order]
        blocks.append(CertificateBlock(
            sigma, vectors, tuple(flag_from_vector(sigma, v) for v in vectors),
            SymMatrix(rows)))
        orders.append(order)
    return Certificate(cert.bound, tuple(blocks)), orders


def test_table_matches_avg_coefficient_spot_checks(shipped_cert,
                                                   shipped_table):
    rng = random.Random(1)
    models = enumerate_models(5, 3)
    moved, _ = relabelled(shipped_cert, random.Random(3))
    assert any(a.type_sigma != b.type_sigma
               for a, b in zip(moved.blocks, shipped_cert.blocks))
    moved_table = coefficient_table(moved)
    for cert, table in ((shipped_cert, shipped_table), (moved, moved_table)):
        for _ in range(6):
            r = rng.randrange(10)
            M = rng.choice(models)
            i = rng.randrange(27)
            j = rng.randrange(27)
            block = cert.blocks[r]
            want = avg_coefficient(block.type_sigma,
                                   flag_from_vector(block.type_sigma,
                                                    block.vectors[i]),
                                   flag_from_vector(block.type_sigma,
                                                    block.vectors[j]), M)
            assert table_entry(table, r, M.entries, i, j) == want
    assert lambda_vector(moved, moved_table) == \
        lambda_vector(shipped_cert, shipped_table)


def test_relabelled_table_is_the_reindexed_shipped_table(shipped_cert,
                                                         shipped_table):
    moved, orders = relabelled(shipped_cert, random.Random(4))
    table = coefficient_table(moved)
    assert table.model_keys == shipped_table.model_keys
    for r, order in enumerate(orders):
        new = {old: i for i, old in enumerate(order)}
        want = {key: {(new[i], new[j]): c for (i, j), c in cells.items()}
                for key, cells in shipped_table.counts[r].items()}
        assert table.counts[r] == want
        assert table.valid_injections[r] == shipped_table.valid_injections[r]


def test_table_rejects_a_block_without_all_27_vectors(shipped_cert):
    # the block itself refuses, so no table is ever built from it
    b = shipped_cert.blocks[2]
    vectors = (b.vectors[1],) + b.vectors[1:]
    with pytest.raises(ValueError, match="27 flag vectors"):
        CertificateBlock(b.type_sigma, vectors, b.flags, b.Q)


def _resized(Q, n):
    return SymMatrix([[Q.rows[i][j] if i < 27 and j < 27 else 0
                       for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("change, match", [
    (lambda b: dict(vectors=b.vectors[:26], flags=b.flags[:26]),
     "27 flag vectors"),
    (lambda b: dict(Q=_resized(b.Q, 26)), "27x27, not 26x26"),
    (lambda b: dict(Q=_resized(b.Q, 28)), "27x27, not 28x28"),
    (lambda b: dict(type_sigma=ColouredGraph(4, 3, (1,) * 6)),
     "3 vertices"),
], ids=["26 vectors", "26x26 Q", "28x28 Q", "4-vertex type"])
def test_block_rejects_a_bad_shape_at_construction(shipped_cert, change,
                                                   match):
    b = shipped_cert.blocks[1]
    with pytest.raises(ValueError, match=match):
        replace(b, **change(b))


def test_certificate_rejects_repeated_or_missing_types(shipped_cert):
    blocks = shipped_cert.blocks
    for bad in (blocks[:1] + blocks[:9], blocks[:9], blocks + blocks[:1]):
        with pytest.raises(ValueError, match="ten pairwise non-isomorphic"):
            Certificate(shipped_cert.bound, bad)


def test_table_symmetry_and_sum_rule(shipped_table):
    for r in range(10):
        for key, cells in shipped_table.counts[r].items():
            for (i, j), c in cells.items():
                assert cells[j, i] == c
            assert sum(cells.values()) == \
                2 * shipped_table.valid_injections[r][key]


def test_lambda_vector_shipped(shipped_cert, shipped_table):
    lams = lambda_vector(shipped_cert, shipped_table)
    assert len(lams) == 792
    assert all(lam >= 0 for lam in lams.values())
    assert lams[all_red_k5().entries] == 0
    from triflag.extremal import pentagon_base
    pent_key = canonical_key(pentagon_base())
    assert lams[pent_key] == 0


def fraction_lambdas(cert, table):
    """Oracle: lambda_k summed cell by cell in Fractions."""
    out = {}
    for key in table.model_keys:
        mono = mono_triangles(ColouredGraph(5, 3, tuple(key)))["total"]
        lam = Fraction(mono, 10) - cert.bound
        for block, counts in zip(cert.blocks, table.counts):
            lam -= sum(block.Q.rows[i][j] * Fraction(c, 120)
                       for (i, j), c in counts[key].items())
        out[key] = lam
    return out


def test_lambda_vector_matches_fraction_sums(shipped_cert, shipped_table):
    coarse = tuple(
        CertificateBlock(b.type_sigma, b.vectors, b.flags, SymMatrix(
            [[x.limit_denominator(1000) for x in row] for row in b.Q.rows]))
        for b in shipped_cert.blocks)
    for cert in (shipped_cert,
                 Certificate(Fraction(1, 24), shipped_cert.blocks),
                 Certificate(Fraction(7, 173), coarse)):
        lams = lambda_vector(cert, shipped_table)
        assert list(lams) == list(shipped_table.model_keys)
        assert lams == fraction_lambdas(cert, shipped_table)


def common_denominator(cert):
    return math.lcm(cert.bound.denominator,
                    *(x.denominator for block in cert.blocks
                      for row in block.Q.rows for x in row))


def dict_loop_lambdas(cert, table):
    """Oracle: lambda_k as integer numerators over one common denominator,
    summed model by model over the table's {(i, j): count} mappings."""
    den = common_denominator(cert)
    bound = cert.bound.numerator * (den // cert.bound.denominator) * 120
    scaled_q = [[[x.numerator * (den // x.denominator) for x in row]
                 for row in block.Q.rows] for block in cert.blocks]
    out = {}
    for key in table.model_keys:
        mono = mono_triangles(ColouredGraph(5, 3, tuple(key)))["total"]
        num = 12 * den * mono - bound
        for q, counts in zip(scaled_q, table.counts):
            num -= sum(q[i][j] * c for (i, j), c in counts[key].items())
        out[key] = Fraction(num, 120 * den)
    return out


def scaled_top(cert):
    """120 * max|scaled q|, the bound `lambda_vector` checks against 2**63."""
    den = common_denominator(cert)
    return 120 * max(abs(x.numerator) * (den // x.denominator)
                     for block in cert.blocks for row in block.Q.rows
                     for x in row)


def with_q(cert, entry, bound=None):
    """`cert` with Q^r[i][j] = entry(r, i, j), symmetric in i and j."""
    return Certificate(cert.bound if bound is None else bound, tuple(
        replace(b, Q=SymMatrix([[entry(r, i, j) for j in range(27)]
                                for i in range(27)]))
        for r, b in enumerate(cert.blocks)))


def int64_edge(cert, top):
    # integer entries of both signs up to `top` over an integer bound, so
    # the scaled Q is Q itself; the all-red model's counts add up to 120
    return with_q(cert, lambda r, i, j: (-1) ** r * (top - (i + j) % 3),
                  bound=Fraction(0))


def thirty_digit_denominators(cert):
    rng = random.Random(30)
    dens = [rng.randrange(10**29, 10**30) for _ in range(3)]
    q = {}
    for r in range(10):
        for i in range(27):
            for j in range(i + 1):
                q[r, i, j] = Fraction(rng.randrange(-10**30, 10**30),
                                      rng.choice(dens))
    return with_q(cert, lambda r, i, j: q[r, max(i, j), min(i, j)])


LAST_INT64_TOP = (2**63 - 1) // 120


@pytest.mark.parametrize("case", [
    "shipped", "flag-permuted", "int64-below", "int64-above", "30-digit"])
def test_lambda_vector_matches_dict_loop_oracle(shipped_cert, shipped_table,
                                                case):
    cert, table = shipped_cert, shipped_table
    if case == "flag-permuted":
        cert, _ = relabelled(shipped_cert, random.Random(5))
        table = coefficient_table(cert)
    elif case == "int64-below":
        cert = int64_edge(shipped_cert, LAST_INT64_TOP)
        assert 2**63 - 120 <= scaled_top(cert) < 2**63
    elif case == "int64-above":
        cert = int64_edge(shipped_cert, LAST_INT64_TOP + 1)
        assert 2**63 <= scaled_top(cert) < 2**63 + 120
    elif case == "30-digit":
        cert = thirty_digit_denominators(shipped_cert)
    lams = lambda_vector(cert, table)
    assert list(lams) == list(table.model_keys)
    assert all(type(lam) is Fraction for lam in lams.values())
    assert lams == dict_loop_lambdas(cert, table)


def shuffled_vectors(cert, rng):
    """`cert` with each block's flag vectors listed in a random order and
    Q left as it is: another certificate, which fails."""
    blocks = []
    for b in cert.blocks:
        order = rng.sample(range(27), 27)
        blocks.append(replace(b, vectors=tuple(b.vectors[k] for k in order),
                              flags=tuple(b.flags[k] for k in order)))
    return Certificate(cert.bound, tuple(blocks))


def test_a_table_of_another_layout_is_refused(shipped_cert, shipped_table):
    # the shipped table read against shuffled vectors gives a false
    # VERIFIED, against a valid flag-permuted copy a false FAILED
    shuffled = shuffled_vectors(shipped_cert, random.Random(6))
    assert not verify(shuffled).verified
    moved, _ = relabelled(shipped_cert, random.Random(7))
    assert verify(moved).verified
    for cert in (shuffled, moved):
        for check in (lambda_vector, verify):
            with pytest.raises(ValueError, match="block 1: .*another"):
                check(cert, shipped_table)


def test_a_table_with_fewer_blocks_is_refused(shipped_cert):
    # with block 10 scaled by 1000 the certificate fails on its own table;
    # its table cut to nine blocks would drop block 10 from every lambda
    # and give a false VERIFIED
    blocks = list(shipped_cert.blocks)
    blocks[9] = replace(blocks[9], Q=SymMatrix(
        [[1000 * x for x in row] for row in blocks[9].Q.rows]))
    cert = Certificate(shipped_cert.bound - Fraction(24, 125), tuple(blocks))
    table = coefficient_table(cert)
    report = verify(cert, table)
    assert not report.verified and len(report.negative_lambda_keys) == 6
    short = replace(table, counts=table.counts[:9],
                    valid_injections=table.valid_injections[:9])
    for check in (lambda_vector, verify):
        with pytest.raises(ValueError,
                           match="table has 9 blocks, the certificate 10"):
            check(cert, short)


def test_bad_family_containment_matches_per_subset_oracle():
    bad_keys = [canonical_key(H) for H in bad_family()]
    want = {}
    for M in enumerate_models(5, 3):
        four = {canonical_key(M.induced(vs))
                for vs in itertools.combinations(range(5), 4)}
        want[M.entries] = tuple(hk for hk in bad_keys if hk in four)
    bad = cert_mod.ModelData().bad
    assert list(bad.items()) == list(want.items())
    assert sum(map(bool, bad.values())) > 0


def test_model_data_mono_matches_mono_triangles():
    mono = cert_mod.ModelData().mono
    assert list(mono) == [M.entries for M in enumerate_models(5, 3)]
    for key, total in mono.items():
        M = ColouredGraph(5, 3, tuple(key))
        assert total == mono_triangles(M)["total"]


def test_bad_family_violations_match_eager_containment(shipped_cert,
                                                       shipped_table):
    report = verify(Certificate(Fraction(1, 24), shipped_cert.blocks),
                    shipped_table)
    bad_keys = [canonical_key(H) for H in bad_family()]
    want = []
    for M in enumerate_models(5, 3):
        lam = report.lambdas[M.entries]
        if lam <= 0:
            four = subgraph_class_counts(M, 4)
            want += [(hk, M.entries, lam) for hk in bad_keys
                     if four.get(hk, 0) > 0]
    assert len(want) == 45
    assert report.bad_family_violations == want


def test_verify_shipped(shipped_report):
    assert shipped_report.verified
    assert shipped_report.verdict == "VERIFIED"
    assert shipped_report.min_lambda == 0
    assert shipped_report.psd_failed_blocks == []
    assert shipped_report.bad_family_ok
    text = report_text(shipped_report)
    assert "VERDICT VERIFIED" in text


def test_psd_ranks_are_reported(shipped_report):
    assert shipped_report.psd_ranks == [1, 22, 22, 22, 21, 22, 1, 22, 22, 1]
    lines = report_text(shipped_report).splitlines()
    assert lines[:10] == ["PSD block=%d ok" % r for r in range(1, 11)]
    assert lines[10] == "PSD_RANKS 1 22 22 22 21 22 1 22 22 1"


def test_verify_reports_are_deterministic(shipped_cert, shipped_table):
    a = verify(shipped_cert, shipped_table)
    b = verify(shipped_cert, shipped_table)
    assert a.lambdas == b.lambdas
    assert a.psd_ok == b.psd_ok
    assert a.verified == b.verified


def test_tightened_bound_fails(shipped_cert, shipped_table):
    bad = Certificate(Fraction(1, 24), shipped_cert.blocks)
    report = verify(bad, shipped_table)
    assert not report.verified
    assert report.negative_lambda_keys
    assert "VERDICT FAILED" in report_text(report)


def test_negated_block_fails_psd(shipped_cert, shipped_table):
    blocks = list(shipped_cert.blocks)
    b = blocks[0]
    blocks[0] = CertificateBlock(
        b.type_sigma, b.vectors, b.flags,
        SymMatrix([[-x for x in row] for row in b.Q.rows]))
    report = verify(Certificate(shipped_cert.bound, tuple(blocks)),
                    shipped_table)
    assert not report.verified
    assert report.psd_failed_blocks == [1]
    assert "PSD_RANKS - 22 22 22 21 22 1 22 22 1\n" in report_text(report)


def test_single_entry_mutations_name_the_failing_check(shipped_cert,
                                                       shipped_table):
    rng = random.Random(2026)
    eps = Fraction(1, 10**6)
    for _ in range(20):
        r = rng.randrange(10)
        i = rng.randrange(27)
        j = rng.randrange(27)
        sign = rng.choice((1, -1))
        rows = [list(row) for row in shipped_cert.blocks[r].Q.rows]
        rows[i][j] += sign * eps
        rows[j][i] = rows[i][j]
        blocks = list(shipped_cert.blocks)
        b = blocks[r]
        blocks[r] = CertificateBlock(b.type_sigma, b.vectors, b.flags,
                                     SymMatrix(rows))
        report = verify(Certificate(shipped_cert.bound, tuple(blocks)),
                        shipped_table)
        if report.verified:
            continue
        assert (report.psd_failed_blocks or report.negative_lambda_keys
                or report.bad_family_violations)


def test_extremal_zero_report(shipped_report):
    rows = cert_mod.extremal_zero_report(shipped_report.lambdas)
    assert len(rows) == 792
    occurring = {key for key, _, occ in rows if occ}
    assert all_red_k5().entries in occurring
    from triflag.extremal import pentagon_base
    assert canonical_key(pentagon_base()) in occurring
    for key, lam, occ in rows:
        if occ:
            assert lam == 0
            M = ColouredGraph(5, 3, tuple(key))
            per = mono_triangles(M)
            assert per[2] == 0 and per[3] == 0


def test_extremal_zero_report_builds_the_construction_once(shipped_report):
    cert_mod._gex_model_keys.cache_clear()
    with mock.patch.object(cert_mod, "subgraph_class_counts",
                           wraps=subgraph_class_counts) as counted:
        first = cert_mod.extremal_zero_report(shipped_report.lambdas)
        second = cert_mod.extremal_zero_report(shipped_report.lambdas)
    assert counted.call_count == 1
    assert first == second


def test_extremal_zero_report_reports_a_slack_bound(shipped_cert,
                                                    shipped_table):
    lowered = Certificate(shipped_cert.bound - Fraction(1, 10**7),
                          shipped_cert.blocks)
    report = verify(lowered, shipped_table)
    assert report.verified
    rows = cert_mod.extremal_zero_report(report.lambdas)
    assert len(rows) == 792
    assert sum(1 for _, lam, occ in rows if occ and lam != 0) == 16


def test_psd_sources_pin_the_colour_orbits(shipped_report):
    # the shipped certificate is invariant under the 3-cycle of colours:
    # only blocks 1, 2, 3 and 5 are eliminated, the rest take a verdict
    assert shipped_report.psd_sources == [None, None, None, 3, None, 2, 1, 2,
                                          3, 1]
    assert "source" not in report_text(shipped_report).lower()


def flag_form(rows, v):
    """v^T Q v summed entry by entry in Fractions."""
    return sum((v[i] * rows[i][j] * v[j] for i in range(len(v)) if v[i]
                for j in range(len(v)) if v[j]), Fraction(0))


def with_blocks(cert, changes):
    """`cert` with block r's Q rows replaced by changes[r](rows)."""
    blocks = list(cert.blocks)
    for r, change in changes.items():
        blocks[r] = replace(blocks[r], Q=SymMatrix(change(blocks[r].Q.rows)))
    return replace(cert, blocks=tuple(blocks))


def negate(rows):
    return [[-x for x in row] for row in rows]


def flag_permuted(cert, rng):
    """The flags of every block listed in a random order, as the benchmark's
    permuted candidates are built."""
    blocks = []
    for b in cert.blocks:
        p = rng.sample(range(27), 27)
        blocks.append(replace(
            b, vectors=tuple(b.vectors[k] for k in p),
            flags=tuple(b.flags[k] for k in p),
            Q=SymMatrix([[b.Q.rows[i][j] for j in p] for i in p])))
    return replace(cert, blocks=tuple(blocks))


def orbit_cases(cert):
    rng = random.Random(2601)
    cases = [("shipped", cert)]
    cases += [("permuted-%d" % t, flag_permuted(cert, rng)) for t in range(2)]
    cases.append(("relabelled", relabelled(cert, rng)[0]))
    cases += [("negated-%d" % (r + 1), with_blocks(cert, {r: negate}))
              for r in range(10)]
    cases.append(("negated-2-6", with_blocks(cert, {1: negate, 5: negate})))
    i, j = rng.randrange(27), rng.randrange(27)
    delta = Fraction(rng.randrange(1, 10**6), rng.randrange(10**6, 10**8))

    def nudged(rows):
        rows = [list(row) for row in rows]
        rows[i][j] += delta
        rows[j][i] = rows[i][j]
        return rows
    cases.append(("nudged-6", with_blocks(cert, {5: nudged})))
    return cases


def test_orbit_verdicts_match_psd_check_on_every_block(shipped_cert,
                                                       shipped_table):
    for name, cert in orbit_cases(shipped_cert):
        report = verify(cert, coefficient_table(cert))
        direct = [cert_mod.psd_check(b.Q) for b in cert.blocks]
        assert report.psd_ok == [v.is_psd for v in direct], name
        assert report.psd_ranks == [v.rank for v in direct], name
        for r, source in enumerate(report.psd_sources):
            if source is not None:
                assert source - 1 < r, name
                assert report.psd_sources[source - 1] is None, name
        if name in ("shipped", "permuted-0", "permuted-1", "relabelled"):
            assert report.psd_ok == [True] * 10
            assert sum(s is not None for s in report.psd_sources) == 6, name


def test_a_reused_not_psd_verdict_carries_a_checked_witness(shipped_cert):
    cert = dict(orbit_cases(shipped_cert))["negated-2-6"]
    verdicts, sources = cert_mod._psd_verdicts(cert.blocks)
    assert sources[5] == 2
    assert not verdicts[5].is_psd
    assert flag_form(cert.blocks[5].Q.rows, verdicts[5].witness) < 0
    assert verdicts[5].witness != verdicts[1].witness


def test_a_changed_image_block_is_eliminated_itself(shipped_cert):
    cert = dict(orbit_cases(shipped_cert))["nudged-6"]
    verdicts, sources = cert_mod._psd_verdicts(cert.blocks)
    assert sources[5] is None
    assert sources[7] == 2
    direct = cert_mod.psd_check(cert.blocks[5].Q)
    assert (verdicts[5].is_psd, verdicts[5].rank) == (direct.is_psd,
                                                       direct.rank)


def first_part_of_dim(dim, verdict):
    """A `psd_check` stand-in that gives `verdict` for the first
    symmetry-reduced part of `dim` rows it meets, and checks all else."""
    psd_check = cert_mod.psd_check
    met = []

    def check(M):
        if M.dim == dim and not hasattr(M, "rows") and not met:
            met.append(M)
            return verdict
        return psd_check(M)
    return check


def test_a_permuted_witness_that_fails_its_recheck_raises(shipped_cert):
    # a proposal is only a proposal: a witness that does not re-check on
    # its own block is an internal fault, never a verdict.  The fake enters
    # through block 2's first part (block 1's parts have 10 and 17 rows,
    # block 2's 18 and 9), and block 2's own re-check is made to accept it,
    # so only block 6's re-check of its permuted copy can refuse it
    cert = dict(orbit_cases(shipped_cert))["negated-2-6"]
    fake = cert_mod.PsdVerdict(is_psd=False, witness=(0,) * 18)
    form = SymMatrix.quadratic_form
    with mock.patch.object(cert_mod, "psd_check",
                           side_effect=first_part_of_dim(18, fake)), \
            mock.patch.object(SymMatrix, "quadratic_form", autospec=True,
                              side_effect=lambda M, v: Fraction(-1)
                              if M is cert.blocks[1].Q else form(M, v)):
        with pytest.raises(cert_mod.WitnessError,
                           match="^block 6: .* of block 2 "):
            cert_mod._psd_verdicts(cert.blocks)


def test_a_lifted_witness_that_fails_its_recheck_raises(shipped_cert):
    # block 1's parts have 10 and 17 rows: a zero witness of its first part
    # lifts to the zero vector, which its re-check on Q must refuse
    fake = cert_mod.PsdVerdict(is_psd=False, witness=(0,) * 10)
    with mock.patch.object(cert_mod, "psd_check",
                           side_effect=first_part_of_dim(10, fake)):
        with pytest.raises(cert_mod.WitnessError,
                           match="^block 1: the lifted witness "):
            cert_mod._psd_verdicts(shipped_cert.blocks)


def symmetry_broken(cert, r=1):
    """`cert` with one entry pair of block r + 1's Q nudged, at a flag in a
    two-flag orbit of its symmetry against a flag its symmetry fixes, so
    that no flag permutation but the identity keeps it."""
    orbits = cert_mod._invariant_orbits(cert.blocks[r])
    i = next(o[0] for o in orbits if len(o) > 1)
    j = next(o[0] for o in orbits if len(o) == 1)

    def nudged(rows):
        rows = [list(row) for row in rows]
        rows[i][j] += Fraction(1, 10**6)
        rows[j][i] = rows[i][j]
        return rows
    return with_blocks(cert, {r: nudged})


def difference_negative(cert, r=1):
    """`cert` with 100 d d^T taken from block r + 1's Q, d = e_f - e_k for
    the two flags of an orbit of its symmetry, an involution that swaps
    them: Q stays invariant and its orbit-sum part unchanged, and the
    difference part is no longer PSD."""
    orbits = cert_mod._invariant_orbits(cert.blocks[r])
    f, k = next(o for o in orbits if len(o) == 2)

    def lowered(rows):
        rows = [list(row) for row in rows]
        for a, b, sign in ((f, f, 1), (k, k, 1), (f, k, -1), (k, f, -1)):
            rows[a][b] -= 100 * sign
        return rows
    return with_blocks(cert, {r: lowered})


def test_reduced_verdicts_match_psd_check_on_every_block(shipped_cert):
    # each block's verdict on its symmetry-reduced parts, against a direct
    # psd_check of the whole block; a block whose symmetry is broken goes
    # whole to psd_check, and one whose difference part alone fails gets a
    # witness lifted from that part
    cases = orbit_cases(shipped_cert)
    cases.append(("symmetry-broken-2", symmetry_broken(shipped_cert)))
    cases.append(("difference-negative-2",
                  difference_negative(shipped_cert)))
    sizes = []
    for name, cert in cases:
        for b, block in enumerate(cert.blocks, start=1):
            orbits = cert_mod._invariant_orbits(block)
            with mock.patch.object(cert_mod, "psd_check",
                                   wraps=cert_mod.psd_check) as spy:
                verdict = cert_mod._reduced_verdict(block, b)
            checked = [call.args[0] for call in spy.call_args_list]
            if orbits is None:
                assert checked == [block.Q], (name, b)
            else:
                k = len(orbits)
                assert [M.dim for M in checked] in ([k], [k, 27 - k]), \
                    (name, b)
            direct = cert_mod.psd_check(block.Q)
            assert (verdict.is_psd, verdict.rank) == (direct.is_psd,
                                                       direct.rank), (name, b)
            if not verdict.is_psd:
                assert flag_form(block.Q.rows, verdict.witness) < 0, (name, b)
            if name == "shipped":
                sizes.append(None if orbits is None else len(orbits))
            if name == "difference-negative-2" and b == 2:
                assert [M.dim for M in checked] == [18, 9]
                assert not verdict.is_psd
    assert sizes == [10, 18, 18, 18, 11, 18, 10, 18, 18, 10]
    broken = symmetry_broken(shipped_cert).blocks[1]
    assert cert_mod._invariant_orbits(broken) is None


def test_the_parts_are_the_congruence_of_the_whole_block(shipped_cert):
    # with T = [orbit sums | e_first - e_other], T^T Q T is diag(Q_0, Q_1),
    # the parts psd_check is given, rebuilt here in Fractions
    block = shipped_cert.blocks[4]
    orbits = cert_mod._invariant_orbits(block)
    columns = [{i: 1 for i in o} for o in orbits]
    columns += [{o[0]: 1, k: -1} for o in orbits for k in o[1:]]
    rows = block.Q.rows
    congruent = [[sum(s * rows[i][j] * t for i, s in c.items()
                      for j, t in d.items()) for d in columns]
                 for c in columns]
    k = len(orbits)
    assert (k, len(columns) - k) == (11, 16)
    assert all(congruent[a][c] == 0 for a in range(k)
               for c in range(k, 27))
    with mock.patch.object(cert_mod, "psd_check",
                           wraps=cert_mod.psd_check) as spy:
        cert_mod._reduced_verdict(block, 5)
    parts = [call.args[0] for call in spy.call_args_list]
    assert [M.dim for M in parts] == [k, 27 - k]
    for M, lo in zip(parts, (0, k)):
        for a in range(M.dim):
            for c in range(M.dim):
                assert Fraction(M.num[a][c], M.scale[a]) == \
                    congruent[lo + a][lo + c]


def test_a_verdict_with_huge_lambdas_is_printed(shipped_cert, shipped_table):
    # every lambda has over 5,000 digits, past Python's int-string limit
    report = verify(replace(shipped_cert, bound=Fraction(10**5000 + 1, 3)),
                    shipped_table)
    lines = report_text(report).splitlines()
    assert lines[-1] == "VERDICT FAILED"
    assert "NEGATIVE_LAMBDAS 792" in lines
    low = report.min_lambda
    assert lines[11] == "MIN_LAMBDA -%s/%s" % (
        "".join("%d" % d for d in digits_of(-low.numerator)),
        "".join("%d" % d for d in digits_of(low.denominator)))


def digits_of(n):
    """The decimal digits of n > 0, most significant first."""
    digits = []
    while n:
        n, d = divmod(n, 10)
        digits.append(d)
    return digits[::-1]
