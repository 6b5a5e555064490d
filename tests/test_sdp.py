import random
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from triflag import certificate as cert_mod
from triflag.certificate import (Certificate, CertificateBlock,
                                 load_certificate, serialize_certificate,
                                 verify)
from triflag.exact import SymMatrix
from triflag.graphs import ColouredGraph, mono_triangles
from triflag.sdp import (NUM_BLOCKS, NUM_MODELS, TARGET_BOUND, SdpFormatError,
                         export_sdp, parse_solution, round_solution)


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sdp") / "problem.dat-s"
    export_sdp(path)
    return path


def test_export_header(problem_file, read_problem):
    assert problem_file.read_text().splitlines()[1:3] == ["792", "11"]
    sizes, rhs, _ = read_problem(problem_file)
    assert len(rhs) == NUM_MODELS == 792
    assert len(sizes) == NUM_BLOCKS == 11
    assert sizes == [27] * 10 + [-792]


def test_export_round_trip_is_exact_at_emitted_precision(problem_file,
                                                         shipped_table,
                                                         read_problem):
    _, rhs, entries = read_problem(problem_file)
    tol = Fraction(1, 10**38)
    for k, key in enumerate(shipped_table.model_keys, start=1):
        M = ColouredGraph(5, 3, tuple(key))
        exact = Fraction(mono_triangles(M)["total"], 10) - Fraction(1, 25)
        assert abs(rhs[k - 1] - exact) <= tol
        assert entries[k, 11, k, k] == 1
    rng = random.Random(4)
    items = sorted(entries)
    for _ in range(50):
        k, blk, i, j = items[rng.randrange(len(items))]
        if blk == 11:
            continue
        cells = shipped_table.counts[blk - 1][shipped_table.model_keys[k - 1]]
        exact = Fraction(cells[i - 1, j - 1], 120)
        assert abs(entries[k, blk, i, j] - exact) <= tol


def test_export_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    export_sdp(a)
    export_sdp(b)
    assert a.read_bytes() == b.read_bytes()


def _write_solution(path, entry_lines):
    lines = [" ".join(["0.0"] * NUM_MODELS)] + entry_lines
    path.write_text("\n".join(lines) + "\n")


def test_parse_solution_identity_blocks(tmp_path):
    path = tmp_path / "sol"
    _write_solution(path, ["2 %d %d %d 1.0" % (b, i, i)
                           for b in range(1, 11) for i in range(1, 28)])
    sol = parse_solution(path)
    for b in range(10):
        for i in range(27):
            for j in range(27):
                assert sol[b][i][j] == (1.0 if i == j else 0.0)


def test_parse_solution_symmetrizes(tmp_path):
    path = tmp_path / "sol"
    _write_solution(path, ["2 1 1 2 0.4", "2 1 2 1 0.6"])
    sol = parse_solution(path)
    assert sol[0][0][1] == sol[0][1][0] == 0.5
    # a lower-triangle entry alone is mirrored into the upper triangle
    _write_solution(path, ["2 3 5 2 0.25", "2 3 4 4 -1.5"])
    sol = parse_solution(path)
    assert sol[2][4][1] == sol[2][1][4] == 0.25
    assert sol[2][3][3] == -1.5
    assert sum(x != 0 for row in sol[2] for x in row) == 3
    # a repeated line keeps its last value, before the averaging
    _write_solution(path, ["2 1 1 2 9.0", "2 1 2 1 0.6", "2 1 1 2 0.4",
                           "2 1 3 3 7.0", "2 1 3 3 2.0"])
    sol = parse_solution(path)
    assert sol[0][0][1] == sol[0][1][0] == 0.5
    assert sol[0][2][2] == 2.0


def test_parse_solution_errors(tmp_path):
    path = tmp_path / "sol"
    path.write_text("")
    with pytest.raises(SdpFormatError):
        parse_solution(path)
    path.write_text("1.0 2.0\n")
    with pytest.raises(SdpFormatError, match="line 1"):
        parse_solution(path)
    _write_solution(path, ["2 1 1 99 1.0"])
    with pytest.raises(SdpFormatError, match="out of range"):
        parse_solution(path)
    _write_solution(path, ["2 1 1"])
    with pytest.raises(SdpFormatError, match="line"):
        parse_solution(path)
    _write_solution(path, [])
    with pytest.raises(SdpFormatError, match="no matrix entries"):
        parse_solution(path)
    for value in ("inf", "-inf", "1e400", "nan", "1_0", "\u0661.5", "0x1"):
        _write_solution(path, ["2 1 1 1 1.0", "1 1 1 1 " + value])
        with pytest.raises(SdpFormatError, match="line 3: non-finite"):
            parse_solution(path)
        path.write_text(" ".join(["0.0"] * (NUM_MODELS - 1) + [value])
                        + "\n2 1 1 1 1.0\n")
        with pytest.raises(SdpFormatError, match="line 1: .*non-finite"):
            parse_solution(path)


@pytest.mark.parametrize("entry", ["2 11 1 2 1.0", "2 11 793 793 1.0",
                                   "2 11 0 0 1.0"])
def test_parse_solution_checks_the_slack_block(tmp_path, entry):
    # the slack values are not kept, but a slack entry off the diagonal
    # or past model 792 is still a malformed file
    path = tmp_path / "sol"
    _write_solution(path, ["2 1 1 1 1.0", "2 11 792 792 0.5", entry])
    with pytest.raises(SdpFormatError,
                       match="line 4: slack block is diagonal of size 792"):
        parse_solution(path)


@pytest.mark.parametrize("entry", ["2 \u0661 1 1 1_0", "2 1 \uff11 1 0.5"])
def test_parse_solution_takes_ascii_integers_only(tmp_path, entry):
    # int() and float() would read "2 \u0661 1 1 1_0" as 10.0 in row 1
    path = tmp_path / "sol"
    _write_solution(path, ["2 1 1 1 1.0", entry])
    with pytest.raises(SdpFormatError, match="line 3: "):
        parse_solution(path)


def test_parse_solution_names_a_value_that_overflows(tmp_path):
    # "1e400" has the shape of a decimal; float() takes it to inf
    path = tmp_path / "sol"
    _write_solution(path, ["2 1 1 1 1.0", "2 1 1 2 1e400"])
    with pytest.raises(SdpFormatError, match="^line 3: non-finite value or "
                       "not an ASCII decimal: '1e400'$"):
        parse_solution(path)


def test_parse_solution_reads_a_long_value_in_linear_time(tmp_path):
    # the value pattern splits a run of digits one way only, so rejecting
    # a long run takes time linear, not quadratic, in its length
    path = tmp_path / "sol"
    _write_solution(path, ["2 1 1 1 " + "9" * 200_000 + "x"])
    start = time.process_time()
    with pytest.raises(SdpFormatError, match="^line 2: non-finite"):
        parse_solution(path)
    assert time.process_time() - start < 5


# Every value shape the solution format admits, signs and exponents included
VALUE_SHAPES = ["1.", ".5", "-0", "1E-3", "+4e+2", "-.25", "7", "+1.5E+1",
                "0.0", "-3.e-2", "00012.5000"]


def _well_formed_solution(rng):
    """A seeded solution file that parses, in the layouts solvers write:
    tabs and runs of spaces, signed and zero-padded integers, matno-1 and
    slack lines, repeated entries and pairs given in both triangles."""
    def sep():
        return rng.choice([" ", "\t", "  ", " \t ", "\t\t", "    "])

    def integer(k):
        return rng.choice(["%d", "+%d", "0%d", "%d"]) % k

    def value():
        if rng.random() < 0.3:
            return rng.choice(VALUE_SHAPES)
        return rng.choice(["%r", "%.6e", "%.17g"]) % rng.uniform(-2, 2)

    def line(*fields):
        return (rng.choice(["", " ", "\t"]) + sep().join(fields)
                + rng.choice(["", " ", "\t"]))

    lines = [line(*[value() for _ in range(NUM_MODELS)])]
    entries = []
    for _ in range(rng.randrange(50, 300)):
        b, i, j = rng.randrange(1, 11), rng.randrange(1, 28), rng.randrange(
            1, 28)
        entries.append((2, b, i, j))
        if rng.random() < 0.3:
            entries.append((2, b, j, i))          # the other triangle
        if rng.random() < 0.1:
            entries.append((2, b, i, j))          # repeated
    entries += [(1, rng.randrange(1, 12), rng.randrange(1, 28),
                 rng.randrange(1, 28)) for _ in range(rng.randrange(20))]
    entries += [(2, 11, k, k) for k in rng.sample(range(1, 793), 20)]
    rng.shuffle(entries)
    for fields in entries:
        lines.append(line(*map(integer, fields), value()))
        if rng.random() < 0.05:
            lines.append(rng.choice(["", " ", "\t"]))
    return "\n".join(lines) + "\n"


def _reference_parse(text):
    """Token-by-token reading of a well-formed solution file: the last
    value of each matno-2 flag-block entry, the float average of a pair
    given in both triangles, mirrored."""
    cells = {}
    for toks in [line.split() for line in text.splitlines()][1:]:
        if toks and int(toks[0]) == 2 and int(toks[1]) <= 10:
            b, i, j = (int(t) for t in toks[1:4])
            cells[b - 1, i - 1, j - 1] = float(toks[4])
    blocks = [[[0.0] * 27 for _ in range(27)] for _ in range(10)]
    for (b, i, j), val in cells.items():
        if i != j and (b, j, i) in cells:
            val = (val + cells[b, j, i]) / 2.0
        blocks[b][i][j] = blocks[b][j][i] = val
    return blocks


def test_parse_solution_matches_a_token_by_token_reader(tmp_path):
    path = tmp_path / "sol"
    rng = random.Random(25)
    for _ in range(30):
        text = _well_formed_solution(rng)
        path.write_text(text)
        assert repr(parse_solution(path)) == repr(_reference_parse(text))


def test_parse_solution_mutation_fuzz_raises_only_sdp_format_error(
        tmp_path, mutant, write_with_bad_byte):
    path = tmp_path / "sol"
    _write_solution(path, ["2 1 1 1 0.5", "2 1 1 2 -0.25", "2 10 27 3 1e-3",
                           "1 1 1 1 7", "2 11 5 5 0.125"])
    lines = path.read_text().splitlines()
    rng = random.Random(2012)
    cases = [mutant(lines, rng) for _ in range(300)]
    # a byte that is not UTF-8
    number = write_with_bad_byte(path, lines, rng)
    with pytest.raises(SdpFormatError, match="^line %d: byte 0xff is not "
                       "UTF-8$" % number):
        parse_solution(path)
    # a line over the length cap inside the file
    cases.append("\n".join(lines[:2] + ["0" * (1 << 18)] + lines[2:]) + "\n")
    path.write_text(cases[-1])
    with pytest.raises(SdpFormatError, match="line 3 is longer than"):
        parse_solution(path)
    for case, text in enumerate(cases):
        path.write_text(text)
        try:
            parse_solution(path)
        except SdpFormatError:
            pass
        except Exception as exc:
            pytest.fail("case %d: %s escaped: %.200s"
                        % (case, type(exc).__name__, exc))


def _perturbed_blocks(cert, amplitude, seed=0):
    rng = random.Random(seed)
    blocks = []
    for blk in cert.blocks:
        rows = [[float(blk.Q.rows[i][j]) +
                 rng.uniform(-amplitude, amplitude)
                 for j in range(27)] for i in range(27)]
        blocks.append(rows)
    return blocks


def test_round_solution_recovers_exact_certificate(shipped_cert):
    blocks = _perturbed_blocks(shipped_cert, 1e-14)
    rec = round_solution(blocks, max_den=4 * 10**6)
    assert rec == shipped_cert


def test_round_solution_reads_the_upper_triangle_only(shipped_cert):
    symmetric = [[[float(x) for x in row] for row in blk.Q.rows]
                 for blk in shipped_cert.blocks]
    upper = [[[x if i <= j else float("nan") for j, x in enumerate(row)]
              for i, row in enumerate(b)] for b in symmetric]
    for max_den in (1000, 4 * 10**6):
        assert (round_solution(upper, max_den=max_den)
                == round_solution(symmetric, max_den=max_den))


def test_round_solution_parses_the_shipped_certificate_once(monkeypatch):
    calls = []

    def spy(text):
        calls.append(1)
        return load_certificate(text)

    monkeypatch.setattr(cert_mod, "load_certificate", spy)
    cert_mod.load_shipped_certificate.cache_clear()
    blocks = [np.eye(27)] * 10
    assert round_solution(blocks) == round_solution(blocks)
    assert len(calls) == 1


@pytest.mark.parametrize("noise", [1e-14, 1e-8])
def test_round_solution_matches_entrywise_limit_denominator(shipped_cert,
                                                            noise):
    blocks = _perturbed_blocks(shipped_cert, noise, seed=25)
    for max_den in (1, 10**3, 4 * 10**6, 10**9):
        reference = Certificate(TARGET_BOUND, tuple(
            CertificateBlock(b.type_sigma, b.vectors, b.flags, SymMatrix(
                [[Fraction(repr(numeric[min(i, j)][max(i, j)]))
                  .limit_denominator(max_den) for j in range(27)]
                 for i in range(27)]))
            for b, numeric in zip(shipped_cert.blocks, blocks)))
        assert (serialize_certificate(round_solution(blocks, max_den))
                == serialize_certificate(reference))


@pytest.mark.parametrize("max_den", [0, -5])
def test_round_solution_rejects_max_den_below_one_once(max_den):
    with pytest.raises(ValueError, match="^max_den must be >= 1$"):
        round_solution([np.eye(27)] * 10, max_den=max_den)


def test_round_solution_takes_float32_blocks_as_float64(shipped_cert):
    blocks = np.array(_perturbed_blocks(shipped_cert, 1e-8), np.float32)
    for max_den in (10**3, 4 * 10**6):
        assert (round_solution(blocks, max_den)
                == round_solution(blocks.astype(np.float64), max_den))


def test_round_solution_reads_decimals_exactly():
    blocks = [[[0.0] * 27 for _ in range(27)] for _ in range(10)]
    blocks[0][0][0], blocks[4][2][7] = Decimal("0.1"), "-0.3"
    rounded = round_solution(blocks, max_den=10**6)
    assert rounded.blocks[0].Q.rows[0][0] == Fraction(1, 10)
    assert rounded.blocks[4].Q.rows[7][2] == Fraction(-3, 10)


@pytest.mark.parametrize("value", [None, 1j, "x", [0.5]])
def test_round_solution_names_the_entry_it_cannot_read(value):
    blocks = [[[0.0] * 27 for _ in range(27)] for _ in range(10)]
    blocks[2][3][5] = value
    with pytest.raises(ValueError, match=r"^block 3: entry \(4, 6\): "):
        round_solution(blocks)


def test_round_solution_with_exact_inputs(shipped_cert):
    blocks = [[[blk.Q.rows[i][j] for j in range(27)] for i in range(27)]
              for blk in shipped_cert.blocks]
    assert round_solution(blocks, max_den=4 * 10**6) == shipped_cert


def test_round_solution_integer_rounding_fails_verification(shipped_cert,
                                                            shipped_table):
    blocks = _perturbed_blocks(shipped_cert, 1e-14)
    coarse = round_solution(blocks, max_den=1)
    assert not verify(coarse, shipped_table).verified


def test_round_solution_all_zero_blocks_fail(shipped_table):
    zero = round_solution([[[0.0] * 27 for _ in range(27)]
                           for _ in range(10)])
    report = verify(zero, shipped_table)
    assert not report.verified
    assert report.negative_lambda_keys


def test_round_solution_takes_numpy_blocks():
    rounded = round_solution([np.eye(27)] * 10)
    identity = SymMatrix([[int(i == j) for j in range(27)]
                          for i in range(27)])
    assert all(b.Q == identity for b in rounded.blocks)


@pytest.mark.parametrize("cell, value", [((0, 0), float("inf")),
                                         ((3, 5), float("-inf")),
                                         ((3, 5), float("nan"))])
def test_round_solution_rejects_non_finite(cell, value):
    blocks = [[[0.0] * 27 for _ in range(27)] for _ in range(10)]
    blocks[2][cell[0]][cell[1]] = value
    with pytest.raises(ValueError, match="block 3: "):
        round_solution(blocks)


def test_round_solution_validates_shape():
    with pytest.raises(ValueError):
        round_solution([[[0.0] * 27] * 27] * 9)
    with pytest.raises(ValueError):
        round_solution([[[0.0] * 26] * 27] * 10)
