import random
from fractions import Fraction

import numpy as np
import pytest

from triflag.certificate import verify
from triflag.exact import SymMatrix
from triflag.graphs import ColouredGraph, mono_triangles
from triflag.sdp import (NUM_BLOCKS, NUM_MODELS, SdpFormatError, export_sdp,
                         parse_sdp, parse_solution, round_solution)


@pytest.fixture(scope="module")
def problem_file(shipped_table, tmp_path_factory):
    path = tmp_path_factory.mktemp("sdp") / "problem.dat-s"
    export_sdp(shipped_table, path)
    return path


def test_export_header(problem_file):
    prob = parse_sdp(problem_file)
    assert prob.m == NUM_MODELS == 792
    assert len(prob.block_sizes) == NUM_BLOCKS == 11
    assert prob.block_sizes[:10] == (27,) * 10
    assert prob.block_sizes[10] == -792


def test_export_round_trip_is_exact_at_emitted_precision(problem_file,
                                                         shipped_table):
    prob = parse_sdp(problem_file)
    tol = Fraction(1, 10**38)
    for k, key in enumerate(shipped_table.model_keys, start=1):
        M = ColouredGraph(5, 3, tuple(key))
        exact = Fraction(mono_triangles(M)["total"], 10) - Fraction(1, 25)
        assert abs(prob.rhs[k - 1] - exact) <= tol
        assert prob.entries[k, 11, k, k] == 1
    rng = random.Random(4)
    items = sorted(prob.entries)
    for _ in range(50):
        k, blk, i, j = items[rng.randrange(len(items))]
        if blk == 11:
            continue
        cells = shipped_table.counts[blk - 1][shipped_table.model_keys[k - 1]]
        exact = Fraction(cells[i - 1, j - 1], 120)
        assert abs(prob.entries[k, blk, i, j] - exact) <= tol


def test_export_is_deterministic(shipped_table, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    export_sdp(shipped_table, a)
    export_sdp(shipped_table, b)
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
                assert sol.blocks[b][i][j] == (1.0 if i == j else 0.0)


def test_parse_solution_symmetrizes(tmp_path):
    path = tmp_path / "sol"
    _write_solution(path, ["2 1 1 2 0.4", "2 1 2 1 0.6"])
    sol = parse_solution(path)
    assert sol.blocks[0][0][1] == sol.blocks[0][1][0] == 0.5
    # a lower-triangle entry alone is mirrored into the upper triangle
    _write_solution(path, ["2 3 5 2 0.25", "2 3 4 4 -1.5"])
    sol = parse_solution(path)
    assert sol.blocks[2][4][1] == sol.blocks[2][1][4] == 0.25
    assert sol.blocks[2][3][3] == -1.5
    assert sum(x != 0 for row in sol.blocks[2] for x in row) == 3
    # a repeated line keeps its last value, before the averaging
    _write_solution(path, ["2 1 1 2 9.0", "2 1 2 1 0.6", "2 1 1 2 0.4",
                           "2 1 3 3 7.0", "2 1 3 3 2.0"])
    sol = parse_solution(path)
    assert sol.blocks[0][0][1] == sol.blocks[0][1][0] == 0.5
    assert sol.blocks[0][2][2] == 2.0


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


SMALL_PROBLEM = """"a small problem in the same format
3
2
2 -3
0.04 -0.3333333333 1e-3
1 1 1 1 0.5
1 1 1 2 -0.25
2 2 2 2 1
3 1 2 2 0.125
"""


def test_parse_sdp_small_problem(tmp_path):
    path = tmp_path / "problem"
    path.write_text(SMALL_PROBLEM)
    prob = parse_sdp(path)
    assert prob.block_sizes == (2, -3)
    assert prob.rhs == (Fraction(1, 25), Fraction(-3333333333, 10**10),
                        Fraction(1, 1000))
    assert prob.entries[1, 1, 1, 2] == Fraction(-1, 4)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "Infinity", "snan",
                                   "1e999999999", "1e-999999999"])
def test_parse_sdp_rejects_non_finite_and_huge_values(tmp_path, value):
    path = tmp_path / "problem"
    lines = SMALL_PROBLEM.splitlines()
    lines[4] = "0.04 %s 1e-3" % value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SdpFormatError, match="line 5"):
        parse_sdp(path)
    lines = SMALL_PROBLEM.splitlines()
    lines[6] = "1 1 1 2 " + value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SdpFormatError, match="line 7"):
        parse_sdp(path)


@pytest.mark.parametrize("line, text", [
    (4, "\u0662 -3"),                          # Arabic-Indic two
    (5, "0.04 -0.3333333333 0.0_4"),
    (7, "1 1 1 \uff12 -0.25"),                 # full-width two
])
def test_parse_sdp_takes_ascii_numbers_only(tmp_path, line, text):
    # int() and Decimal would read these as 2 and 1/25
    lines = SMALL_PROBLEM.splitlines()
    lines[line - 1] = text
    path = tmp_path / "problem"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SdpFormatError, match="line %d: " % line):
        parse_sdp(path)


@pytest.mark.parametrize("entry", ["2 \u0661 1 1 1_0", "2 1 \uff11 1 0.5"])
def test_parse_solution_takes_ascii_integers_only(tmp_path, entry):
    # int() and float() would read "2 \u0661 1 1 1_0" as 10.0 in row 1
    path = tmp_path / "sol"
    _write_solution(path, ["2 1 1 1 1.0", entry])
    with pytest.raises(SdpFormatError, match="line 3: "):
        parse_solution(path)


def test_parse_sdp_mutation_fuzz_raises_only_sdp_format_error(tmp_path,
                                                               mutant):
    lines = SMALL_PROBLEM.splitlines()
    path = tmp_path / "problem"
    rng = random.Random(2012)
    for case in range(300):
        path.write_text(mutant(lines, rng))
        try:
            parse_sdp(path)
        except SdpFormatError:
            pass
        except Exception as exc:
            pytest.fail("case %d: %s escaped: %.200s"
                        % (case, type(exc).__name__, exc))


def test_parse_solution_mutation_fuzz_raises_only_sdp_format_error(tmp_path,
                                                                    mutant):
    path = tmp_path / "sol"
    _write_solution(path, ["2 1 1 1 0.5", "2 1 1 2 -0.25", "2 10 27 3 1e-3",
                           "1 1 1 1 7", "2 11 5 5 0.125"])
    lines = path.read_text().splitlines()
    rng = random.Random(2012)
    for case in range(300):
        path.write_text(mutant(lines, rng))
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
