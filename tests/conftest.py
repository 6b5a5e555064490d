from fractions import Fraction
from pathlib import Path

import pytest

from triflag import certificate as cert_mod
from triflag.extremal import build_gex, class_sizes
from triflag.graphs import ColouredGraph


@pytest.fixture(scope="session")
def shipped_cert():
    return cert_mod.load_shipped_certificate()


@pytest.fixture(scope="session")
def shipped_table(shipped_cert):
    return cert_mod.coefficient_table(shipped_cert)


@pytest.fixture(scope="session")
def shipped_report(shipped_cert, shipped_table):
    return cert_mod.verify(shipped_cert, shipped_table)


HOSTILE_TOKENS = ["x", "1/2", "Q", "9" * 5000, "1_0", "\uff19", "\u0663",
                  "", "-1", "0", "4", "1/0", "+2", "2.0", "TYPE", "nan",
                  "inf", "-inf", "1e400", "1e999999999"]


def _mutant(lines, rng):
    """One random edit of a text file's lines: a token replaced by a
    hostile one, or a line dropped, doubled or moved."""
    out = list(lines)
    i = rng.randrange(len(out))
    kind = rng.randrange(4)
    if kind == 0:
        toks = out[i].split() or [""]
        toks[rng.randrange(len(toks))] = rng.choice(HOSTILE_TOKENS)
        out[i] = " ".join(toks)
    elif kind == 1:
        del out[i]
    elif kind == 2:
        out.insert(i, out[i])
    else:
        out.insert(rng.randrange(len(out)), out.pop(i))
    return "\n".join(out) + "\n"


@pytest.fixture
def mutant():
    """The seeded mutation step of the parser fuzz tests."""
    return _mutant


def _write_with_bad_byte(path, lines, rng):
    """Write `lines` to `path` with a byte that is not UTF-8 inserted at a
    seeded position; return the number of that byte's line."""
    data = ("\n".join(lines) + "\n").encode()
    at = rng.randrange(len(data))
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    return data.count(b"\n", 0, at) + 1


@pytest.fixture
def write_with_bad_byte():
    """The byte-level case of the parser fuzz tests."""
    return _write_with_bad_byte


def _shuffled_member(n, rng, pairs):
    """G_ex(n) with recoloured matchings across `pairs` class pairs,
    relabelled and colour-permuted.  A member unless the matchings close
    a cross triangle of the clique colour."""
    rows = build_gex(n).matrix()
    sizes = class_sizes(n, 5)
    classes = [list(range(sum(sizes[:i]), sum(sizes[:i + 1])))
               for i in range(5)]
    for i, j in rng.sample([(i, j) for i in range(5) for j in range(i)],
                           pairs):
        size = rng.randint(1, min(len(classes[i]), len(classes[j])))
        for u, v in zip(rng.sample(classes[i], size),
                        rng.sample(classes[j], size)):
            rows[u][v] = rows[v][u] = 1
    colours = [0] + rng.sample([1, 2, 3], 3)
    perm = list(range(n))
    rng.shuffle(perm)
    return ColouredGraph.from_matrix(
        [[colours[rows[perm[a]][perm[b]]] for b in range(n)]
         for a in range(n)])


@pytest.fixture
def shuffled_member():
    """A seeded family member to test membership on."""
    return _shuffled_member


def _read_problem(path):
    """A problem file that `export_sdp` wrote, as (block sizes, right-hand
    side, {(matno, blkno, i, j): value}), each number the Fraction of its
    token.  Unchecked: the file is the program's own output, and the exact
    counts the tests compare it with are the oracle."""
    rows = [[Fraction(t) for t in line.split()]
            for line in Path(path).read_text().splitlines()[3:]]
    sizes, rhs = rows[:2]
    return sizes, rhs, {tuple(map(int, r[:4])): r[4] for r in rows[2:]}


@pytest.fixture
def read_problem():
    """The reader of exported problem files."""
    return _read_problem
