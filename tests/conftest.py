import pytest

from triflag import certificate as cert_mod


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
