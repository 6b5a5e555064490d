"""No internal check in the package is an `assert` statement: under
`python -O` an assert does not run, and a check must not vanish there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "triflag"


def test_the_package_has_no_assert_statements():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    found = ["%s:%d" % (path.relative_to(SRC), node.lineno)
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
