"""No module of the package keeps code that nothing uses: no import that
its module never reads (the re-exports of `__init__.py` aside), no
private module-level function, class or constant that nothing in the
package refers to, and no parameter that its function never reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "triflag"


def parsed():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    return {path.relative_to(SRC).as_posix():
            ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def referenced(tree, skip=None) -> set:
    """The names read in `tree` as a bare name or an attribute, or imported
    from a module, outside the subtree `skip`."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_import_is_used():
    unused = []
    for module, tree in parsed().items():
        if module == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(
                    node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append("%s:%d %s" % (module, node.lineno,
                                                    bound))
    assert unused == []


def private_definitions(tree):
    """(name, node) of each private name the module body defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_referenced():
    trees = parsed()
    unreferenced = []
    for module, tree in trees.items():
        for name, node in private_definitions(tree):
            if not any(name in referenced(other, skip=node)
                       for other in trees.values()):
                unreferenced.append("%s:%d %s" % (module, node.lineno, name))
    assert unreferenced == []


def test_every_parameter_is_read():
    # a parameter that its function never reads is an option that does
    # nothing; dunder methods keep the signature their protocol fixes
    unread = []
    for module, tree in parsed().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                name, body = node.name, node.body
            elif isinstance(node, ast.Lambda):
                name, body = "lambda", [node.body]
            else:
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += ["%s:%d %s(%s)" % (module, node.lineno, name, p)
                       for p in params if p not in read]
    assert unread == []
