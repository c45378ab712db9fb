"""Every module-level import in the package and in the tests is used by its
module, and every module-level private name is read somewhere in its own
directory: the package's names in the package, the tests' names in the tests.

The package re-exports its public names from __init__.py, so that module is
exempt from the import check.  The package checks the orders of its
arguments in one place, algebra.same_order.
"""
import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "pgquant"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys as system\n"
                          "from . import a, b\nprint(system, b)\n") == ["os", "a"]


@pytest.mark.parametrize("path", sorted(p.relative_to(ROOT).as_posix()
                                        for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]
                                        if p.name != "__init__.py"))
def test_no_unused_module_level_import(path):
    assert unused_imports((ROOT / path).read_text()) == []


def orphaned_private_names(sources: dict) -> list:
    """(module, name) for each module-level private name (one leading
    underscore, not a dunder) that no module of sources reads, by name, as
    an attribute or in a from-import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [(module, name) for module, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_sees_an_orphaned_private_helper():
    sources = {"a.py": "def _orphan():\n    pass\ndef _used():\n    pass\n"
                       "class _Cls:\n    pass\n_CONST = 1\n_LEFT: int = 2\n__all__ = []\n",
               "b.py": "from .a import _used\nfrom . import a\nprint(a._CONST, _Cls)\n"}
    assert orphaned_private_names(sources) == [("a.py", "_orphan"), ("a.py", "_LEFT")]


@pytest.mark.parametrize("directory", ("src/pgquant", "tests"))
def test_no_orphaned_private_helper(directory):
    sources = {p.name: p.read_text() for p in (ROOT / directory).glob("*.py")}
    assert orphaned_private_names(sources) == []


def test_orders_are_compared_only_in_same_order():
    """No module of the package but algebra.py raises its own order mismatch,
    and algebra.py raises it only inside same_order."""
    found = [(p.name, n) for p in sorted(PACKAGE.glob("*.py"))
             for n, line in enumerate(p.read_text().splitlines(), 1) if "order mismatch" in line]
    tree = ast.parse((PACKAGE / "algebra.py").read_text())
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "same_order")
    assert found and all(name == "algebra.py" and helper.lineno <= n <= helper.end_lineno
                         for name, n in found), found
