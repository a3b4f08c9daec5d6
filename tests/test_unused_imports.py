"""Every module of the package, and every test module, reads each name
it imports.  The package's `__init__` is the exception: it imports to
re-export.  A name counts as read when it appears as a bare name
anywhere in the module, annotations included, so `mod.attr` reads
`mod`."""

import ast
from pathlib import Path

import monact

PACKAGE = Path(monact.__file__).parent
TESTS = Path(__file__).resolve().parent


def unused_imports(source):
    """The names `source` imports but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def _unused_in(modules):
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    return {name: names for name, names in unused.items() if names}


def test_modules_read_every_imported_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    assert _unused_in(modules) == {}


def test_test_modules_read_every_imported_name():
    modules = sorted(TESTS.glob("*.py"))
    assert len(modules) >= 15
    assert _unused_in(modules) == {}


def test_a_dropped_read_is_caught():
    assert unused_imports("from .act import Act, Subact\n\nx: Act = None\n") == ["Subact"]
    assert unused_imports("import os.path\nimport json as js\n\nos.sep\n") == ["js"]
    assert unused_imports("from __future__ import annotations\n") == []
