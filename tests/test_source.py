"""Static checks over the package source."""

import ast
import pathlib

import pytest

import lowlying

PACKAGE = pathlib.Path(lowlying.__file__).parent


def unused_imports(source):
    """Names a module imports, never reads, and does not list in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.linalg starts with a Name read
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_scan_finds_an_unused_import():
    source = ("import math\nimport os.path\nfrom json import dumps, loads\n"
              "from .x import y\n__all__ = ['y']\nprint(os.sep, loads)\n")
    assert unused_imports(source) == ["dumps", "math"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
