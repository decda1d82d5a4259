"""Static checks on the package source, written with the standard library
because no linter is a declared dependency."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "poirec"


def unused_imports(source):
    """Names bound by an import statement of `source` and never read as a
    name (an `x.y` access reads `x`) nor listed in `__all__`, in line order."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read | exported)


def test_checker_finds_unused_names():
    source = ("import os\nimport numpy as np\nimport a.b\nfrom x import (y, z)\n"
              "from q import r\n__all__ = ['r']\nprint(np.pi, a.b, z)\n")
    assert unused_imports(source) == [(1, "os"), (4, "y")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
