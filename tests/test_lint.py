"""Static checks on the package source, written with the standard library
because no linter is a declared dependency."""

import ast
from pathlib import Path

import pytest

from poirec.config import config_keys

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


def attribute_reads(source):
    """Attribute names read as `x.name` in `source`, except on a name `args`
    (an argparse namespace holds flags, not the config a stage runs on)."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and not (isinstance(n.value, ast.Name) and n.value.id == "args")}


def test_checker_finds_attribute_reads():
    source = "cfg.lam\nargs.beta\ncfg.tau = 1\nself.config.seed\nf(args).d\n"
    assert attribute_reads(source) == {"lam", "config", "seed", "d"}


def test_every_config_key_is_read():
    """No RunConfig key is inert: each is read off a config object in some
    module other than config.py."""
    read = set().union(*(attribute_reads(p.read_text(encoding="utf-8"))
                         for p in PACKAGE.glob("*.py") if p.name != "config.py"))
    assert sorted(set(config_keys()) - read) == []
