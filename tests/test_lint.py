"""Static checks on the package source, written with the standard library
because no linter is a declared dependency."""

import ast
from pathlib import Path

import pytest

from poirec.config import config_keys

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "poirec"
BENCH = PACKAGE.parent.parent / "bench"


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


# the entry point is run, not referenced
UNREFERENCED_OK = {("cli.py", "main")}


def definitions_and_references(sources):
    """({(file, name)} of the top-level functions and classes of `sources`
    ({file name: source}), {names they reference}). A reference is a name
    read anywhere in them, or an attribute read off a package module bound
    by `from . import module [as alias]`."""
    defined, referenced = set(), set()
    for file, source in sources.items():
        tree = ast.parse(source)
        defined.update((file, node.name) for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level and node.module is None
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                referenced.add(node.attr)
    return defined, referenced


def unreferenced(sources):
    defined, referenced = definitions_and_references(sources)
    return sorted(d for d in defined - UNREFERENCED_OK if d[1] not in referenced)


def test_checker_finds_unreferenced_definitions():
    sources = {
        "a.py": "import numpy as np\ndef used():\n    pass\ndef exp(x):\n    return np.exp(x)\n"
                "class Gone:\n    def method(self):\n        pass\ndef helper():\n    pass\n"
                "def main():\n    pass\n",
        "cli.py": "from . import a as ad\nfrom .a import used\ndef main():\n"
                  "    return used(), ad.helper\n",
    }
    assert unreferenced(sources) == [("a.py", "Gone"), ("a.py", "exp"), ("a.py", "main")]


def test_no_test_only_code_in_package():
    """Every top-level function and class of the package is referenced from
    some module of it, so a definition only the tests use lives in tests/."""
    assert unreferenced({p.name: p.read_text(encoding="utf-8")
                         for p in PACKAGE.glob("*.py")}) == []


def unread_methods(package, readers):
    """[(file, class, method)] of the methods defined in the classes of
    `package` ({file name: source}) whose name no source of `readers` (a
    list of sources) reads as an attribute, `x.method`. Dunder methods are
    called by the language, so they count as read."""
    read = set().union(*(attribute_reads(source) for source in readers))
    unread = []
    for file, source in package.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef):
                unread += [(file, cls.name, node.name) for node in cls.body
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not (node.name.startswith("__") and node.name.endswith("__"))
                           and node.name not in read]
    return sorted(unread)


def test_checker_finds_unread_methods():
    package = {"m.py": "class A:\n    def __init__(self):\n        self.used()\n"
                       "    def used(self):\n        pass\n    def gone(self):\n        pass\n"
                       "    @property\n    def size(self):\n        return 1\n"
                       "    def loaded(self):\n        pass\n"}
    bench = "t = A()\nt.loaded()\nprint(t.size)\nt.gone = None\n"
    assert unread_methods(package, list(package.values()) + [bench]) == [("m.py", "A", "gone")]


def test_every_package_method_is_read():
    """Each method of a package class is called (read as `x.method`) from the
    package or the bench harness, so no method stays behind only for the
    tests."""
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    bench = [p.read_text(encoding="utf-8") for p in BENCH.glob("*.py")]
    assert unread_methods(package, list(package.values()) + bench) == []


CHECKPOINT_IO = {"load_checkpoint", "save_checkpoint"}


def checkpoint_io_importers(sources):
    """Sorted names of the files of `sources` ({file name: source}), other
    than training.py, that import `load_checkpoint` or `save_checkpoint`."""
    return sorted(file for file, source in sources.items() if file != "training.py"
                  and any(isinstance(node, ast.ImportFrom)
                          and CHECKPOINT_IO & {alias.name for alias in node.names}
                          for node in ast.walk(ast.parse(source))))


def test_checker_finds_checkpoint_io_imports():
    sources = {
        "training.py": "from .checkpoint import CheckpointError, load_checkpoint\n",
        "cli.py": "from .checkpoint import CheckpointError\n",
        "a.py": "def f():\n    from .checkpoint import save_checkpoint as save\n",
        "b.py": "from poirec.checkpoint import load_checkpoint\n",
        "c.py": "load_checkpoint = None\n",
    }
    assert checkpoint_io_importers(sources) == ["a.py", "b.py"]


def test_only_training_reads_or_writes_checkpoints():
    """The checkpoint contract (tensor names, metadata keys, config rules)
    lives behind `Trainer.save`, `Trainer.load` and `Trainer.from_checkpoint`,
    so no other module of the package decodes or encodes a checkpoint."""
    assert checkpoint_io_importers({p.name: p.read_text(encoding="utf-8")
                                    for p in PACKAGE.glob("*.py")}) == []
