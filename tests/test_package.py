"""The package namespace: every exported name exists, and no module
guards with assert."""

import ast
from pathlib import Path

import nahilb


def test_every_exported_name_is_an_attribute():
    missing = [name for name in nahilb.__all__ if not hasattr(nahilb, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from nahilb import *", namespace)
    assert set(nahilb.__all__) <= set(namespace)


def test_no_assert_in_the_package():
    """Guards raise typed errors: python -O strips assert statements."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(nahilb.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


_ROOT = Path(__file__).resolve().parents[1]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _names_read(tree):
    """Identifiers a module reads, imports or spells as a whole string (a
    name looked up with getattr), leaving out the names it binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            yield node.target.id


def test_every_module_level_name_is_used():
    """Each function, class and constant of the package is read somewhere
    in the package, its tests, the benchmark or the demos."""
    read = set()
    for folder in ("src", "tests", "perfbench", "demos"):
        for path in (_ROOT / folder).rglob("*.py"):
            read.update(_names_read(_parse(path)))
    unused = [f"{path.name}:{name}"
              for path in sorted(Path(nahilb.__file__).parent.glob("*.py"))
              for name in _module_level_names(_parse(path))
              if not name.startswith("__") and name not in read]
    assert unused == []
