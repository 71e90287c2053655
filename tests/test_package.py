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
