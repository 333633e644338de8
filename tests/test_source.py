"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

import quasidom

MODULES = sorted(Path(quasidom.__file__).parent.glob("*.py"))


def stray_constants(source: str) -> list[int]:
    """Lines of the bare constant statements that are not a module, class or function docstring."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and id(node) not in docstrings
    ]


def test_stray_constants_finds_a_string_after_return():
    source = '"""Doc."""\n\n\ndef f():\n    """Doc."""\n    return 1\n    """Lost."""\n'
    assert stray_constants(source) == [7]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_bare_constant_statements(path):
    assert stray_constants(path.read_text(encoding="utf-8")) == []


def assert_statements(source: str) -> list[int]:
    """Lines of the assert statements in a module, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_statements_finds_a_nested_assert():
    source = '"""Doc: assert x."""\n\n\ndef f(x):\n    if x:\n        assert x > 0\n    return x\n'
    assert assert_statements(source) == [6]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # runtime invariants raise exceptions: python -O strips an assert
    assert assert_statements(path.read_text(encoding="utf-8")) == []
