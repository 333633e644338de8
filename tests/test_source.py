"""Checks on the package's source text."""

import ast
import importlib
import importlib.util
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


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports absolutely, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_imported_modules_finds_a_nested_import():
    source = '"""Doc."""\n\nimport os.path\nfrom . import errors\n\n\ndef f():\n    from dataclasses import field\n    return field\n'
    assert imported_modules(source) == {"os", "dataclasses"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # dataclasses loads inspect, which loads ast, dis and tokenize: a cost
    # every CLI start would pay, where the records need none of it
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def _traced_targets() -> tuple:
    """perfbench/tracing.py's TARGETS, read from the checkout without running the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_traced_functions_resolve_on_the_package():
    # a traced run wraps each target by name (getattr), so a renamed or deleted
    # function, even one the package no longer calls, would fail there
    targets = _traced_targets()
    assert targets
    for module_name, fn_name, _ in targets:
        module = importlib.import_module(f"quasidom.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"quasidom.{module_name}.{fn_name}"
