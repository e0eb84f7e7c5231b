"""Rules that every module of the hog package keeps."""

import ast
from pathlib import Path

import hog

SOURCES = sorted(Path(hog.__file__).parent.glob("*.py"))


def _nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one.
    found = [
        f"{path.name}:{node.lineno}" for path, node in _nodes() if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_no_raise_assertion_error():
    # A failed invariant raises a HogError, so the CLI ends without a traceback.
    def raised_name(exc):
        return getattr(exc.func if isinstance(exc, ast.Call) else exc, "id", None)

    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Raise) and raised_name(node.exc) == "AssertionError"
    ]
    assert found == []
