"""Rules that every module of the hog package keeps."""

import ast
from pathlib import Path

import hog

SOURCES = sorted(Path(hog.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one;
    # an explicit raise AssertionError(...) stays.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []
