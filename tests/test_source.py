"""Rules that every module of the hog package keeps, and the scripts too
where a rule says so."""

import ast
from pathlib import Path

import hog

SOURCES = sorted(Path(hog.__file__).parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _nodes(paths=SOURCES):
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes(SOURCES + SCRIPTS)
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and SCRIPTS
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


def test_no_dataclasses_import():
    # Importing dataclasses costs every hog process milliseconds before any
    # class is built, and each dataclass is then generated through exec.
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if (isinstance(node, ast.Import) and "dataclasses" in {a.name for a in node.names})
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


def test_only_the_record_base_defines_repr():
    # Records get their repr from core._Record or from NamedTuple, so a
    # hand-written one cannot drift from the fields it names.
    found = [
        f"{path.name}:{cls.name}"
        for path, cls in _nodes()
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__repr__"
    ]
    assert found == ["core.py:_Record"]
