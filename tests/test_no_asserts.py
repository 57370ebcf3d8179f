"""Every check in the package must still run under ``python -O``, which
strips ``assert`` statements: the package raises ``InvariantViolated`` or a
more specific error instead."""

import ast
import pathlib

import pytest

import ioselect

SOURCES = sorted(pathlib.Path(ioselect.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on line(s) {lines}"
