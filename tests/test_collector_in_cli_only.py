"""Only the command-line entry point pauses and resumes the cyclic garbage
collector: a library caller keeps the collector as it set it, whatever the
package computes for it."""

import ast
import pathlib

import ioselect

SOURCES = sorted(pathlib.Path(ioselect.__file__).parent.glob("*.py"))


def _switches(path):
    """Line numbers of every ``gc.disable`` / ``gc.enable`` in ``path``,
    whether read as an attribute or imported by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("disable", "enable"):
            if isinstance(node.value, ast.Name) and node.value.id == "gc":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            if any(alias.name in ("disable", "enable", "*") for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_collector_switched_in_cli_only():
    found = {path.name: lines for path in SOURCES if (lines := _switches(path))}
    assert set(found) == {"cli.py"}, f"gc.disable / gc.enable outside cli.py: {found}"
    assert len(found["cli.py"]) == 2
