#!/usr/bin/env python3
"""Code lines per Python file and in total.

    scripts/code_lines.py src/ioselect
    scripts/code_lines.py src/ioselect/matching.py scripts

Each PATH is a file or a directory, searched for ``*.py`` files; with no
PATH it counts ``src/ioselect``.  A line counts when it holds a token other
than a comment, NL, NEWLINE, INDENT, DEDENT or ENDMARKER (a string that
spans lines holds each of them), and lies outside every module, class and
function docstring.  So blank lines, comment lines and docstrings are left
out, and a statement split over lines counts each line.  Prints one
``lines path`` row per file, sorted by path, then ``lines total``.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, OWNERS) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, by the rule above."""
    held: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - docstring_lines(ast.parse(source)))


def python_files(paths: list[str]) -> list[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            for folder, _dirs, names in os.walk(path):
                files += [os.path.join(folder, name) for name in names if name.endswith(".py")]
        else:
            files.append(path)
    return sorted(files)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", metavar="PATH", help="files or directories (default: src/ioselect)")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths or [os.path.join(ROOT, "src", "ioselect")]):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
