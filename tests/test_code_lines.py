"""``scripts/code_lines.py`` on a small source: docstrings, comments and
blank lines are left out, every other line that holds a token counts."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line
class Box:
    """Class docstring."""

    size = (
        1
    )

    def area(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        "an expression, not the first statement"
        return self.size


async def later():
    \'\'\'Async docstring.\'\'\'
    return os.sep
'''
# counted: import, class, size = ( 1 ), def, the two-line string, the
# expression, return, async def, return
CODE_LINES = 1 + 1 + 3 + 1 + 2 + 1 + 1 + 1 + 1


def test_counts_code_lines_only():
    assert code_lines.code_lines(SOURCE) == CODE_LINES


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["1", str(tmp_path / "b.py")],
        [str(CODE_LINES), str(tmp_path / "pkg" / "a.py")],
        [str(CODE_LINES + 1), "total"],
    ]
