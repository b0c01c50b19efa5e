"""`tools/code_lines.py`, the code-line count of the package."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Every line marked "# code" counts, and so do the two written lines of
# TABLE's multi-line string, which is not a docstring; nothing else does.
SOURCE = '''"""Module docstring,
over two lines."""

# A comment on its own line.
import math  # code


class Shape:  # code
    """Class docstring."""

    sides = 0  # code

    def area(self):  # code
        """Function docstring,

        with a blank line inside."""
        return math.pi  # code


TABLE = """first row
second row

""" # code (the closing line of the string)
'''

EXPECTED = SOURCE.count("# code") + 2


def test_counts_code_and_not_docstrings_comments_or_blank_lines():
    assert code_lines.code_lines(SOURCE) == EXPECTED == 8


@pytest.mark.parametrize(
    "source, count",
    [
        ('"""Only a docstring."""\n', 0),
        ("# only a comment\n\n\n", 0),
        ('x = 1\n"""A string after code is not a docstring."""\n', 2),
        ('def f():\n    """Doc."""\n\n    # note\n    return 1\n', 2),
    ],
    ids=["module-docstring", "comment-and-blanks", "bare-string", "function"],
)
def test_small_sources(source, count):
    assert code_lines.code_lines(source) == count


def test_per_module_counts_sum_to_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2  # two\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert rows == {"a.py": str(EXPECTED), "b.py": "2", "total": str(EXPECTED + 2)}
