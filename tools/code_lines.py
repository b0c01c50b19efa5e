"""Count the code lines of the octalg package, per module and in total.

A code line is a non-blank line that holds a token which is neither a
comment nor part of a module, class or function docstring.  Lines of a
multi-line string that is not a docstring count; blank lines inside it do
not.

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the ``src/octalg`` of the checkout that holds this
script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = _docstring_lines(ast.parse(source))
    text = source.splitlines()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        for row in range(token.start[0], token.end[0] + 1):
            if row not in docstrings and text[row - 1].strip():
                lines.add(row)
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "octalg"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name}\t{count:,}")
    print(f"total\t{total:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
