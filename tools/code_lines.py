"""Print the code lines of each module of ``src/fedkit`` and their total.

A code line is a line that holds a token other than a comment, and that is
not part of a docstring: the first statement of a module, class or
function when it is a string.  Blank lines, comment lines and docstrings
are not counted; a line with code and a trailing comment is.  Tokens come
from :mod:`tokenize` and docstrings from :mod:`ast`.

Run from the repository root::

    python3 tools/code_lines.py [directory]

It only reports: the exit status is 0 whatever the count.
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


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file ``path``."""
    source = path.read_bytes()
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "fedkit"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.stem:<14} {n:>6}")
    print(f"{'total':<14} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
