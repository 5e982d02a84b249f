#!/usr/bin/env python3
"""Code lines of each ``src/lapcov`` module: lines that hold a token other than a comment or a docstring.

Usage:
    python tests/code_lines.py            # one line per module, then the total
    python tests/code_lines.py DIR        # the same for the .py files of DIR

A line counts when ``tokenize`` finds on it a token that is not a comment,
a line break or an indentation change, and that is not part of a docstring
(the string that opens a module, class or function body).  Blank lines,
comment lines and docstring lines do not count; a line of code with a
trailing comment does.  This is the "code lines" figure that CHANGES.md and
ROADMAP.md quote.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(line for line in range(token.start[0], token.end[0] + 1) if line not in docstrings)
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else ROOT / "src" / "lapcov"
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:20s} {count:6,d}")
    print(f"{'total':20s} {total:6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
