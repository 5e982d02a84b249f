#!/usr/bin/env python3
"""Code lines of each ``src/lapcov`` module: lines that hold a token other than a comment or a docstring.

Usage:
    python tests/code_lines.py                   # one line per module, then the total
    python tests/code_lines.py DIR               # the same for the .py files of DIR
    python tests/code_lines.py --against REV     # each module at git revision REV, now, and the change

A line counts when ``tokenize`` finds on it a token that is not a comment,
a line break or an indentation change, and that is not part of a docstring
(the string that opens a module, class or function body).  Blank lines,
comment lines and docstring lines do not count; a line of code with a
trailing comment does.  This is the "code lines" figure that CHANGES.md and
ROADMAP.md quote.
"""

import argparse
import ast
import io
import subprocess
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


def counts(directory: Path) -> dict:
    """{file name: code lines} of the .py files of ``directory``."""
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def counts_at(rev: str, directory: Path) -> dict:
    """``counts`` of ``directory`` (inside this repository) as git revision ``rev`` has it, read with ``git show``."""
    def git(*args) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout

    prefix = directory.resolve().relative_to(ROOT).as_posix()
    names = [name for name in git("ls-tree", "--name-only", rev, f"{prefix}/").splitlines() if name.endswith(".py")]
    return {Path(name).name: code_lines(git("show", f"{rev}:{name}")) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=ROOT / "src" / "lapcov")
    parser.add_argument("--against", metavar="REV", help="print each module's count at git revision REV and the change")
    args = parser.parse_args(argv)
    current = counts(args.directory)
    if args.against is None:
        for name, count in current.items():
            print(f"{name:20s} {count:6,d}")
        print(f"{'total':20s} {sum(current.values()):6,d}")
        return 0
    before = counts_at(args.against, args.directory)
    rows = [(name, before.get(name, 0), current.get(name, 0)) for name in sorted(current.keys() | before.keys())]
    rows.append(("total", sum(before.values()), sum(current.values())))
    print(f"{'module':20s} {args.against[:12]:>12s} {'now':>6s} {'change':>7s}")
    for name, old, new in rows:
        print(f"{name:20s} {old:12,d} {new:6,d} {new - old:+7,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
