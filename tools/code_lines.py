"""Count the code lines of Python modules.

A code line is a line that holds at least one token other than a
comment, and that is not part of a module, class or function docstring.
Blank lines, comment-only lines and docstring lines are not counted.
tokenize finds the tokens, and ast finds the docstrings.

Usage: python tools/code_lines.py [DIR_OR_FILE ...]   (default src/mctsynth)

Prints one line per module, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of the Python source at ``path``."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path("src/mctsynth")]
    files = sorted(f for root in roots
                   for f in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
