"""Count the package's code lines, per module.

A code line is a line of ``src/burau_lab/*.py`` that is not blank, not a
comment and not part of a string-literal statement (a docstring, or a bare
string such as the one under a constant). Run from anywhere:

    python tests/code_lines.py

It prints one row per module and the total, and always exits 0: the table
is a figure to compare between versions, not a check. Only the standard
library is used; pytest does not collect this file.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "burau_lab"


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    literal = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            literal.update(range(node.lineno, node.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in literal
    )


def main() -> int:
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
