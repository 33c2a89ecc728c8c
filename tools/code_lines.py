"""Print the code and physical lines of each file of ``src/fairdyn``, and their
totals.

A code line holds a token other than a comment, outside docstrings; blank
lines, comment-only lines and the lines of a module, class or function
docstring are not code. A physical line is any line of the file.

Run from anywhere: ``python tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fairdyn"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if node.body and isinstance(node.body[0], ast.Expr):
            value = node.body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(value.lineno, value.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """The (code, physical) line counts of the Python source ``text``."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), len(text.splitlines())


def main() -> None:
    totals = [0, 0]
    print(f"{'file':<16} {'code':>6} {'physical':>9}")
    for path in sorted(SRC.glob("*.py")):
        code, physical = count(path.read_text(encoding="utf-8"))
        totals[0] += code
        totals[1] += physical
        print(f"{path.name:<16} {code:>6} {physical:>9}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>9}")


if __name__ == "__main__":
    main()
