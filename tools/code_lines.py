"""Print the code and physical lines of each file of ``src/fairdyn``, and their
totals.

A code line holds a token other than a comment, outside docstrings; blank
lines, comment-only lines and the lines of a module, class or function
docstring are not code. A physical line is any line of the file.

Run from anywhere: ``python tools/code_lines.py``. With ``--against REV``
(any git revision, such as ``HEAD~1``) it prints each file's counts at
``REV``, read with ``git show``, and now, with their difference, and the
totals; a file missing on one side counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def delta(
    before: dict[str, str], after: dict[str, str]
) -> list[tuple[str, int, int, int, int]]:
    """Per file name of either side, (name, code before, code after,
    physical before, physical after) of the texts ``before`` and ``after``,
    a name missing on one side counting 0 there; the last row is the
    totals, named ``total``."""
    rows = []
    for name in sorted(before.keys() | after.keys()):
        old = count(before[name]) if name in before else (0, 0)
        new = count(after[name]) if name in after else (0, 0)
        rows.append((name, old[0], new[0], old[1], new[1]))
    totals = [sum(row[k] for row in rows) for k in range(1, 5)]
    return rows + [("total", *totals)]


def _texts_at(rev: str) -> dict[str, str]:
    """The text of each ``.py`` file of ``src/fairdyn`` at the git revision
    ``rev``."""
    root = SRC.parent.parent

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, check=True, capture_output=True, text=True
        ).stdout

    names = git("ls-tree", "--name-only", f"{rev}:src/fairdyn").split()
    return {
        name: git("show", f"{rev}:src/fairdyn/{name}")
        for name in names
        if name.endswith(".py")
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare")
    args = parser.parse_args(argv)
    now = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    if args.against is None:
        print(f"{'file':<16} {'code':>6} {'physical':>9}")
        for name, _, code, _, physical in delta({}, now):
            print(f"{name:<16} {code:>6} {physical:>9}")
        return
    rev = args.against
    print(
        f"{'file':<16} {'code@REV':>9} {'code':>6} {'delta':>6} "
        f"{'phys@REV':>9} {'phys':>6} {'delta':>6}    (REV = {rev})"
    )
    for name, c0, c1, p0, p1 in delta(_texts_at(rev), now):
        print(
            f"{name:<16} {c0:>9} {c1:>6} {c1 - c0:>+6} {p0:>9} {p1:>6} {p1 - p0:>+6}"
        )


if __name__ == "__main__":
    main()
