"""Count the code lines of ``src/``: per file, in total, and by ``wc -l``.

A code line holds a token that is not a comment, and is not part of a
docstring (the leading string of a module, class or function, as ``ast``
finds it).  Blank lines and comment-only lines, found by ``tokenize``,
do not count.

    python tests/codelines.py          # the working tree
    python tests/codelines.py REV      # the tree at a git revision
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def sources(rev: str | None) -> dict[str, str]:
    """Each ``src/**/*.py`` path and its text, at ``rev`` or in the working tree."""
    if rev is None:
        return {str(p.relative_to(ROOT)): p.read_text()
                for p in sorted((ROOT / "src").rglob("*.py"))}
    git = ["git", "-C", str(ROOT)]
    names = subprocess.run([*git, "ls-tree", "-r", "--name-only", rev, "src"],
                           check=True, capture_output=True, text=True).stdout.split()
    return {name: subprocess.run([*git, "show", f"{rev}:{name}"], check=True,
                                 capture_output=True, text=True).stdout
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list[str]) -> int:
    files = sources(argv[0] if argv else None)
    total = wc = 0
    for name, text in files.items():
        n = code_lines(text)
        total += n
        wc += text.count("\n")
        print(f"{n:6d}  {name}")
    print(f"{total:6d}  code lines in src/")
    print(f"{wc:6d}  lines in src/ by wc -l")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
