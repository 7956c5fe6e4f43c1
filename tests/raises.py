"""List each ``raise`` statement in ``src/codesum`` that the tests never run.

Runs the Tier-1 suite (or the pytest arguments given) in this process
under a ``sys.settrace`` hook that watches only frames whose code lives
under ``src/codesum``, then prints every ``raise`` statement, found with
``ast``, of which no line ran.  It is a gate: it exits 1 when it lists
any statement, and otherwise with pytest's exit code.

    python tests/raises.py                          # Tier-1
    python tests/raises.py tests/test_javalex.py    # any pytest arguments

Only a call of code that holds a ``raise`` not yet run gets line
events, but the hook still sees every call, so Tier-1 takes about 2.5
times as long as untraced (100-105 s against 39-44 s on a 2-core VM).
A subprocess is not traced: a ``raise`` that only a ``python -m
codesum.cli`` subprocess reaches is listed as missed, and the listing
says so.  pytest does not collect this file, since its name does not
match ``test_*.py``.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "codesum"
TIER1 = ["-q", "--continue-on-collection-errors"]


def raise_statements() -> dict[str, list[tuple[int, int]]]:
    """Each source file and the (first, last) lines of its ``raise`` statements."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found[str(path)] = sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                                  if isinstance(node, ast.Raise))
    return found


def trace(pytest_args: list[str], statements: dict[str, list[tuple[int, int]]]) -> tuple[int, set]:
    """Run pytest under the hook: (its exit code, the (file, line) pairs that ran)."""
    # Each line of a raise statement -> the statement's first line.
    wanted = {path: {line: first for first, last in spans for line in range(first, last + 1)}
              for path, spans in statements.items()}
    ran: set[tuple[str, int]] = set()
    pending: dict = {}  # code object -> {line: first line} of the raises not yet run

    def local(frame, event, arg):
        if event == "line":
            lines = pending[frame.f_code]
            first = lines.get(frame.f_lineno)
            if first is not None:
                ran.add((frame.f_code.co_filename, first))
                for line in [line for line, f in lines.items() if f == first]:
                    del lines[line]
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        lines = pending.get(code)
        if lines is None:
            statement_of = wanted.get(code.co_filename, {})
            lines = pending[code] = {line: statement_of[line] for _, _, line in code.co_lines()
                                     if line in statement_of}
        return local if lines else None

    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # where pyproject.toml puts src/ on the path and names the test paths
    statements = raise_statements()
    code, ran = trace(argv or TIER1, statements)
    missed = []
    for path, spans in statements.items():
        lines = Path(path).read_text().splitlines()
        for first, last in spans:
            if (path, first) not in ran:
                missed.append(f"{Path(path).relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    total = sum(len(spans) for spans in statements.values())
    print()
    print(*missed, sep="\n")
    print(f"{len(missed)} of {total} raise statements in src/codesum never ran "
          f"(pytest exit code {code}).")
    print("Subprocesses are not traced: a raise that only a subprocess reaches is listed.")
    return 1 if missed else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
