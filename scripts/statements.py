"""Statement check: tier-1 runs every statement of ``src/lfmix``.

The script runs the tier-1 suite in this process under ``sys.settrace``,
with ``--hypothesis-seed=0`` so that the drawn examples are the same on
every run, and marks each line of ``src/lfmix/*.py`` that executes. The
marks are allocated before the tests start, so tests that read
``tracemalloc`` see no allocation of the tracer's as lines run. A
statement ran when a line of its own ran: the lines from its first line, as
``ast`` gives it, to the line before its first nested statement (to its
last line for a simple statement). Docstrings and statements that compile
to no code are not counted. Run it from anywhere::

    python scripts/statements.py

It prints each statement that no test ran, as ``file:line: text``, and
exits 1 when a test fails, when such a statement is not in ``ALLOWED``, or
when an entry of ``ALLOWED`` matches no statement that was left unrun.
Tests that run lfmix in a child process do not count here.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lfmix"

# (file, statement text without its indentation): statements no test need run
ALLOWED = {
    # the body of Schedule.at, which every kind overrides
    ("schedules.py", "raise NotImplementedError"),
    ("cli.py", "sys.exit(main())"),
}


def _no_code(node: ast.stmt) -> bool:
    """A statement that compiles to no bytecode: a docstring or other lone
    constant, or ``global``/``nonlocal``."""
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            or isinstance(node, (ast.Global, ast.Nonlocal)))


def statements(path: Path) -> list[tuple[int, range]]:
    """``(first line, own lines)`` of each statement of the module at ``path``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or _no_code(node):
            continue
        nested = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        out.append((node.lineno, range(node.lineno, min(nested) if nested else node.end_lineno + 1)))
    return out


def _marker(marks: bytearray):
    """A local trace function that sets ``marks[line]`` for each line run."""
    def local(frame, event, arg):
        if event == "line":
            marks[frame.f_lineno] = 1
        return local
    return local


def main() -> int:
    import pytest

    files = {str(path): path for path in SRC.glob("*.py")}
    # one mark per line, allocated up front: the tracer allocates nothing as lines run
    ran = {name: bytearray(len(path.read_bytes().splitlines()) + 1) for name, path in files.items()}
    tracers = {name: _marker(marks) for name, marks in ran.items()}

    def trace(frame, event, arg):
        local = tracers.get(frame.f_code.co_filename)
        return None if local is None else local(frame, "line", arg)

    sys.path.insert(0, str(SRC.parent))
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun, allowed_hits = [], set()
    for name, path in sorted(files.items()):
        text = path.read_text(encoding="utf-8").splitlines()
        for first, own in sorted(statements(path)):
            if not any(ran[name][line] for line in own):
                key = (path.name, text[first - 1].strip())
                if key in ALLOWED:
                    allowed_hits.add(key)
                else:
                    unrun.append(f"{path.relative_to(ROOT)}:{first}: {key[1]}")
    print("\n".join(unrun))
    stale = sorted(ALLOWED - allowed_hits)
    for file, line in stale:
        print(f"allowed but ran, or gone: {file}: {line}")
    print(f"{len(unrun)} statements unrun outside the allowlist; tests exit {int(status)}")
    return 1 if status != 0 or unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main())
