"""List the lines of `src/bscahn` functions that no Tier-1 test executes.

Usage: python tools/untested_lines.py [PYTEST_ARGS...]

Runs pytest in this process, from the repository root and with its
configuration (so with no arguments it runs Tier-1), under `sys.settrace`
and `threading.settrace`.  Afterwards it prints `file:line: text` for every
line of a function or method in `src/bscahn` that no test executed, in file
and line order, and a count on stderr.  Module and class bodies are left
out: they run on import.  A line counts as executed when the tracer saw it
start, or saw a call of the function it opens.  The run takes about a
minute on two CPUs, several times Tier-1, because every Python call goes
through the tracer.  The exit code is pytest's.  Standard library and
pytest only.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bscahn"


def function_lines(path: Path) -> set[int]:
    """Lines holding instructions of a function, comprehension or lambda of the file."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            lines.update(line for _, _, line in code.co_lines() if line is not None)
            lines.add(code.co_firstlineno)
    return lines


def trace_run(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest under the tracer; (exit code, {(real path, line)} executed in the package)."""
    import pytest

    hits: set[tuple[str, int]] = set()
    inside: dict[str, str | None] = {}  # co_filename -> real path if in the package

    def where(filename: str) -> str | None:
        if filename not in inside:
            real = os.path.realpath(filename)
            inside[filename] = real if real.startswith(str(PACKAGE) + os.sep) else None
        return inside[filename]

    def local(frame, event, arg):
        if event == "line":
            hits.add((where(frame.f_code.co_filename), frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        path = where(frame.f_code.co_filename)
        if path is None:
            return None
        hits.add((path, frame.f_code.co_firstlineno))
        return local

    cwd = os.getcwd()
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os.chdir(cwd)
    return int(code), hits


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, hits = trace_run(argv)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        real = os.path.realpath(path)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(function_lines(path)):
            if (real, line) not in hits:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} function lines of src/bscahn not executed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
