"""List every statement of ``src/helmpanel`` that the Tier-1 tests never execute.

    python bench/unreached.py

Runs the Tier-1 suite (pytest with the repository's own settings, the
``tests`` and ``perfbench/tests`` paths) in this process under
``sys.settrace`` and prints, one per line, ``path:line: source`` for each
line of a ``src/helmpanel`` module that carries bytecode (a line of some
code object the module compiles to, nested functions and comprehensions
included) but saw no trace event, then how many there are.  The exit
status is 1 when any is listed.

Only this process is traced: a statement that only a test's subprocess
runs (the CLI through ``python -m helmpanel``) counts as not executed.
The tracer allocates as it runs, so a test that measures allocations
with ``tracemalloc`` can fail under it; the list is of statements, not of
test outcomes, and pytest's own summary reports those.  The ``coverage``
package would do the same; this needs nothing beyond pytest.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "helmpanel"


def code_lines(code) -> set[int]:
    """Every line number that instructions of ``code`` or its nested code objects carry."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main() -> None:
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    seen = {name: set() for name in files}

    def local(frame, event, arg):
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in seen:
            return None
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(REPO / "src"))
    os.chdir(REPO)  # pytest reads its settings and test paths from the root
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missing = 0
    for name, path in files.items():
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(code_lines(compile(source, name, "exec")) - seen[name]):
            print(f"{path.relative_to(REPO)}:{line}: {text[line - 1].strip()}")
            missing += 1
    print(f"{missing} statements of src/helmpanel never executed (pytest exit status {int(status)})")
    sys.exit(1 if missing else 0)


if __name__ == "__main__":
    main()
