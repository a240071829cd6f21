"""List the executable lines of ``src/`` that one pytest run never reaches.

Usage: python3 tools/unreached_lines.py [PYTEST_ARGS...]   (run from the repository root)

Runs pytest once in this process under ``sys.settrace`` and prints
``module:line: source`` for each executable line of a ``src/`` module that
never ran, then how many there were. A line is executable when an
instruction of the module's code, or of a code object nested in it, is on
it (``co_lines()``). A call counts as reaching its ``def`` line. Code run in
a child process or another thread is not traced, and neither are the
modules imported before tracing starts (none of the package's, run this way).

It exits 0 whatever the tests do: traced, the suite takes about 2.5 times
as long (78 s against 32 s on a 2-vCPU VM), and its runtime bound fails.
Standard library and pytest only.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from types import CodeType


def executable_lines(code: CodeType) -> set[int]:
    """The lines that ``code``, or a code object nested in it, has an instruction on.

    A module's first instruction is on line 0, which holds no source; it and
    instructions with no line (``None``) are left out.
    """
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


@contextmanager
def reached_lines(root: str | Path) -> Iterator[set[tuple[str, int]]]:
    """While open, collect the ``(file, line)`` of every line run in this thread from a file under ``root``."""
    prefix = os.path.join(os.path.realpath(root), "")
    wanted: dict[str, str | None] = {}  # co_filename -> its real path, or None outside root
    reached: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            real = os.path.realpath(name)
            wanted[name] = real if real.startswith(prefix) else None
        path = wanted[name]
        if path is None:
            return None
        reached.add((path, frame.f_lineno))  # on a call, the def line
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield reached
    finally:
        sys.settrace(previous)


def unreached(path: Path, reached: set[tuple[str, int]]) -> list[int]:
    """The executable lines of the module at ``path`` that are not in ``reached``, in order."""
    real = os.path.realpath(path)
    code = compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")
    return sorted(executable_lines(code) - {line for file, line in reached if file == real})


def main(argv: list[str]) -> int:
    import pytest

    root = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(root))
    with reached_lines(root) as reached:
        pytest.main(argv)
    count = 0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in unreached(path, reached):
            print(f"{path.relative_to(root)}:{line}: {source[line - 1].strip()}")
            count += 1
    print(f"{count} executable line(s) never reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
