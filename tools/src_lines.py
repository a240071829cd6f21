"""Count the lines of each ``src/`` module by kind: code, docstring, comment and blank; and its bytes.

Usage: python3 tools/src_lines.py [ROOT]   (ROOT defaults to the repository's ``src``)

A docstring line is any line of the first string statement of a module,
class or function, its blank lines included. Of the other lines, a blank
line holds only whitespace, a comment line only a ``#`` comment, and every
other line is a code line. The four parts sum to the file's line count.
The last column is the file's size in bytes: a process that compiles the
package from source, with no bytecode kept, reads all of them.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> dict[str, int]:
    """The ``KINDS`` counts of one module's source text; they sum to its line count."""
    docstring = _docstring_lines(ast.parse(text))
    code_lines = set()  # lines holding part of a token other than a comment
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code_lines.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if number in docstring:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number in code_lines:
            kind = "code"
        else:
            kind = "comment"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    totals = dict.fromkeys(("total", *KINDS, "bytes"), 0)
    print(f"{'module':<40}" + "".join(f"{name:>10}" for name in totals))
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        text = data.decode("utf-8")
        counts = {"total": len(text.splitlines()), **count_lines(text), "bytes": len(data)}
        for name, n in counts.items():
            totals[name] += n
        print(f"{str(path.relative_to(root)):<40}" + "".join(f"{n:>10}" for n in counts.values()))
    print(f"{'all':<40}" + "".join(f"{n:>10}" for n in totals.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
