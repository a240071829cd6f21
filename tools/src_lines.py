"""Count the lines of each ``src/`` module by kind: code, docstring, comment and blank; and its bytes.

Usage: python3 tools/src_lines.py [--base REV] [ROOT]   (ROOT defaults to the repository's ``src``)

A docstring line is any line of the first string statement of a module,
class or function, its blank lines included. Of the other lines, a blank
line holds only whitespace, a comment line only a ``#`` comment, and every
other line is a code line. The four parts sum to the file's line count.
The last column is the file's size in bytes: a process that compiles the
package from source, with no bytecode kept, reads all of them.

With ``--base REV``, it prints instead one row per kind, ``total`` and
``bytes`` included: the sum over ROOT's modules as they are at the git
revision REV (read through ``git archive``), the sum over them as they are
in the working tree, and the difference. Standard library and git only.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tarfile
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


def _counts(data: bytes) -> dict[str, int]:
    """One module's line count, its ``KINDS`` counts and its size in bytes."""
    text = data.decode("utf-8")
    return {"total": len(text.splitlines()), **count_lines(text), "bytes": len(data)}


def _sum(sources: dict[str, bytes]) -> dict[str, int]:
    totals = dict.fromkeys(("total", *KINDS, "bytes"), 0)
    for data in sources.values():
        for name, n in _counts(data).items():
            totals[name] += n
    return totals


def _sources_at(root: Path, rev: str) -> dict[str, bytes]:
    """Each ``.py`` file under ``root`` as it is at git revision ``rev``, by its path relative to ``root``."""
    def git(*args: str, cwd: Path | str = root) -> bytes:
        result = subprocess.run(["git", *args], cwd=cwd, capture_output=True)
        if result.returncode:
            raise SystemExit(f"error: git {' '.join(args)}: {result.stderr.decode(errors='replace').strip()}")
        return result.stdout

    top, prefix = git("rev-parse", "--show-toplevel", "--show-prefix").decode().split("\n")[:2]
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", f"{rev}:{prefix}", cwd=top))) as tar:
        return {m.name: tar.extractfile(m).read() for m in tar if m.isfile() and m.name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="src_lines.py", description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--base", metavar="REV", help="compare the sums at this git revision with the working tree")
    args = parser.parse_args(argv[1:])
    if args.base is not None:
        from bench_pairs import commit_of  # this script's directory is on sys.path

        if commit_of(args.base, args.root) is None:
            parser.error(f"--base {args.base!r} names no commit")
    sources = {path.relative_to(args.root).as_posix(): path.read_bytes() for path in sorted(args.root.rglob("*.py"))}
    if args.base is not None:
        base, head = _sum(_sources_at(args.root, args.base)), _sum(sources)
        print(f"{'kind':<12}{args.base:>16}{'working tree':>16}{'difference':>12}")
        for name in base:
            print(f"{name:<12}{base[name]:>16}{head[name]:>16}{head[name] - base[name]:>+12}")
        return 0
    print(f"{'module':<40}" + "".join(f"{name:>10}" for name in ("total", *KINDS, "bytes")))
    for name, counts in [*((name, _counts(data)) for name, data in sources.items()), ("all", _sum(sources))]:
        print(f"{name:<40}" + "".join(f"{n:>10}" for n in counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
