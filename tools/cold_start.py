"""Time fresh interpreters starting the CLI: the bare import, and one call per subcommand.

Usage (from anywhere in the repository):

    python3 tools/cold_start.py [--runs 10] [--base REV]

Each case is one new ``python3`` process: ``import course_difficulty.cli``
plus ``build_parser()``, and one ``python3 -m course_difficulty.cli`` call
per subcommand on the shipped fixtures, writing its output to a temporary
directory. Each case is timed in two modes:

- ``none``: no bytecode cache for the package. The tree is a fresh copy
  holding no ``__pycache__``, and ``PYTHONDONTWRITEBYTECODE=1`` keeps it so,
  as the benchmark's children run;
- ``cached``: the bytecode of every module read from, and written to, a
  temporary ``PYTHONPYCACHEPREFIX``, filled by one untimed call first, as an
  installed copy would run.

The working tree's files are copied as ``tools/bench_pairs.py`` copies them,
so nothing is written in the tree. With ``--base REV``, that revision is
extracted by ``git archive`` as well, the two sides run in turn within each
run, and which side runs first alternates from one run to the next. The
script prints, per case and mode, each side's min and median wall time in
milliseconds and, with a base, in how many runs the working tree was faster.
A ``--base`` that names no commit exits 2 before any tree is written. A
call that exits non-zero stops the script. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from bench_pairs import commit_of, extract, snapshot  # this script's directory is on sys.path

MODES = ("none", "cached")


def cases(fixtures: Path, out: Path) -> dict[str, list[str]]:
    """Each case's interpreter arguments, by name."""
    bundle = ["--catalog", str(fixtures / "table1.json"), "--curriculum", str(fixtures / "table2_asprinted.csv")]
    grades = ["--grades", str(fixtures / "table3_grades.csv")]
    written = ["--output", str(out / "output.txt")]
    cli = ["-m", "course_difficulty.cli"]
    return {
        "import+parser": ["-c", "import course_difficulty.cli as cli; cli.build_parser()"],
        "estimate": [*cli, "estimate", *bundle, *written],
        "grades": [*cli, "grades", *grades, *written],
        "validate": [*cli, "validate", *bundle, *grades, *written],
        "map-outcomes": [*cli, "map-outcomes", "--statements", str(fixtures / "outcome_statements.csv"), *written],
        "fixtures": [*cli, "fixtures", str(out / "fixtures")],
    }


def environment(tree: Path, mode: str, cache: Path) -> dict[str, str]:
    """This process's environment, with ``tree``'s package on the path and ``mode``'s bytecode settings."""
    env = {name: value for name, value in os.environ.items()
           if name not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(tree / "src")
    if mode == "none":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def call(tree: Path, args: list[str], env: dict[str, str]) -> float:
    """Seconds one fresh interpreter takes to run ``args`` in ``tree``."""
    start = perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(args)} in {tree} exited {done.returncode}:\n{done.stderr.strip()}")
    return elapsed


def report(times: dict[tuple[str, str, str], list[float]], sides: tuple[str, ...], names: list[str]) -> str:
    """Per case and mode, each side's min and median in ms, and with two sides the runs the tree won."""
    header = f"{'case':14} {'cache':6}" + "".join(f" {side + ' min':>10} {side + ' med':>10}" for side in sides)
    lines = [header + ("  tree faster" if len(sides) == 2 else "")]
    for name in names:
        for mode in MODES:
            row = [times[side, name, mode] for side in sides]
            line = f"{name:14} {mode:6}" + "".join(f" {min(t) * 1e3:10.1f} {statistics.median(t) * 1e3:10.1f}"
                                                   for t in row)
            if len(sides) == 2:
                line += f"  {sum(h < b for b, h in zip(*row))}/{len(row[0])}"
            lines.append(line)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="timed calls per case, mode and side")
    parser.add_argument("--base", default=None, help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    commit = None if args.base is None else commit_of(args.base)
    if args.base is not None and commit is None:
        parser.error(f"--base {args.base!r} names no commit")

    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        work = Path(tmp)
        trees = {"tree": work / "tree"}
        snapshot(trees["tree"])
        if commit is not None:
            trees = {"base": work / "base", **trees}
            trees["base"].mkdir()
            extract(commit, trees["base"])
        out = work / "out"
        out.mkdir()
        fixtures = out / "inputs"
        call(trees["tree"], ["-m", "course_difficulty.cli", "fixtures", str(fixtures)],
             environment(trees["tree"], "none", work))
        named = cases(fixtures, out)
        for side, tree in trees.items():
            for case in named.values():  # fill each side's cache, untimed
                call(tree, case, environment(tree, "cached", work / f"pycache-{side}"))
        times = {(side, name, mode): [] for side in trees for name in named for mode in MODES}
        for run in range(args.runs):
            order = list(trees.items()) if run % 2 == 0 else list(trees.items())[::-1]
            for name, case in named.items():
                for mode in MODES:
                    for side, tree in order:
                        env = environment(tree, mode, work / f"pycache-{side}")
                        times[side, name, mode].append(call(tree, case, env))
    print(f"{args.runs} run(s) per case, mode and side; wall ms of one fresh {sys.executable}")
    print(report(times, tuple(trees), list(named)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
