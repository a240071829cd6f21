"""Byte-identity gate: CLI output on the shipped fixtures against committed files.

Each case runs ``cli.main`` in a fresh directory holding a copy of the
fixtures, so every path the output echoes is one of the relative names below.
The ``*-json-input-*`` cases also get the JSON forms of the curriculum, the
grades and the lexicon from ``tests/data/json_inputs/``: the shipped CSV
fixtures in JSON form, with grade values as JSON numbers. The ``*-synthetic-*``
cases read ``tests/data/synthetic/``: a small seeded grade set of 30 courses
with 12 generations each, in CSV and JSON form, plus a curriculum over the
shipped catalog for ``validate`` and ``estimate``. Its values come from two
small pools of literals, so they repeat, sometimes under another spelling
(``35`` and ``35.000``); they include 3-decimal percents, exact rounding ties
on the difficulty scale (``di`` 2.45, ``percent`` 35) and values next to them.
Both input directories live outside the golden directory because
regenerating empties it.
The expected bytes live in ``tests/data/golden/``: ``<case>.stdout``,
``<case>.stderr`` when the call writes to stderr, and ``<case>.out.<name>``
for each file the call leaves in its directory. Regenerate them only when an
output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from course_difficulty import data_io
from course_difficulty.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
JSON_INPUTS = Path(__file__).parent / "data" / "json_inputs"
SYNTHETIC = Path(__file__).parent / "data" / "synthetic"

# C1 graded, C2-C11 ungraded, plus a course the curriculum does not know
PARTIAL_GRADES = "course_code,generation,kind,value\nC1,g1,di,4.0\nC1,g2,percent,35\nGHOST,g1,di,1.0\n"

EST = ["estimate", "--catalog", "table1.json", "--curriculum", "table2_asprinted.csv"]
VAL = ["validate", "--catalog", "table1.json", "--curriculum", "table2_asprinted.csv"]
FULL = [*VAL, "--grades", "table3_grades.csv"]
PARTIAL = [*VAL, "--grades", "partial.csv"]
MAP = ["map-outcomes", "--statements", "outcome_statements.csv"]
EST_JSON = ["estimate", "--catalog", "table1.json", "--curriculum", "table2_asprinted.json", "--mode", "as-printed"]
VAL_JSON = [
    "validate", "--catalog", "table1.json", "--curriculum", "table2_asprinted.json",
    "--grades", "table3_grades.json", "--mode", "as-printed",
]

CASES: dict[str, tuple[list[str], int]] = {}
for fmt in ("table", "csv", "json"):
    for mode in ("canonical", "as-printed"):
        CASES[f"estimate-{mode}-{fmt}"] = ([*EST, "--mode", mode, "--format", fmt], 0)
        CASES[f"validate-{mode}-{fmt}"] = ([*FULL, "--mode", mode, "--format", fmt], 0)
    CASES[f"grades-{fmt}"] = (["grades", "--grades", "table3_grades.csv", "--format", fmt], 0)
    CASES[f"validate-full-precision-{fmt}"] = ([*FULL, "--mode", "as-printed", "--full-precision", "--format", fmt], 0)
    CASES[f"validate-partial-{fmt}"] = ([*PARTIAL, "--format", fmt], 0)
    CASES[f"map-outcomes-{fmt}"] = ([*MAP, "--format", fmt], 0)
    CASES[f"map-outcomes-suffix-{fmt}"] = ([*MAP, "--suffix-rule", "--format", fmt], 0)
    CASES[f"estimate-json-input-{fmt}"] = ([*EST_JSON, "--format", fmt], 0)
    CASES[f"validate-json-input-{fmt}"] = ([*VAL_JSON, "--format", fmt], 0)
    CASES[f"grades-json-input-{fmt}"] = (["grades", "--grades", "table3_grades.json", "--format", fmt], 0)
for fmt in ("table", "json"):
    CASES[f"validate-mean-of-both-{fmt}"] = ([*FULL, "--policy", "mean-of-both", "--format", fmt], 0)
    CASES[f"validate-tolerance-{fmt}"] = ([*FULL, "--mode", "as-printed", "--tolerance", "0.3", "--format", fmt], 0)
for fmt in ("table", "csv", "json"):
    CASES[f"grades-synthetic-{fmt}"] = (["grades", "--grades", "grades.csv", "--format", fmt], 0)
    CASES[f"grades-synthetic-json-input-{fmt}"] = (["grades", "--grades", "grades.json", "--format", fmt], 0)
for grades in ("grades.csv", "grades.json"):
    CASES[f"validate-synthetic-{Path(grades).suffix[1:]}-input-json"] = (
        [*VAL[:3], "--curriculum", "curriculum.csv", "--grades", grades, "--format", "json"], 0
    )
VAL_SYNTHETIC = [*VAL[:3], "--curriculum", "curriculum.csv", "--grades", "grades.csv"]
for fmt in ("table", "json"):
    CASES[f"validate-synthetic-full-precision-{fmt}"] = ([*VAL_SYNTHETIC, "--full-precision", "--format", fmt], 0)
CASES["validate-synthetic-mean-of-both-json"] = ([*VAL_SYNTHETIC, "--policy", "mean-of-both", "--format", "json"], 0)
CASES["validate-synthetic-written-files"] = (
    [*VAL_SYNTHETIC, "--mode", "as-printed", "--policy", "mean-of-both", "--format", "json",
     "--output", "report.json", "--plot-data", "plot.csv"],
    0,
)
for fmt in ("table", "csv", "json"):
    for mode in ("canonical", "as-printed"):
        CASES[f"estimate-synthetic-{mode}-{fmt}"] = (
            [*EST[:3], "--curriculum", "curriculum.csv", "--mode", mode, "--format", fmt], 0
        )
CASES["validate-strict"] = ([*FULL, "--strict"], 0)
CASES["validate-partial-strict"] = ([*PARTIAL, "--strict", "--format", "json"], 1)
CASES["validate-written-files"] = (
    [*FULL, "--format", "json", "--full-precision", "--output", "report.json", "--plot-data", "plot.csv"],
    0,
)
CASES["map-outcomes-lexicon"] = ([*MAP, "--lexicon", "default_lexicon.csv", "--format", "json"], 0)
CASES["map-outcomes-json-input-lexicon"] = ([*MAP, "--lexicon", "default_lexicon.json", "--format", "json"], 0)
CASES["map-outcomes-output"] = ([*MAP, "--format", "csv", "--output", "mapping.csv"], 0)
# the call shapes of the benchmark's estimate-50k and grades-deep workloads
CASES["estimate-output"] = ([*EST, "--mode", "canonical", "--format", "csv", "--output", "estimate.csv"], 0)
CASES["grades-output"] = (
    ["grades", "--grades", "table3_grades.csv", "--format", "csv", "--output", "grades_out.csv"], 0
)
CASES["fixtures"] = (["fixtures", "copy"], 0)


def run_case(argv: list[str], workdir: Path) -> tuple[int, str, str, dict[str, bytes]]:
    """Run one CLI call in ``workdir``; return exit code, stdout, stderr, new files."""
    data_io.copy_fixtures(workdir)
    (workdir / "partial.csv").write_text(PARTIAL_GRADES, encoding="utf-8")
    for path in (*JSON_INPUTS.iterdir(), *SYNTHETIC.iterdir()):
        shutil.copyfile(path, workdir / path.name)
    before = set(os.listdir(workdir))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = {
        name: (workdir / name).read_bytes()
        for name in sorted(set(os.listdir(workdir)) - before)
        if (workdir / name).is_file()
    }
    return code, out.getvalue(), err.getvalue(), written


def _expected_files(name: str) -> dict[str, bytes]:
    prefix = f"{name}.out."
    return {
        path.name[len(prefix):]: path.read_bytes()
        for path in GOLDEN.iterdir()
        if path.name.startswith(prefix)
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    argv, expected_code = CASES[name]
    code, out, err, written = run_case(argv, tmp_path)
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / f"{name}.stdout").read_bytes()
    stderr_path = GOLDEN / f"{name}.stderr"
    assert err.encode("utf-8") == (stderr_path.read_bytes() if stderr_path.exists() else b"")
    assert written == _expected_files(name)


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for path in GOLDEN.iterdir():
        path.unlink()
    for name, (argv, expected_code) in sorted(CASES.items()):
        workdir = Path(tempfile.mkdtemp())
        try:
            code, out, err, written = run_case(argv, workdir)
        finally:
            shutil.rmtree(workdir)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode("utf-8"))
        if err:
            (GOLDEN / f"{name}.stderr").write_bytes(err.encode("utf-8"))
        for file_name, data in written.items():
            (GOLDEN / f"{name}.out.{file_name}").write_bytes(data)
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
