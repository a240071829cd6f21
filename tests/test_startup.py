"""What start-up loads: each call imports only the package modules it runs, and ``json`` only where it reads
or writes JSON; the package's lazy re-exports behave as eager imports would (README, "Start-up").

Each case runs in a fresh interpreter, since this one has imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import course_difficulty
from course_difficulty import data_io

_SRC = Path(course_difficulty.__file__).resolve().parents[1]
_EVERY_COMMAND = ["course_difficulty.cli", "course_difficulty.data_io", "course_difficulty.engine",
                  "course_difficulty.errors", "course_difficulty.rounding"]
_TAXONOMY = "course_difficulty.taxonomy"

# printed last: the package modules loaded, sorted, and whether hashlib and json are (json is imported after)
_LOADED = """
import sys
loaded = [sorted(m for m in sys.modules if m.startswith("course_difficulty.")), "hashlib" in sys.modules,
          "json" in sys.modules]
import json
print(json.dumps(loaded))
"""


def _fresh(code: str, *args: str) -> object:
    """The JSON value of the last line ``code`` prints, run in a new interpreter with ``args``."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(_SRC)})
    return json.loads(done.stdout.splitlines()[-1])


def test_the_parser_alone_loads_neither_mapper_nor_validation_nor_hashlib():
    """Nor ``taxonomy`` nor ``json``: only the calls that read a catalog or lexicon, or JSON, load them."""
    assert _fresh("import course_difficulty.cli as cli\ncli.build_parser()" + _LOADED) == [_EVERY_COMMAND, False, False]


def test_taxonomy_imports_on_its_own():
    """``taxonomy`` re-exports ``engine.MAX_RUBRIC``, and ``engine`` names ``taxonomy`` in annotations only,
    so a fresh import of ``taxonomy`` meets no cycle."""
    code = "import course_difficulty.taxonomy as taxonomy\nassert taxonomy.MAX_RUBRIC == 21" + _LOADED
    assert _fresh(code) == [["course_difficulty.engine", "course_difficulty.errors", "course_difficulty.rounding",
                             _TAXONOMY], False, False]


# each call's argv ({fixtures}: the shipped fixtures, {tmp}: the test's directory, holding the canonical
# catalog as catalog.csv), the modules it loads beyond _EVERY_COMMAND, and whether it loads json
_COMMANDS = {
    "estimate": (["estimate", "--catalog", "{fixtures}/table1.json", "--curriculum",
                  "{fixtures}/table2_asprinted.csv"], [_TAXONOMY], True),
    "estimate-csv-catalog": (["estimate", "--catalog", "{tmp}/catalog.csv", "--curriculum",
                              "{fixtures}/table2_asprinted.csv"], [_TAXONOMY], False),
    "grades": (["grades", "--grades", "{fixtures}/table3_grades.csv"], [], False),
    "validate": (["validate", "--catalog", "{fixtures}/table1.json", "--curriculum", "{fixtures}/table2_asprinted.csv",
                  "--grades", "{fixtures}/table3_grades.csv"], [_TAXONOMY, "course_difficulty.validation"], True),
    "map-outcomes": (["map-outcomes", "--statements", "{fixtures}/outcome_statements.csv"],
                     ["course_difficulty.mapper", _TAXONOMY], False),
    "map-outcomes-json": (["map-outcomes", "--statements", "{fixtures}/outcome_statements.csv", "--format", "json"],
                          ["course_difficulty.mapper", _TAXONOMY], True),
    "fixtures": (["fixtures", "{tmp}/copies"], [], False),
}


@pytest.mark.parametrize("case", _COMMANDS)
def test_each_subcommand_loads_only_what_it_runs(case, catalog, fixture_dir, tmp_path):
    """Only ``validate`` hashes its inputs, so only it loads ``hashlib``."""
    argv, loads, reads_json = _COMMANDS[case]
    data_io.write_catalog(catalog, tmp_path / "catalog.csv")
    argv = [arg.format(fixtures=fixture_dir, tmp=tmp_path) for arg in argv]
    if argv[0] != "fixtures":  # the one command with no --output
        argv += ["--output", str(tmp_path / "out.txt")]
    run = "import sys\nfrom course_difficulty.cli import main\nassert main(sys.argv[1:]) == 0" + _LOADED
    assert _fresh(run, *argv) == [sorted(_EVERY_COMMAND + loads), argv[0] == "validate", reads_json]


def test_lazy_reexports_behave_like_eager_ones():
    checks = """
import json, sys
import course_difficulty
bare = sorted(m for m in sys.modules if m.startswith("course_difficulty."))
star = {}
exec("from course_difficulty import *", star)
try:
    course_difficulty.no_such_name
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "bare": bare,
    "unbound": sorted(set(course_difficulty.__all__) - set(star)),
    "undir": sorted(set(course_difficulty.__all__) - set(dir(course_difficulty))),
    "same": course_difficulty.compare is course_difficulty.validation.compare,
    "missing": missing,
}))
"""
    assert _fresh(checks) == {
        "bare": [],
        "unbound": [],
        "undir": [],
        "same": True,
        "missing": "module 'course_difficulty' has no attribute 'no_such_name'",
    }
