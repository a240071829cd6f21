"""What start-up loads: each subcommand imports only the package modules it runs, and the package's
lazy re-exports behave as eager imports would (README, "Start-up").

Each case runs in a fresh interpreter, since this one has imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import course_difficulty

_SRC = Path(course_difficulty.__file__).resolve().parents[1]
_EVERY_COMMAND = ["course_difficulty.cli", "course_difficulty.data_io", "course_difficulty.engine",
                  "course_difficulty.errors", "course_difficulty.rounding", "course_difficulty.taxonomy"]

# printed last: the package modules loaded, sorted, and whether hashlib is
_LOADED = """
import json, sys
print(json.dumps([sorted(m for m in sys.modules if m.startswith("course_difficulty.")), "hashlib" in sys.modules]))
"""


def _fresh(code: str, *args: str) -> object:
    """The JSON value of the last line ``code`` prints, run in a new interpreter with ``args``."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(_SRC)})
    return json.loads(done.stdout.splitlines()[-1])


def test_the_parser_alone_loads_neither_mapper_nor_validation_nor_hashlib():
    assert _fresh("import course_difficulty.cli as cli\ncli.build_parser()" + _LOADED) == [_EVERY_COMMAND, False]


# each subcommand's inputs among the fixtures, and the modules it loads beyond _EVERY_COMMAND
_COMMANDS = {
    "estimate": (["--catalog", "table1.json", "--curriculum", "table2_asprinted.csv"], []),
    "grades": (["--grades", "table3_grades.csv"], []),
    "validate": (["--catalog", "table1.json", "--curriculum", "table2_asprinted.csv",
                  "--grades", "table3_grades.csv"], ["course_difficulty.validation"]),
    "map-outcomes": (["--statements", "outcome_statements.csv"], ["course_difficulty.mapper"]),
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_each_subcommand_loads_only_what_it_runs(command, fixture_dir, tmp_path):
    """Only ``validate`` hashes its inputs, so only it loads ``hashlib``."""
    inputs, loads = _COMMANDS[command]
    argv = [command, *(arg if arg.startswith("--") else str(fixture_dir / arg) for arg in inputs),
            "--output", str(tmp_path / "out.txt")]
    run = "import sys\nfrom course_difficulty.cli import main\nassert main(sys.argv[1:]) == 0" + _LOADED
    assert _fresh(run, *argv) == [sorted(_EVERY_COMMAND + loads), command == "validate"]


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
