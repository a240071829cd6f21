"""The names outside tools rely on still resolve in the package, and are still reached.

``bench/child.py --trace 1`` wraps each function in its ``TRACED`` table by
``getattr`` and crashes on a missing one; ``from course_difficulty import *``
fails on a stale ``__all__`` entry. The benchmark's coverage guard also fails
a run whose workload no longer calls a function it names.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import course_difficulty
from course_difficulty.cli import main

_CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_child", _CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)  # defines TRACED; main() runs only as a script
    return child.TRACED


@pytest.mark.parametrize("module,name", _traced())
def test_bench_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"course_difficulty.{module}"), name))


@pytest.mark.parametrize("name", course_difficulty.__all__)
def test_public_name_resolves(name):
    assert hasattr(course_difficulty, name)


# What bench/workloads.py's validate-20k coverage guard requires a validate run to call.
VALIDATE_REACHES = (
    ("validation", "compare"),
    ("validation", "summarize"),
    ("engine", "final_difficulty"),
    ("data_io", "write_plot_data"),
)


def test_validate_json_run_reaches_the_guarded_functions(fixture_dir, tmp_path, monkeypatch, capsys):
    """A refactor that bypasses one of these fails here, not only in ``bench/run.py``.

    Each function is wrapped wherever the package binds it, as the bench's
    tracer does, so a call through a ``from ... import`` name counts too.
    """
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "course_difficulty"]
    calls = {}
    targets = [(importlib.import_module(f"course_difficulty.{mod}"), mod, name) for mod, name in VALIDATE_REACHES]
    for owner, mod, name in [*targets, (json, "json", "dumps")]:
        key = f"{mod}.{name}"
        original = getattr(owner, name)
        calls[key] = 0

        def counting(*args, __fn=original, __key=key, **kwargs):
            calls[__key] += 1
            return __fn(*args, **kwargs)

        for module in {id(m): m for m in [*package, owner]}.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    argv = [
        "validate", "--catalog", str(fixture_dir / "table1.json"),
        "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
        "--grades", str(fixture_dir / "table3_grades.csv"),
        "--format", "json", "--plot-data", str(tmp_path / "plot.csv"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert {key: count > 0 for key, count in calls.items()} == dict.fromkeys(calls, True)
