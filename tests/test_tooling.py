"""The names outside tools rely on still resolve in the package.

``bench/child.py --trace 1`` wraps each function in its ``TRACED`` table by
``getattr`` and crashes on a missing one; ``from course_difficulty import *``
fails on a stale ``__all__`` entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import course_difficulty

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
