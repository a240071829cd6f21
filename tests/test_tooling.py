"""The names outside tools rely on still resolve in the package, and are still reached.

``bench/child.py --trace 1`` wraps each function in its ``TRACED`` table by
``getattr`` and crashes on a missing one; ``from course_difficulty import *``
fails on a stale entry of the package's ``_HOMES`` table, whose sorted keys
are its ``__all__``. Each benchmark workload's calls, run
once on small inputs, reach every function its coverage guard
(``Workload.traced``) names, as ``bench/run.py`` requires. The same wrapping
counts ``estimate``'s ``format_fixed`` calls, one per distinct rubric pair;
``validate``'s ``round_units`` calls, one per graded course, one per
distinct rubric pair and, in the CSV report, one per distinct cell value, and
its ``compare`` and ``final_difficulty`` calls, one per distinct (actual,
estimated) pair; ``validate``'s and ``grades``' ``GenerationRecord``
constructions, one per distinct grade row, each computing its di pair once;
and ``grades``' ``format_ratio`` calls, one per distinct di pair. Every
``init=False`` dataclass has its own docstring. ``tools/src_lines.py``'s
line kinds sum to each module's line count, and its ``--base`` table sums
a git revision's modules beside the working tree's; ``tools/bench_pairs.py``
summarizes canned pairs and marks bounds and the gain rule, and it and
``tools/cold_start.py`` refuse an unknown workload or revision, or no pairs, before writing a tree,
``tools/unreached_lines.py`` finds the lines a small module's one call
leaves unrun, ``tools/stage_memory.py`` prints a line per run of one stage
of a small workload, one line for all the CSV batches of a write, and
README's "Library use" block runs as written.
"""

import ast
import csv
import dataclasses
import importlib
import importlib.util
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import course_difficulty
from course_difficulty import data_io
from course_difficulty.cli import main
from course_difficulty.engine import GenerationRecord, bloom_difficulty, grade_difficulty
from course_difficulty.rounding import round_half_away
from course_difficulty.taxonomy import canonical_catalog
from course_difficulty.validation import compare

_ROOT = Path(__file__).resolve().parents[1]
_CHILD = _ROOT / "bench" / "child.py"
_SYNTHETIC_CURRICULUM = Path(__file__).resolve().parent / "data" / "synthetic" / "curriculum.csv"
_SYNTHETIC_GRADES = _SYNTHETIC_CURRICULUM.with_name("grades.csv")
sys.path.insert(0, str(_CHILD.parent))  # bench/workloads.py imports bench/oracle.py by its top-level name
try:
    import workloads
finally:
    sys.path.remove(str(_CHILD.parent))


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


def _count_calls(reaches, monkeypatch):
    """Count the calls of each ``(module, function)`` in ``reaches``, live, by ``module.function``.

    Each function is wrapped wherever the package binds it, as the bench's
    tracer does, so a call through a ``from ... import`` name counts too.
    """
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "course_difficulty"]
    calls = {}
    for mod, name in reaches:
        owner = json if mod == "json" else importlib.import_module(f"course_difficulty.{mod}")
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
    return calls


@pytest.mark.parametrize("name", workloads.NAMES)
def test_each_workload_reaches_its_guarded_functions(name, fixture_dir, tmp_path, monkeypatch, capsys):
    """A refactor that bypasses a function named in a workload's ``traced`` guard fails here, not only in
    ``bench/run.py``: each of the workload's distinct calls runs once, on inputs drawn at 1% of its size.

    The shipped lexicon is cached per process on ``data_io.default_lexicon``,
    so that cache is cleared first, as a bench child starts without it.
    """
    workload = workloads.prepare(name, 1, 0.01, tmp_path, fixture_dir)
    data_io.default_lexicon.cache_clear()
    calls = _count_calls([tuple(fn.split(".")) for fn in workload.traced if fn != "cli.main"], monkeypatch)
    for call in workload.calls:
        assert main(call["argv"]) == 0
    capsys.readouterr()
    assert {key: count > 0 for key, count in calls.items()} == dict.fromkeys(calls, True)


@pytest.mark.parametrize("curriculum,mode", [
    ("table2_asprinted.csv", "canonical"),
    ("table2_asprinted.csv", "as-printed"),
    (str(_SYNTHETIC_CURRICULUM), "as-printed"),
], ids=["table2-canonical", "table2-as-printed", "synthetic-as-printed"])
def test_estimate_formats_each_rubric_pair_once(curriculum, mode, fixture_dir, monkeypatch, capsys):
    """``estimate`` renders each distinct ``(raw_total, max_total)`` pair once, not once per course."""
    calls = _count_calls([("rounding", "format_fixed")], monkeypatch)
    monkeypatch.chdir(fixture_dir)
    argv = ["estimate", "--catalog", "table1.json", "--curriculum", curriculum, "--mode", mode, "--format", "csv"]
    assert main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    pairs = {(row["raw_total"], row["max_total"]) for row in rows}
    assert len(pairs) < len(rows)  # the fixtures repeat pairs, so a per-course path fails here
    assert calls == {"rounding.format_fixed": len(pairs)}


def test_grades_formats_each_distinct_di_pair_once(monkeypatch, capsys):
    """``grades`` renders each distinct di pair's cell once, however many records share it, and still
    reaches ``grade_difficulty`` once per course."""
    histories = data_io.load_grades(_SYNTHETIC_GRADES)
    records = {id(g): g for h in histories.values() for g in h.generations}.values()
    pairs = {g.di_pair() for g in records}
    assert len(pairs) < len(records)  # distinct records share pairs, so a per-record path fails here
    calls = _count_calls([("rounding", "format_ratio"), ("engine", "grade_difficulty")], monkeypatch)
    assert main(["grades", "--grades", str(_SYNTHETIC_GRADES), "--format", "csv"]) == 0
    assert len(list(csv.reader(io.StringIO(capsys.readouterr().out)))) == len(histories) + 1
    assert calls == {"rounding.format_ratio": len(pairs), "engine.grade_difficulty": len(histories)}


def _synthetic_comparisons(mode):
    """The synthetic curriculum's graded courses, each compared on its own: its values rounded, then ``compare``."""
    histories = data_io.load_grades(_SYNTHETIC_GRADES)
    catalog = canonical_catalog()
    courses = [c for c in data_io.load_curriculum(_SYNTHETIC_CURRICULUM, catalog) if c.code in histories]
    results = [bloom_difficulty(c if mode == "as-printed" else c.without_overrides(), catalog) for c in courses]
    comparisons = [
        compare(round_half_away(grade_difficulty(histories[c.code])), round_half_away(r.di), c.code)
        for c, r in zip(courses, results)
    ]
    return results, comparisons


def _validate_synthetic(mode, fmt, fixture_dir, monkeypatch, capsys):
    """Run ``validate`` on the synthetic curriculum and grades; return its stdout."""
    monkeypatch.chdir(fixture_dir)
    argv = ["validate", "--catalog", "table1.json", "--curriculum", str(_SYNTHETIC_CURRICULUM),
            "--grades", str(_SYNTHETIC_GRADES), "--mode", mode, "--format", fmt]
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("mode", ["canonical", "as-printed"])
def test_validate_rounds_each_rubric_pair_once(mode, fixture_dir, monkeypatch, capsys):
    """``validate`` rounds each graded course's grade value and each distinct rubric pair once, to whole
    tenths through ``round_units``; ``round_half_away`` runs only for the three means. The CSV report
    rounds each distinct (numerator, denominator) cell value once more."""
    results, comparisons = _synthetic_comparisons(mode)
    pairs = {(r.raw_total, r.max_total) for r in results}
    assert len(pairs) < len(comparisons)  # the pairs repeat, so a per-course path fails here
    values = [(c.actual_num, c.estimated_num, abs(c.actual_num - c.estimated_num), c.den) for c in comparisons]
    cells = {(n, den) for *nums, den in values for n in nums}
    assert len(cells) < 3 * len(comparisons)  # so do the cell values
    calls = _count_calls([("rounding", "round_half_away"), ("rounding", "round_units")], monkeypatch)
    out = _validate_synthetic(mode, "csv", fixture_dir, monkeypatch, capsys)
    assert len(list(csv.reader(io.StringIO(out)))) == len(comparisons) + 2  # header, AVERAGE
    assert calls == {"rounding.round_half_away": 3,
                     "rounding.round_units": len(comparisons) + len(pairs) + len(cells) + 3}


@pytest.mark.parametrize("mode", ["canonical", "as-printed"])
def test_validate_compares_each_value_pair_once(mode, fixture_dir, monkeypatch, capsys):
    """``validate`` runs ``compare`` and ``final_difficulty`` once per distinct (actual, estimated) pair.
    Its JSON report writes floats, so it rounds only the values it compares, and the three means."""
    results, comparisons = _synthetic_comparisons(mode)
    pairs = {(c.actual_di, c.estimated_di) for c in comparisons}
    assert len(pairs) < len(comparisons)  # the pairs repeat, so a per-course path fails here
    reaches = [("validation", "compare"), ("engine", "final_difficulty"), ("rounding", "round_units")]
    calls = _count_calls(reaches, monkeypatch)
    out = _validate_synthetic(mode, "json", fixture_dir, monkeypatch, capsys)
    assert [c["course_code"] for c in json.loads(out)["courses"]] == [c.course_code for c in comparisons]
    rubric_pairs = {(r.raw_total, r.max_total) for r in results}
    assert calls == {"validation.compare": len(pairs), "engine.final_difficulty": len(pairs),
                     "rounding.round_units": len(comparisons) + len(rubric_pairs) + 3}


@pytest.mark.parametrize("argv", [
    ["validate", "--format", "json"],
    ["validate", "--format", "json", "--full-precision"],
    ["grades", "--format", "csv"],
    ["grades", "--format", "json"],
], ids=["validate-rounded", "validate-full-precision", "grades-csv", "grades-json"])
def test_each_distinct_grade_row_builds_one_record(argv, fixture_dir, monkeypatch, capsys):
    """``validate`` and ``grades`` build one ``GenerationRecord``, and so compute one di pair, per distinct
    (generation, kind, value) row of the grade file, and still reach ``grade_difficulty`` once per course
    they average; no pair is computed after loading."""
    with _SYNTHETIC_GRADES.open(newline="") as f:
        rows = list(csv.DictReader(f))
    averaged = {row["course_code"] for row in rows}
    if argv[0] == "validate":
        averaged &= {c.code for c in data_io.load_curriculum(_SYNTHETIC_CURRICULUM, canonical_catalog())}
        argv = [*argv, "--catalog", "table1.json", "--curriculum", str(_SYNTHETIC_CURRICULUM)]
    records = {(row["generation"], row["kind"], row["value"]) for row in rows}
    assert len(records) < len(rows)  # the courses share records, so a per-row path fails here
    calls = _count_calls([("engine", "grade_difficulty"), ("engine", "_percent_pair")], monkeypatch)
    init = GenerationRecord.__init__
    calls["GenerationRecord.__init__"] = 0

    def counting(self, *args, **kwargs):
        calls["GenerationRecord.__init__"] += 1
        return init(self, *args, **kwargs)

    monkeypatch.setattr(GenerationRecord, "__init__", counting)
    monkeypatch.chdir(fixture_dir)
    assert main([*argv, "--grades", str(_SYNTHETIC_GRADES)]) == 0
    out = capsys.readouterr().out
    courses = len(list(csv.reader(io.StringIO(out)))) - 1 if "csv" in argv else len(json.loads(out)["courses"])
    assert courses == len(averaged)
    percent = {r for r in records if r[1].strip().lower() == "percent"}
    assert 0 < len(percent) < len(records)
    assert calls == {"engine.grade_difficulty": len(averaged), "engine._percent_pair": len(percent),
                     "GenerationRecord.__init__": len(records)}


def test_every_init_false_dataclass_has_its_own_docstring():
    """A dataclass declared with ``init=False`` and no docstring gets one built from
    ``inspect.signature(object.__init__)``, which parses source text at import. Each such class in
    ``src/`` states its own, and declares its ``__init__`` in its own body, so that it is named as
    the class's own."""
    declared = {}
    for path in sorted((_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Call) and any(k.arg == "init" and getattr(k.value, "value", True) is False
                                                for k in d.keywords)
                for d in node.decorator_list
            ):
                declared[node.name] = ast.get_docstring(node)
    modules = [importlib.import_module(f"course_difficulty.{p.stem}")
               for p in sorted((_ROOT / "src" / "course_difficulty").glob("*.py")) if p.stem != "__init__"]
    built = {cls.__name__: cls for module in modules for cls in vars(module).values()
             if dataclasses.is_dataclass(cls) and isinstance(cls, type) and cls.__module__ == module.__name__
             and not cls.__dataclass_params__.init}
    assert set(declared) == set(built) >= {"Course", "BloomDifficulty", "GenerationRecord", "GradeHistory",
                                           "CourseComparison"}
    assert [name for name, doc in declared.items() if not doc] == []
    assert {name: cls.__init__.__qualname__ for name, cls in built.items()} == {name: f"{name}.__init__" for name in built}


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, _ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("path", sorted((_ROOT / "src").rglob("*.py")), ids=lambda p: p.name)
def test_src_line_kinds_sum_to_the_line_count(path):
    text = path.read_text(encoding="utf-8")
    counts = _tool("src_lines").count_lines(text)
    assert set(counts) == {"code", "docstring", "comment", "blank"}
    assert sum(counts.values()) == len(text.splitlines())
    assert counts["docstring"] > 0 and counts["code"] > 0


def test_src_line_kinds_classify_each_line():
    text = '''"""Module.

Docstring."""
import os  # a trailing comment makes a code line

# a comment line


def f():
    """One line."""
    return os.sep
'''
    assert _tool("src_lines").count_lines(text) == {"code": 3, "docstring": 4, "comment": 1, "blank": 3}


def test_src_lines_table_counts_each_module_and_the_total(tmp_path, capsys):
    """Each row holds the module's line count, its ``count_lines`` kinds and its size in bytes; the last row sums them."""
    texts = {"a.py": '"""Doc."""\nx = "\u00e9"  # two bytes\n', "pkg/b.py": "\n# note\ny = 1\n"}
    for name, text in texts.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    tool = _tool("src_lines")
    assert tool.main(["src_lines.py", str(tmp_path)]) == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "total", *tool.KINDS, "bytes"]
    expected = [[name, str(len(text.splitlines())), *map(str, tool.count_lines(text).values()),
                 str(len(text.encode("utf-8")))] for name, text in texts.items()]
    assert rows == expected
    assert total == ["all", *(str(sum(int(row[i]) for row in expected)) for i in range(1, len(header)))]
    assert expected[0][-1] == str(len(texts["a.py"]) + 1)  # the non-ASCII letter counts as its two bytes


def test_src_lines_base_compares_a_revision_with_the_working_tree(tmp_path, monkeypatch, capsys):
    """``--base REV`` sums ROOT's modules at REV, read from git, and in the working tree, with the difference
    per kind; files outside ROOT and files that are not modules count on neither side. A REV that names no
    commit of ROOT's repository exits 2 with one ``error:`` line, before anything is read."""
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))  # src_lines imports bench_pairs by its top-level name
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args], cwd=tmp_path,
                       check=True, capture_output=True)

    def sums(texts):
        counts = [{"total": len(t.splitlines()), **tool.count_lines(t), "bytes": len(t.encode())} for t in texts]
        return {kind: sum(c[kind] for c in counts) for kind in ("total", *tool.KINDS, "bytes")}

    tool = _tool("src_lines")
    src = tmp_path / "src"
    old = {"a.py": '"""Doc."""\nx = 1\n', "pkg/b.py": "# note\n\ny = 2\n", "notes.txt": "not a module\n"}
    new = {"a.py": '"""Doc."""\nx = "é"\n\n', "pkg/c.py": "z = 3\n", "notes.txt": "still not\n"}
    for name, text in old.items():
        (src / name).parent.mkdir(parents=True, exist_ok=True)
        (src / name).write_text(text, encoding="utf-8")
    (tmp_path / "outside.py").write_text("w = 4\n", encoding="utf-8")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (src / "pkg" / "b.py").unlink()
    for name, text in new.items():
        (src / name).write_text(text, encoding="utf-8")
    assert tool.main(["src_lines.py", "--base", "HEAD", str(src)]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["kind", "HEAD", "working", "tree", "difference"]
    base = sums(t for name, t in old.items() if name.endswith(".py"))
    head = sums(t for name, t in new.items() if name.endswith(".py"))
    assert rows == [[kind, str(base[kind]), str(head[kind]), f"{head[kind] - base[kind]:+d}"] for kind in base]
    assert base["bytes"] != head["bytes"] and base["code"] == head["code"]
    monkeypatch.setattr(tool, "_sources_at", None)  # a revision that names no commit is refused before any read
    with pytest.raises(SystemExit) as exited:
        tool.main(["src_lines.py", "--base", "no-such-revision", str(src)])
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert (exited.value.code, errors) == (2, ["src_lines.py: error: --base 'no-such-revision' names no commit"])


def test_readme_library_use_block_states_what_it_computes():
    section = (_ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    result = namespace["result"]
    assert (result.raw_total, result.max_total) == (39, 84)
    assert result.di == Fraction(65, 28)
    assert namespace["hard"] == Fraction(13, 4)


_METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "items_per_s", "better": "higher", "bound": 0.25}]


def test_bench_pairs_summary_counts_the_pairs_each_side_won():
    """``tools/bench_pairs.py``'s summary, on canned results: medians, the base's quartile spread, and wins
    in the metric's own direction, a tie counting for neither side."""
    tool = _tool("bench_pairs")
    pairs = [
        ({"wall_s": 1.0, "items_per_s": 10.0}, {"wall_s": 0.9, "items_per_s": 11.0}),
        ({"wall_s": 1.2, "items_per_s": 8.0}, {"wall_s": 1.3, "items_per_s": 8.0}),
        ({"wall_s": 1.1, "items_per_s": 9.0}, {"wall_s": 1.0, "items_per_s": 9.5}),
    ]
    summary = tool.summarize(pairs, _METRICS)
    wall, items = summary["wall_s"], summary["items_per_s"]
    assert (wall["base"], wall["head"]) == ([1.0, 1.2, 1.1], [0.9, 1.3, 1.0])
    assert (wall["base_median"], wall["head_median"], wall["head_better_pairs"], wall["pairs"]) == (1.1, 1.0, 2, 3)
    assert wall["base_iqr"] == pytest.approx(0.1)  # quartiles 1.05 and 1.15
    assert (items["base_median"], items["head_median"], items["head_better_pairs"]) == (9.0, 9.5, 2)
    lines = tool.report("validate-20k", summary).splitlines()
    assert lines[0].startswith("validate-20k: ") and len(lines) == 3
    assert lines[1].split() == ["wall_s", "1.1000", "1.0000", "-9.09%", "0.1000", "2/3", "fails"]


def test_bench_pairs_marks_bounds_and_the_gain_rule():
    """A canned summary: a metric worse than its bound is marked, one within it is not, and the gain rule
    needs both nine tenths of the pairs and a median gap wider than the base IQR, in the metric's direction."""
    tool = _tool("bench_pairs")
    metrics = [*_METRICS, {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.00]  # median 1.0, IQR 0.02
    pairs = [
        ({"wall_s": b, "items_per_s": 100.0, "peak_rss_mb": 40.0},
         {"wall_s": h, "items_per_s": items, "peak_rss_mb": rss})
        for b, h, items, rss in zip(
            base,
            [0.90, 0.91, 0.89, 0.90, 0.92, 0.88, 0.90, 0.91, 1.05, 0.90],  # 9 of 10 better, median 0.90
            [101.0] * 9 + [99.0],  # 9 of 10 better, but by less than the base IQR of 0
            [42.2] * 10,  # 5.5% more: beyond a 5% bound
        )
    ]
    summary = tool.summarize(pairs, metrics)
    assert {name: (s["gain_rule"], s["beyond_bound"]) for name, s in summary.items()} == {
        "wall_s": (True, False), "items_per_s": (True, False), "peak_rss_mb": (False, True)}
    pairs[0][1]["wall_s"] = 1.01  # 8 of 10 better: the gap alone does not make a gain
    pairs[0][1]["items_per_s"] = 99.5
    summary = tool.summarize(pairs, metrics)
    assert (summary["wall_s"]["gain_rule"], summary["items_per_s"]["gain_rule"]) == (False, False)
    for head, beyond in [((1.3, 1.2), False), ((1.4, 1.3), True)]:  # +25% is at a 25% bound, +35% past it
        slower = tool.summarize([({"wall_s": 1.0}, {"wall_s": h}) for h in head], metrics[:1])
        assert (slower["wall_s"]["beyond_bound"], slower["wall_s"]["gain_rule"]) == (beyond, False)
    lines = tool.report("grades-deep", summary).splitlines()
    assert lines[0].endswith("pairs better, gain rule") and len(lines) == 4
    assert lines[1].split()[-2:] == ["8/10", "fails"]
    assert lines[3].endswith(" 0/10 fails  BEYOND-BOUND (worse by more than 5%)")


@pytest.mark.parametrize("name,argv,message", [
    ("bench_pairs", ["--base", "HEAD", "--workload", "grades-deep", "--pairs", "0"], "--pairs must be at least 1"),
    ("bench_pairs", ["--base", "no-such-revision", "--workload", "grades-deep"],
     "--base 'no-such-revision' names no commit"),
    ("bench_pairs", ["--base", "HEAD", "--workload", "no-such-workload"],
     "--workload 'no-such-workload' is not a workload of BENCHMARK.json"),
    ("cold_start", ["--base", "no-such-revision"], "--base 'no-such-revision' names no commit"),
], ids=["bench-pairs-no-pairs", "bench-pairs-unknown-base", "bench-pairs-unknown-workload", "cold-start-unknown-base"])
def test_comparing_tools_refuse_bad_arguments_before_writing_a_tree(name, argv, message, monkeypatch, capsys):
    """``tools/bench_pairs.py`` and ``tools/cold_start.py`` check ``--workload``, ``--pairs`` and ``--base``
    first, and exit 2 with one ``error:`` line, before they copy the working tree or extract a revision."""
    def no_tree(*args):
        raise AssertionError("a tree was written")

    monkeypatch.syspath_prepend(str(_ROOT / "tools"))  # cold_start imports bench_pairs by its top-level name
    tool = _tool(name)
    monkeypatch.setattr(tool, "extract", no_tree)
    monkeypatch.setattr(tool, "snapshot", no_tree)
    with pytest.raises(SystemExit) as exited:
        tool.main(argv)
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert (exited.value.code, len(errors)) == (2, 1)
    assert errors[0].endswith(f" error: {message}")


_ESTIMATE_STAGES = ["data_io.load_catalog", "data_io.load_curriculum", "data_io.csv_text", "data_io._write_text"]


@pytest.mark.parametrize("workload,scale,stages,calls", [
    ("validate-20k", "0.01",
     ["data_io.load_catalog", "data_io.load_curriculum", "data_io.load_grades", "data_io.load_bundle",
      "data_io.json_text", "data_io.render_report_json", "data_io.csv_text", "data_io._write_text",
      "data_io.write_plot_data", "data_io._write_text"], [1] * 10),
    ("estimate-50k", "0.01", _ESTIMATE_STAGES, [1, 1, 1, 1]),
    ("estimate-50k", "0.03", _ESTIMATE_STAGES, [1, 1, 3, 1]),  # 1,500 courses: three CSV batches of 512 rows
], ids=["validate-20k-stages0", "estimate-50k-stages1", "estimate-50k-batches"])
def test_stage_memory_prints_each_stage_of_a_small_workload(workload, scale, stages, calls):
    """``tools/stage_memory.py`` at a small scale: one line per run of consecutive returns of one loader,
    renderer or write, in the order they return, each with its traced current and peak MB and its count of
    returns, then the call's exit code and whole peak."""
    done = subprocess.run([sys.executable, str(_ROOT / "tools" / "stage_memory.py"), "--workload", workload,
                           "--seed", "1", "--scale", scale], capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    title, header, *lines, last = done.stdout.splitlines()
    assert (title, header.split()) == (f"call 0: {workload.split('-')[0]}", ["stage", "current_mb", "peak_mb", "calls"])
    assert [line.split()[0] for line in lines] == stages
    assert [int(line.split()[3]) for line in lines] == calls
    peaks = [float(line.split()[2]) for line in lines]
    assert all(float(line.split()[1]) >= 0 for line in lines) and min(peaks) > 0
    assert last.startswith("  exit 0, whole call peak ") and float(last.split()[-2]) >= max(peaks)


_SMALL_MODULE = """def sign(x):
    if x < 0:
        return -1
    return 1


def never():
    return 0
"""


def test_unreached_lines_names_each_executable_line_no_call_ran(tmp_path):
    """``tools/unreached_lines.py``'s line sets, on a module whose one call takes one branch."""
    tool = _tool("unreached_lines")
    module = tmp_path / "small.py"
    module.write_text(_SMALL_MODULE, encoding="utf-8")
    assert tool.executable_lines(compile(_SMALL_MODULE, str(module), "exec")) == {1, 2, 3, 4, 7, 8}
    before = sys.gettrace()
    with tool.reached_lines(tmp_path) as reached:
        spec = importlib.util.spec_from_file_location("small", module)
        small = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(small)
        assert small.sign(5) == 1
    assert sys.gettrace() is before
    assert {file for file, _ in reached} == {str(module.resolve())}  # importlib's frames ran outside the root
    assert tool.unreached(module, reached) == [3, 8]
