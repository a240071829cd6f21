import argparse
import contextlib
import csv
import dataclasses
import errno
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from course_difficulty import cli, data_io
from course_difficulty.cli import main
from course_difficulty.errors import ValidationError
from course_difficulty.engine import (
    CombinePolicy,
    Course,
    GenerationRecord,
    GradeHistory,
    bloom_difficulty,
    final_difficulty,
    grade_difficulty,
)
from course_difficulty.rounding import format_fixed, round_half_away
from course_difficulty.taxonomy import BloomLevel, canonical_catalog
from course_difficulty.validation import compare, summarize
from strategies import grade_maps, repeating_curricula, repeating_grade_maps

CATALOG = canonical_catalog()

GOLDEN_DIR = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestEstimate:
    def test_reference_curriculum_as_printed(self, fixture_dir, capsys):
        code, out, _ = run(
            capsys,
            "estimate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
            "--mode", "as-printed",
            "--format", "csv",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 11
        by_code = {r["course_code"]: r for r in rows}
        assert by_code["C3"]["difficulty_index"] == "4.4"
        assert by_code["C9"]["raw_total"] == "38"
        assert all(r["mode"] == "as-printed" for r in rows)

    def test_worked_example_raw_total(self, fixture_dir, capsys):
        code, out, _ = run(
            capsys,
            "estimate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "worked_example.csv"),
            "--format", "csv",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["raw_total"] == "39"

    def test_missing_curriculum_file_exits_2_with_no_output(self, fixture_dir, capsys):
        code, out, err = run(
            capsys,
            "estimate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "does_not_exist.csv"),
        )
        assert code == 2
        assert out == ""
        assert "does_not_exist.csv" in err

    def test_validation_problem_exits_1(self, fixture_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("course_code,title,criteria,overrides\nX1,,zz,\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "estimate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(bad),
        )
        assert code == 1
        assert out == ""
        assert "zz" in err

    def test_json_output(self, fixture_dir, capsys):
        code, out, _ = run(
            capsys,
            "estimate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "table2_canonical.csv"),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "canonical"
        assert payload["courses"][0] == {
            "course_code": "C1",
            "raw_total": 96,
            "criteria_count": 6,
            "max_total": 126,
            "difficulty_index": 3.8,
        }


class TestEstimateRubricPairs:
    """Rendering once per distinct ``(raw_total, max_total)`` pair reads the same as rendering every course."""

    @settings(max_examples=30, deadline=None)
    @given(repeating_curricula())
    def test_rows_match_per_course_rendering(self, courses):
        with tempfile.TemporaryDirectory() as tmp:
            catalog, curriculum = Path(tmp) / "catalog.json", Path(tmp) / "curriculum.csv"
            data_io.write_catalog(CATALOG, catalog)
            data_io.write_curriculum(courses, curriculum)
            for mode in ("canonical", "as-printed"):
                pairs = []
                for course in courses:
                    overrides = course.cell_overrides if mode == "as-printed" else {}
                    raw = sum(overrides.get(cid, CATALOG.rubrics[cid]) for cid in course.criteria)
                    pairs.append((course.code, raw, len(course.criteria)))
                outputs = {}
                for fmt in ("table", "csv", "json"):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        argv = ["estimate", "--catalog", str(catalog), "--curriculum", str(curriculum),
                                "--mode", mode, "--format", fmt]
                        assert main(argv) == 0
                    outputs[fmt] = out.getvalue()
                expected = [
                    [code, str(raw), str(count), str(21 * count), format_fixed(Fraction(5 * raw, 21 * count)), mode]
                    for code, raw, count in pairs
                ]
                assert list(csv.reader(io.StringIO(outputs["csv"])))[1:] == expected
                assert [line.split() for line in outputs["table"].splitlines()[2:]] == expected
                assert json.loads(outputs["json"])["courses"] == [
                    {"course_code": code, "raw_total": raw, "criteria_count": count, "max_total": 21 * count,
                     "difficulty_index": float(round_half_away(Fraction(5 * raw, 21 * count)))}
                    for code, raw, count in pairs
                ]

    @settings(max_examples=30, deadline=None)
    @given(repeating_curricula())
    def test_result_is_an_integer_record(self, courses):
        for course in courses:
            for variant in (course, course.without_overrides()):
                result = bloom_difficulty(variant, CATALOG)
                assert result.di == Fraction(5 * result.raw_total, result.max_total)
                assert (result.criteria_count, result.max_total) == (len(course.criteria), 21 * len(course.criteria))
                assert not hasattr(result, "__dict__")
                with pytest.raises(dataclasses.FrozenInstanceError):
                    result.raw_total = 0


class TestGrades:
    def test_reference_grades(self, fixture_dir, capsys):
        code, out, _ = run(
            capsys, "grades", "--grades", str(fixture_dir / "table3_grades.csv"), "--format", "csv"
        )
        assert code == 0
        rows = parse_csv(out)
        by_code = {r["course_code"]: r for r in rows}
        assert by_code["C4"]["grade_di"] == "4.2"
        assert by_code["C1"]["generation_1"] == "4.2"
        assert all(r["generation_count"] == "3" for r in rows)

    def test_single_generation_mean_is_itself(self, tmp_path, capsys):
        grades = tmp_path / "one.csv"
        grades.write_text(
            "course_code,generation,kind,value\nSOLO,only,di,3.7\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "grades", "--grades", str(grades), "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["grade_di"] == "3.7"
        assert rows[0]["generation_count"] == "1"

    def test_percent_average_converts_exactly(self, tmp_path, capsys):
        grades = tmp_path / "pct.csv"
        grades.write_text(
            "course_code,generation,kind,value\nDEMO,cohort,percent,35\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "grades", "--grades", str(grades), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        record = payload["courses"][0]
        assert record["generations"][0]["di"] == 3.25
        assert record["grade_di"] == 3.3  # 1-decimal reporting, ties away from zero

    @settings(max_examples=30, deadline=None)
    @given(repeating_grade_maps())
    def test_rows_match_per_record_rendering(self, grades):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.csv"
            data_io.write_grades(grades, path)
            outputs = {}
            for fmt in ("csv", "json"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["grades", "--grades", str(path), "--format", fmt]) == 0
                outputs[fmt] = out.getvalue()
        width = max(len(h.generations) for h in grades.values())
        expected = [
            [code, *(format_fixed(g.di()) for g in h.generations), *[""] * (width - len(h.generations)),
             str(len(h.generations)), format_fixed(grade_difficulty(h))]
            for code, h in grades.items()
        ]
        assert list(csv.reader(io.StringIO(outputs["csv"])))[1:] == expected
        courses = json.loads(outputs["json"])["courses"]
        assert [[(g["kind"], g["value"], g["di"]) for g in c["generations"]] for c in courses] == [
            [(g.kind.value, float(g.value), float(g.di())) for g in h.generations] for h in grades.values()
        ]
        means = [float(round_half_away(grade_difficulty(h))) for h in grades.values()]
        assert [c["grade_di"] for c in courses] == means


class TestValidate:
    def _args(self, fixture_dir, *extra):
        return [
            "validate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
            "--grades", str(fixture_dir / "table3_grades.csv"),
            "--mode", "as-printed",
            *extra,
        ]

    def test_average_row(self, fixture_dir, capsys):
        code, out, _ = run(capsys, *self._args(fixture_dir, "--format", "csv"))
        assert code == 0
        assert out.split("\n")[-2] == "AVERAGE,3.6,3.5,0.2"

    def test_accuracy_at_tolerance_0_3(self, fixture_dir, capsys):
        code, out, _ = run(
            capsys, *self._args(fixture_dir, "--tolerance", "0.3", "--format", "json")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["accuracy"] == 1.0
        assert payload["courses_within_tolerance"] == 11
        assert payload["mean_squared_error"] == pytest.approx(0.57 / 11)

    def test_final_difficulty_policies(self, fixture_dir, capsys):
        code, out, _ = run(capsys, *self._args(fixture_dir, "--format", "json"))
        by_code = {c["course_code"]: c for c in json.loads(out)["courses"]}
        assert by_code["C1"]["final_di"] == 3.8  # bloom-primary default

        code, out, _ = run(
            capsys, *self._args(fixture_dir, "--policy", "mean-of-both", "--format", "json")
        )
        by_code = {c["course_code"]: c for c in json.loads(out)["courses"]}
        assert by_code["C1"]["final_di"] == 3.9

    def test_csv_report_warns_that_it_has_no_final_di(self, fixture_dir, capsys):
        """The CSV report has no ``final_di`` column, so a non-default ``--policy`` says so on stderr."""
        _, default_out, default_err = run(capsys, *self._args(fixture_dir, "--format", "csv"))
        code, out, err = run(capsys, *self._args(fixture_dir, "--policy", "mean-of-both", "--format", "csv"))
        assert (code, out, default_err) == (0, default_out, "")
        assert err == (
            "warning: --policy mean-of-both has no effect on --format csv: the CSV report has no final_di column\n"
        )
        for fmt in ("table", "json"):  # they carry final_di
            assert run(capsys, *self._args(fixture_dir, "--policy", "mean-of-both", "--format", fmt))[2] == ""

    def test_missing_grades_warn_and_exclude(self, fixture_dir, tmp_path, capsys):
        partial = tmp_path / "partial.csv"
        lines = ["course_code,generation,kind,value"]
        for gen, value in (("g1", "4.2"), ("g2", "3.4"), ("g3", "4.4")):
            lines.append(f"C1,{gen},di,{value}")
        partial.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "validate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
            "--grades", str(partial),
            "--format", "json",
        )
        assert code == 0
        assert "warning" in err and "C2" in err
        payload = json.loads(out)
        assert payload["course_count"] == 1
        assert payload["excluded_courses"] == [f"C{i}" for i in range(2, 12)]

    def test_strict_missing_grades_exits_1(self, fixture_dir, tmp_path, capsys):
        partial = tmp_path / "partial.csv"
        partial.write_text(
            "course_code,generation,kind,value\nC1,g1,di,4.0\n", encoding="utf-8"
        )
        code, out, err = run(
            capsys,
            "validate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
            "--grades", str(partial),
            "--strict",
        )
        assert code == 1
        assert out == ""
        assert "C2" in err

    def test_no_graded_course_exits_1_naming_the_grades_file(self, fixture_dir, tmp_path, capsys):
        """With no course graded, the run fails at the grades file, in the CLI's terms, not the library's."""
        grades = tmp_path / "header_only.csv"
        grades.write_text("course_code,generation,kind,value\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "validate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
            "--grades", str(grades),
        )
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"error: {grades}: no course of the curriculum has a grade history"
        assert err.count("warning: no grade history for course") == 11

    def test_unmatched_grades_reported(self, fixture_dir, tmp_path, capsys):
        grades = tmp_path / "extra.csv"
        text = (fixture_dir / "table3_grades.csv").read_text(encoding="utf-8")
        grades.write_text(text + "GHOST,g1,di,2.0\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "validate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
            "--grades", str(grades),
        )
        assert code == 0
        assert "GHOST" in err

    def test_json_report(self, fixture_dir, capsys):
        code, out, _ = run(capsys, *self._args(fixture_dir, "--format", "json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_actual"] == 3.6
        assert payload["mean_estimated"] == 3.5
        assert payload["mean_abs_error"] == 0.2
        assert len(payload["courses"]) == payload["course_count"] == 11

    @pytest.mark.parametrize("failing", ["output", "plot"])
    def test_failed_write_leaves_no_file(self, fixture_dir, tmp_path, capsys, failing):
        plot, report = tmp_path / "plot.csv", tmp_path / "report.json"
        if failing == "output":
            report = tmp_path / "nodir" / "report.json"
        else:
            plot = tmp_path / "nodir" / "plot.csv"
        code, out, err = run(
            capsys,
            *self._args(fixture_dir, "--format", "json", "--plot-data", str(plot), "--output", str(report)),
        )
        assert code == 2
        assert out == ""
        assert "nodir" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grades", ["table3_grades.csv", "missing.csv"])
    def test_plot_data_and_output_as_one_file_exits_2(self, fixture_dir, tmp_path, capsys, monkeypatch, grades):
        """One file given as both outputs, in two spellings, is refused before any input is read
        (a missing grades file is not reported) and before anything is written."""
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        argv = self._args(fixture_dir, "--plot-data", "out.csv", "--output", str(tmp_path / "sub" / ".." / "out.csv"))
        argv[argv.index("--grades") + 1] = str(fixture_dir / grades)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --plot-data and --output name the same file: {tmp_path / 'sub' / '..' / 'out.csv'}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_plot_data_file(self, fixture_dir, tmp_path, capsys):
        plot = tmp_path / "plot.csv"
        code, _, _ = run(capsys, *self._args(fixture_dir, "--plot-data", str(plot)))
        assert code == 0
        lines = plot.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "course_code,actual_di,estimated_di"
        assert lines[11] == "C11,1.4,1.1"

    def test_full_precision_flag_changes_errors(self, fixture_dir, capsys):
        _, rounded_out, _ = run(capsys, *self._args(fixture_dir, "--format", "json"))
        _, full_out, _ = run(
            capsys, *self._args(fixture_dir, "--full-precision", "--format", "json")
        )
        rounded = json.loads(rounded_out)
        full = json.loads(full_out)
        c2_rounded = next(c for c in rounded["courses"] if c["course_code"] == "C2")
        c2_full = next(c for c in full["courses"] if c["course_code"] == "C2")
        assert c2_rounded["actual_di"] == 4.0
        assert c2_full["actual_di"] == pytest.approx(12.1 / 3)

    @pytest.mark.parametrize("text", ["1/3", "\u0660.\u0665", "1e-1", "nan", "0_5"])
    def test_tolerance_must_be_a_decimal_literal(self, fixture_dir, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(self._args(fixture_dir, "--tolerance", text))
        assert exc.value.code == 2
        assert "cannot parse tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("text,summary", [
        ("0.25", "accuracy: 0.636 at tolerance 0.25 (7/11 courses)"),
        ("0.04", "accuracy: 0.091 at tolerance 0.04 (1/11 courses)"),
        ("1", "accuracy: 1.000 at tolerance 1.0 (11/11 courses)"),
        ("5", "accuracy: 1.000 at tolerance 5.0 (11/11 courses)"),  # the largest error on the 0-5 scale
    ])
    def test_the_table_states_the_tolerance_it_used(self, fixture_dir, capsys, text, summary):
        """The summary gives the tolerance exactly, not rounded to the grid: one decimal at least."""
        code, out, _ = run(capsys, *self._args(fixture_dir, "--tolerance", text))
        assert code == 0
        assert out.splitlines()[-1] == summary

    @pytest.mark.parametrize("text", ["0", "5.1", "1" + "0" * 400], ids=["zero", "above-5", "401-digits"])
    def test_zero_tolerance_rejected_by_parser(self, fixture_dir, capsys, text):
        """A tolerance outside (0, 5] is refused as a usage error: above 5, the top of the scale every
        error lies on, it would count every course, and the JSON report's float of it could overflow."""
        with pytest.raises(SystemExit) as exc:
            main(self._args(fixture_dir, "--tolerance", text))
        assert exc.value.code == 2
        assert "argument --tolerance: must be above 0 and at most 5" in capsys.readouterr().err

    def test_modes_differ_only_on_overridden_courses(self, fixture_dir, capsys):
        _, printed_out, _ = run(capsys, *self._args(fixture_dir, "--format", "csv"))
        code, canonical_out, _ = run(
            capsys,
            "validate",
            "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
            "--grades", str(fixture_dir / "table3_grades.csv"),
            "--mode", "canonical",
            "--format", "csv",
        )
        assert code == 0
        printed = {r["course_code"]: r for r in parse_csv(printed_out)}
        canonical = {r["course_code"]: r for r in parse_csv(canonical_out)}
        differing = [
            code for code in printed
            if code != "AVERAGE" and printed[code] != canonical[code]
        ]
        assert differing == ["C8", "C11"]  # rounded DIs of C9/C10 coincide across modes


class TestValidatePairs:
    """Comparing, combining and rendering once per distinct value pair reads the same as doing it per course."""

    @staticmethod
    def _write_inputs(tmp, courses, grade_map):
        """The canonical catalog, the courses, and a grade file that gives every fifth course no history
        and hands the drawn histories out in turn, so that courses share their grade values."""
        histories = list(grade_map.values())
        graded = [c for i, c in enumerate(courses) if i % 5 != 4]
        grades = {c.code: GradeHistory(c.code, histories[i % len(histories)].generations) for i, c in enumerate(graded)}
        paths = {name: Path(tmp) / name for name in ("catalog.json", "curriculum.csv", "grades.csv")}
        data_io.write_catalog(CATALOG, paths["catalog.json"])
        data_io.write_curriculum(courses, paths["curriculum.csv"])
        data_io.write_grades(grades, paths["grades.csv"])
        return paths, graded, grades

    @staticmethod
    def _reference(graded, grades, mode, policy, exact):
        """Per course: ``compare`` and ``final_difficulty`` on values rounded (or not) one course at a time."""
        rounded = (lambda value: value) if exact else round_half_away
        entries = []
        for course in graded:
            actual = rounded(grade_difficulty(grades[course.code]))
            estimated = rounded(bloom_difficulty(course if mode == "as-printed" else course.without_overrides(),
                                                 CATALOG).di)
            entries.append((compare(actual, estimated, course.code),
                            final_difficulty(estimated, actual, cli._POLICIES[policy])))
        return entries

    @pytest.mark.parametrize("bound", [data_io._SHARED_LITERALS, 2], ids=["default-bound", "bound-2"])
    @settings(max_examples=15, deadline=None)
    @given(courses=repeating_curricula(), grade_map=repeating_grade_maps())
    def test_output_matches_per_course_reference(self, bound, courses, grade_map):
        # the policies looped over below are the --policy spellings, each naming the CombinePolicy member it maps to
        validate = cli.build_parser()._subparsers._group_actions[0].choices["validate"]
        flag = next(action for action in validate._actions if action.dest == "policy")
        assert (flag.choices, flag.default) == (("bloom-primary", "mean-of-both"), "bloom-primary")
        assert all(cli._POLICIES[choice] is CombinePolicy[choice.replace("-", "_").upper()] for choice in flag.choices)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data_io, "_SHARED_LITERALS", bound):
            paths, graded, grades = self._write_inputs(tmp, courses, grade_map)
            plot = Path(tmp) / "plot.csv"
            for mode, policy, exact in itertools.product(("canonical", "as-printed"), cli._POLICIES, (False, True)):
                entries = self._reference(graded, grades, mode, policy, exact)
                report = summarize([c for c, _ in entries])
                outputs = {}
                for fmt in ("table", "csv", "json"):
                    out = io.StringIO()
                    argv = ["validate", "--catalog", str(paths["catalog.json"]),
                            "--curriculum", str(paths["curriculum.csv"]), "--grades", str(paths["grades.csv"]),
                            "--mode", mode, "--policy", policy, "--format", fmt, "--plot-data", str(plot),
                            *(["--full-precision"] if exact else [])]
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        assert main(argv) == 0
                    outputs[fmt] = out.getvalue()
                    assert list(csv.reader(io.StringIO(plot.read_text(encoding="utf-8"))))[1:] == [
                        [c.course_code, format_fixed(c.actual_di), format_fixed(c.estimated_di)] for c, _ in entries
                    ]
                rows = [[c.course_code, format_fixed(c.actual_di), format_fixed(c.estimated_di),
                         format_fixed(c.abs_error)] for c, _ in entries]
                average = ["AVERAGE", *map(format_fixed, (report.mean_actual, report.mean_estimated,
                                                          report.mean_abs_error))]
                assert list(csv.reader(io.StringIO(outputs["csv"])))[1:] == [*rows, average]
                table = [line.split() for line in outputs["table"].splitlines()[2:2 + len(entries) + 1]]
                assert table == [*(row + [format_fixed(final)] for row, (_, final) in zip(rows, entries)), average]
                assert json.loads(outputs["json"])["courses"] == [
                    {"course_code": c.course_code, "actual_di": float(c.actual_di),
                     "estimated_di": float(c.estimated_di), "abs_error": float(c.abs_error),
                     "squared_error": float(c.squared_error), "final_di": float(final)}
                    for c, final in entries
                ]


class TestMapOutcomes:
    def test_thirteen_statements_golden(self, fixture_dir, capsys):
        code, out, _ = run(
            capsys,
            "map-outcomes",
            "--statements", str(fixture_dir / "outcome_statements.csv"),
            "--format", "json",
        )
        assert code == 0
        golden = (GOLDEN_DIR / "outcome_mapping_golden.json").read_text(encoding="utf-8")
        assert out == golden
        payload = json.loads(out)
        assert len(payload["statements"]) == 13

    def test_zero_match_statement_flagged(self, tmp_path, capsys):
        statements = tmp_path / "s.csv"
        statements.write_text(
            "criterion_id,text\nx1,broad education on global context\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys, "map-outcomes", "--statements", str(statements), "--format", "csv"
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["status"] == "needs-review"
        assert rows[0]["levels"] == ""
        assert rows[0]["draft_rubric"] == ""

    def test_empty_statements_file(self, tmp_path, capsys):
        statements = tmp_path / "s.csv"
        statements.write_text("criterion_id,text\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "map-outcomes", "--statements", str(statements), "--format", "csv"
        )
        assert code == 0
        assert parse_csv(out) == []

    def test_suffix_rule_flag(self, tmp_path, capsys):
        statements = tmp_path / "s.csv"
        statements.write_text(
            "criterion_id,text\nf,an understanding of professional responsibility\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys,
            "map-outcomes",
            "--statements", str(statements),
            "--suffix-rule",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["statements"][0]["levels"] == ["Understand"]

    def test_custom_lexicon(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.csv"
        verbs = ["recollect", "grasp", "wield", "dissect", "adjudge", "fashion"]
        rows = ["verb,levels"] + [f"{verb},{i + 1}" for i, verb in enumerate(verbs)]
        lexicon.write_text("\n".join(rows) + "\n", encoding="utf-8")
        statements = tmp_path / "s.csv"
        statements.write_text("criterion_id,text\nx,students adjudge results daily\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "map-outcomes",
            "--statements", str(statements),
            "--lexicon", str(lexicon),
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["statements"][0]["levels"] == ["Evaluate"]


    @pytest.mark.parametrize("suffix_rule", [False, True], ids=["exact", "suffix-rule"])
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_level_spellings_map_as_digits_do(self, fixture_dir, tmp_path, capsys, fmt, suffix_rule):
        """The shipped lexicon, its levels spelled by name, sign, leading zero and padding, maps byte for byte alike."""
        header, *rows = csv.reader(io.StringIO((fixture_dir / "default_lexicon.csv").read_text(encoding="utf-8")))
        spell = (lambda w: BloomLevel(w).name, lambda w: f" +{w}", lambda w: f"0{w}\t",
                 lambda w: BloomLevel(w).label.lower())
        respelled = [(verb, "|".join(spell[(i + j) % 4](int(t)) for j, t in enumerate(cell.split("|"))) + "|")
                     for i, (verb, cell) in enumerate(rows)]
        lexicon = tmp_path / "lex.csv"
        lexicon.write_text(data_io.csv_text(header, respelled), encoding="utf-8")
        argv = ["map-outcomes", "--statements", str(fixture_dir / "outcome_statements.csv"), "--format", fmt]
        argv += ["--suffix-rule"] if suffix_rule else []
        shipped = run(capsys, *argv)
        assert shipped[0] == 0 and run(capsys, *argv, "--lexicon", str(lexicon)) == shipped


class TestFixturesCommand:
    def test_writes_all_fixture_files(self, tmp_path, capsys):
        dest = tmp_path / "out"
        code, out, _ = run(capsys, "fixtures", str(dest))
        assert code == 0
        names = sorted(p.name for p in dest.iterdir())
        assert names == sorted(
            [
                "table1.json",
                "table2_asprinted.csv",
                "table2_canonical.csv",
                "table3_grades.csv",
                "worked_example.csv",
                "default_lexicon.csv",
                "outcome_statements.csv",
            ]
        )
        assert str(dest / "table1.json") in out
        for name in names:  # written back byte for byte
            assert (dest / name).read_bytes() == data_io.fixture_path(name).read_bytes()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_into_a_file_exits_2_naming_it(self, tmp_path, capsys, below):
        """The directory is made as every file is written: a failure is one located line."""
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n", encoding="utf-8")
        dest, reason = (blocker / "sub", "Not a directory") if below else (blocker, "File exists")
        code, out, err = run(capsys, "fixtures", str(dest))
        assert (code, out) == (2, "")
        assert err == f"error: {dest}: cannot write file: {reason}\n"
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("failing", ["directory", "full disk", "closed stdout", "full stdout"])
    def test_a_failed_write_leaves_no_fixture_file(self, tmp_path, monkeypatch, capsys, failing):
        """A fixture that cannot be written, a directory in its place or a disk that fills, takes back
        the files written before it, and a stdout that cannot take their list, closed or full, takes back
        the whole set: a failed run leaves no part of the set, and none of the directories it made, a
        nested new DEST too. A DEST that existed before the run stays, with its other files."""
        dest = tmp_path / "out"
        if failing.endswith("stdout"):
            stdout, line = (None, "stdout is closed") if failing == "closed stdout" else (
                _FullDevice(), f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}")
            if failing == "closed stdout":
                dest = dest / "x" / "y"
            else:
                dest.mkdir()
                (dest / "notes.txt").write_text("kept\n", encoding="utf-8")
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["fixtures", str(dest)]) == 2
            assert capsys.readouterr().err == f"error: {line}\n"
            if failing == "closed stdout":
                assert list(tmp_path.iterdir()) == []
            else:
                assert list(dest.iterdir()) == [dest / "notes.txt"]
                assert (dest / "notes.txt").read_text(encoding="utf-8") == "kept\n"
            return
        if failing == "directory":
            blocked, reason = dest / "table3_grades.csv", os.strerror(errno.EISDIR)
            blocked.mkdir(parents=True)
        else:
            blocked, reason = dest / "worked_example.csv", os.strerror(errno.ENOSPC)
            monkeypatch.setattr(data_io, "_SLICE", 10)
            monkeypatch.setattr(data_io, "open", lambda path, mode: (
                _FullDiskFile if _opens_output(path, blocked.name) else open)(path, mode), raising=False)
        code, out, err = run(capsys, "fixtures", str(dest))
        assert (code, out) == (2, "")
        assert err == f"error: {blocked}: cannot write file: {reason}\n"
        if failing == "directory":  # made before the run, so it stays
            assert list(dest.iterdir()) == [blocked]
        else:
            assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_two_runs_byte_identical(self, fixture_dir, tmp_path, capsys):
        outputs = []
        for name in ("one", "two"):
            out_file = tmp_path / f"{name}.json"
            plot_file = tmp_path / f"{name}_plot.csv"
            code = main(
                [
                    "validate",
                    "--catalog", str(fixture_dir / "table1.json"),
                    "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
                    "--grades", str(fixture_dir / "table3_grades.csv"),
                    "--mode", "as-printed",
                    "--format", "json",
                    "--output", str(out_file),
                    "--plot-data", str(plot_file),
                ]
            )
            assert code == 0
            outputs.append((out_file.read_bytes(), plot_file.read_bytes()))
        assert outputs[0] == outputs[1]
        capsys.readouterr()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["estimate"])  # required flags missing
    assert exc.value.code == 2


def test_help_renders_for_the_parser_and_each_subcommand(capsys):
    """argparse formats a help string only when it prints help, so a stray ``%`` in one fails here. No bytes
    are pinned, as argparse lays help out differently from one Python version to the next."""
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    for argv in ([], *([name] for name in commands)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()
    estimate, validate = (next(a.help for a in commands[name]._actions if a.dest == "mode")
                          for name in ("estimate", "validate"))
    assert estimate and estimate == validate


@pytest.mark.parametrize("command,loader", [("grades", "load_grades"), ("validate", "load_bundle")])
def test_internal_error_exits_70_on_one_line(command, loader, fixture_dir, tmp_path, monkeypatch, capsys):
    """A bug, which is neither bad input nor a failed read or write, exits 70 (``EX_SOFTWARE``)."""
    def broken(*args, **kwargs):
        raise RuntimeError("injected\nfault")

    monkeypatch.setattr(data_io, loader, broken)
    monkeypatch.chdir(fixture_dir)
    inputs = {
        "grades": ["--grades", "table3_grades.csv"],
        "validate": ["--catalog", "table1.json", "--curriculum", "table2_asprinted.csv",
                     "--grades", "table3_grades.csv", "--plot-data", str(tmp_path / "plot.csv")],
    }[command]
    code, out, err = run(capsys, command, *inputs, "--output", str(tmp_path / "out.txt"))
    assert code == 70
    assert out == ""
    assert err.splitlines() == ["error: internal: RuntimeError('injected\\nfault')"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case,expected", [("ok", 0), ("out-of-range", 1), ("missing", 2), ("usage", 2),
                                           ("fault", 70)])
def test_main_leaves_the_collector_as_it_found_it(case, expected, enabled, fixture_dir, tmp_path, monkeypatch,
                                                  capsys):
    """``main`` pauses the cyclic collector while a command runs and, on every exit, leaves it as it was:
    a caller that had switched it off finds it still off. A usage error exits before any command runs."""
    load = data_io.load_grades
    during = []  # gc.isenabled() inside the command

    def loading(path):
        during.append(gc.isenabled())
        if case == "fault":
            raise RuntimeError("injected fault")
        return load(path)

    monkeypatch.setattr(data_io, "load_grades", loading)
    (tmp_path / "bad.csv").write_text("course_code,generation,kind,value\nC1,g1,percent,135\n", encoding="utf-8")
    grades = {"ok": fixture_dir / "table3_grades.csv", "out-of-range": tmp_path / "bad.csv",
              "missing": tmp_path / "missing.csv", "fault": fixture_dir / "table3_grades.csv"}
    argv = ["grades"] if case == "usage" else ["grades", "--grades", str(grades[case])]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "usage":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            code = exc.value.code
        else:
            code = main(argv)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert (code, after, during) == (expected, enabled, [] if case == "usage" else [False])


def _write_synthetic_inputs(tmp_path, courses=3000, generations=3):
    """A curriculum of ``courses`` courses with long titles and 3-8 canonical criteria, a tenth of them with an
    override, and a grade file of ``generations`` records for each course, on the 0.1 grid; return the paths."""
    rng = random.Random(21)
    ids = sorted(CATALOG.criteria)
    curriculum, grades = ["course_code,title,criteria,overrides"], ["course_code,generation,kind,value"]
    for i in range(courses):
        criteria = rng.sample(ids, rng.randint(3, 8))
        override = f"{criteria[0]}:{rng.randint(1, 21)}" if i % 10 == 0 else ""
        title = f"Synthetic course {i} " + " ".join(rng.choice(("on", "data", "systems", "design")) for _ in range(60))
        curriculum.append(f"C{i:05d},{title},{'|'.join(criteria)},{override}")
        for g in range(1, generations + 1):
            kind, value = ("percent", rng.randint(300, 980)) if rng.random() < 0.5 else ("di", rng.randint(5, 48))
            grades.append(f"C{i:05d},G{g},{kind},{value // 10}.{value % 10}")
    paths = tmp_path / "curriculum.csv", tmp_path / "grades.csv"
    for path, lines in zip(paths, (curriculum, grades)):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


@pytest.mark.parametrize("command,loader,renderer", [
    ("validate", "load_bundle", "render_report_json"),
])
def test_rendering_starts_once_the_loaded_inputs_are_freed(command, loader, renderer, fixture_dir, tmp_path,
                                                           monkeypatch):
    """When ``validate`` starts rendering, no course, grade history or grade record it loaded is alive, and the
    traced memory is below its value right after loading, although the results have been built since: the
    courses' long titles, which no result holds, are gone. Reference counting alone frees the inputs, as the
    collector is paused."""
    curriculum, grades = _write_synthetic_inputs(tmp_path)
    kinds = {Course, GradeHistory, GenerationRecord}
    load, render = getattr(data_io, loader), getattr(data_io, renderer)
    seen = {}

    def loading(*args):
        loaded = load(*args)
        seen["loaded"] = tracemalloc.get_traced_memory()[0]
        return loaded

    def rendering(*args):
        seen["rendering"] = tracemalloc.get_traced_memory()[0]
        seen["alive"] = sum(type(o) in kinds for o in gc.get_objects())
        return render(*args)

    monkeypatch.setattr(data_io, loader, loading)
    monkeypatch.setattr(data_io, renderer, rendering)
    argv = [command, "--catalog", str(fixture_dir / "table1.json"), "--curriculum", str(curriculum),
            "--format", "csv" if command == "estimate" else "json", "--output", str(tmp_path / "out")]
    if command == "validate":
        argv += ["--grades", str(grades)]
    alive = sum(type(o) in kinds for o in gc.get_objects())
    tracemalloc.start()
    try:
        assert main(argv) == 0
    finally:
        tracemalloc.stop()
    assert seen["alive"] == alive
    assert seen["rendering"] < seen["loaded"], seen


def test_a_csv_estimate_peaks_within_a_slice_of_its_loaded_courses(fixture_dir, tmp_path, monkeypatch):
    """From the end of ``load_curriculum`` to the end of the run, the traced peak of a CSV ``estimate`` to
    ``--output`` stays within one slice's worth (``4 * _SLICE`` bytes: a slice of text at 4 bytes a character)
    of the traced memory right after loading. The rows are scored, rendered and written a batch at a time;
    no list of results or rows, and no text of the whole output, is held. The 20,000 courses cycle through
    12 criteria sets, so that the table of distinct rubric keys stays small."""
    rng = random.Random(31)
    ids = sorted(CATALOG.criteria)
    sets = [rng.sample(ids, rng.randint(3, 8)) for _ in range(12)]
    curriculum, output = tmp_path / "curriculum.csv", tmp_path / "out.csv"
    curriculum.write_text("course_code,title,criteria,overrides\n" + "".join(
        f"C{i:05d},,{'|'.join(sets[i % 12])},{f'{sets[i % 12][0]}:3' if i % 10 == 0 else ''}\n"
        for i in range(20_000)), encoding="utf-8")
    load, seen = data_io.load_curriculum, {}

    def loading(*args):
        loaded = load(*args)
        seen["loaded"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return loaded

    monkeypatch.setattr(data_io, "load_curriculum", loading)
    tracemalloc.start()
    try:
        assert main(["estimate", "--catalog", str(fixture_dir / "table1.json"), "--curriculum", str(curriculum),
                     "--format", "csv", "--output", str(output)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert output.read_text(encoding="utf-8").count("\n") == 20_001
    assert peak - seen["loaded"] <= 4 * data_io._SLICE, (peak, seen["loaded"])


class TestSharedRecordMeans:
    """A grade mean over the records ``load_grades`` shares among rows, each with the pair its constructor
    stored, equals the ``Fraction`` mean of the records' ``di()``, on histories whose records repeat and on
    histories of distinct records, below and past the loader's table bound."""

    @pytest.mark.parametrize("bound", [data_io._SHARED_LITERALS, 2], ids=["default-bound", "bound-2"])
    @settings(max_examples=40, deadline=None)
    @given(shared=repeating_grade_maps(), distinct=grade_maps())
    def test_loaded_mean_equals_the_fraction_mean(self, bound, shared, distinct):
        grades = {f"S{code}": GradeHistory(f"S{code}", h.generations) for code, h in shared.items()}
        grades |= {f"D{code}": GradeHistory(f"D{code}", h.generations) for code, h in distinct.items()}
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data_io, "_SHARED_LITERALS", bound):
            path = Path(tmp) / "grades.csv"
            data_io.write_grades(grades, path)
            loaded = data_io.load_grades(path)
        assert loaded == grades
        for history in loaded.values():
            values = [record.di() for record in history.generations]
            assert grade_difficulty(history) == sum(values, Fraction(0)) / len(values)


@pytest.mark.parametrize("command", ["estimate", "grades", "validate", "map-outcomes"])
def test_output_into_a_missing_directory_exits_2_naming_it(command, fixture_dir, tmp_path, capsys):
    """An ``--output`` write fails as a ``--plot-data`` write does, on one located line."""
    catalog, curriculum, grades = (
        fixture_dir / name for name in ("table1.json", "table2_asprinted.csv", "table3_grades.csv")
    )
    inputs = {
        "estimate": ["--catalog", catalog, "--curriculum", curriculum],
        "grades": ["--grades", grades],
        "validate": ["--catalog", catalog, "--curriculum", curriculum, "--grades", grades],
        "map-outcomes": ["--statements", fixture_dir / "outcome_statements.csv"],
    }[command]
    target = tmp_path / "nodir" / "out.txt"
    code, out, err = run(capsys, command, *map(str, inputs), "--output", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: {target}: cannot write file: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


class _FullDevice:
    """A stream whose every write fails as a write to a full disk does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_stdout_write_exits_2_on_one_line(fixture_dir, monkeypatch, capsys):
    monkeypatch.chdir(fixture_dir)
    with contextlib.redirect_stdout(_FullDevice()):
        code = main(["estimate", "--catalog", "table1.json", "--curriculum", "table2_asprinted.csv"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]


def test_a_closed_stdout_stream_exits_2_and_takes_back_the_plot_data(fixture_dir, tmp_path, monkeypatch, capsys):
    """A stdout stream closed in the process fails as a process started with its stdout closed does."""
    stdout, plot = io.StringIO(), tmp_path / "plot.csv"
    stdout.close()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.chdir(fixture_dir)
    assert main(["validate", "--catalog", "table1.json", "--curriculum", "table2_asprinted.csv",
                 "--grades", "table3_grades.csv", "--plot-data", str(plot)]) == 2
    assert capsys.readouterr().err == "error: stdout is closed\n"
    assert not plot.exists()


@pytest.mark.parametrize("command,fixture,input_flag,output_flag", [
    ("estimate", "table2_asprinted.csv", "--curriculum", "--output"),
    ("grades", "table3_grades.csv", "--grades", "--output"),
    ("validate", "table3_grades.csv", "--grades", "--plot-data"),
    ("map-outcomes", "outcome_statements.csv", "--statements", "--output"),
])
def test_an_output_that_names_an_input_exits_2(command, fixture, input_flag, output_flag, fixture_dir, tmp_path,
                                                monkeypatch, capsys):
    """An output given as an input's file, in another spelling, is refused before anything is read or written."""
    data = (fixture_dir / fixture).read_bytes()
    (tmp_path / "in.csv").write_bytes(data)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    others = {
        "estimate": ["--catalog", fixture_dir / "table1.json"],
        "validate": ["--catalog", fixture_dir / "table1.json", "--curriculum", fixture_dir / "table2_asprinted.csv"],
    }.get(command, [])
    code, out, err = run(capsys, command, *map(str, others), input_flag, "in.csv", output_flag, "sub/../in.csv")
    assert code == 2
    assert out == ""
    assert err == f"error: {input_flag} and {output_flag} name the same file: sub/../in.csv\n"
    assert (tmp_path / "in.csv").read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "sub"]


def test_inputs_may_name_one_file(tmp_path, capsys):
    """Only an output is checked against the other paths: one CSV may serve as statements and lexicon."""
    shared = tmp_path / "both.csv"
    verbs = ["recall", "explain", "apply", "analyze", "judge", "design"]
    shared.write_text("criterion_id,text,verb,levels\n"
                      + "".join(f"c{i},students {v} it,{v},{i + 1}\n" for i, v in enumerate(verbs)), encoding="utf-8")
    code, _, err = run(capsys, "map-outcomes", "--statements", str(shared), "--lexicon", str(shared),
                       "--format", "csv", "--output", str(tmp_path / "out.csv"))
    assert (code, err) == (0, "")
    assert len(parse_csv((tmp_path / "out.csv").read_text(encoding="utf-8"))) == len(verbs)


def _stdout_call(command, fixture_dir, tmp_path):
    """An argv list of ``command`` whose stdout output holds a non-ASCII character (U+00E9): a course code,
    a criterion id or the ``fixtures`` destination. Its inputs are written into ``tmp_path``, and its other
    outputs, ``validate``'s plot data and the ``fixtures`` directory, are named there."""
    (tmp_path / "cur.csv").write_text("course_code,title,criteria,overrides\nCé1,,a|b,\n", encoding="utf-8")
    (tmp_path / "grades.csv").write_text("course_code,generation,kind,value\nCé1,g1,di,3.0\n", encoding="utf-8")
    (tmp_path / "s.csv").write_text("criterion_id,text\ncé1,students list results\n", encoding="utf-8")
    bundle = ["--catalog", str(fixture_dir / "table1.json"), "--curriculum", str(tmp_path / "cur.csv")]
    return {
        "estimate": ["estimate", *bundle],
        "validate": ["validate", *bundle, "--grades", str(tmp_path / "grades.csv"),
                     "--plot-data", str(tmp_path / "plot.csv")],
        "grades": ["grades", "--grades", str(tmp_path / "grades.csv")],
        "map-outcomes": ["map-outcomes", "--statements", str(tmp_path / "s.csv")],
        "fixtures": ["fixtures", str(tmp_path / "dé" / "sub")],
    }[command]


STDOUT_COMMANDS = ["estimate", "validate", "grades", "map-outcomes", "fixtures"]


@pytest.mark.parametrize("command", STDOUT_COMMANDS)
def test_an_unencodable_stdout_exits_2_on_one_line_and_writes_nothing(command, fixture_dir, tmp_path, monkeypatch,
                                                                      capsys):
    """A stdout whose encoding cannot hold the output fails as a failed write does; a ``validate`` run
    removes the plot data it wrote, and a ``fixtures`` run its files and the directories it made."""
    argv = _stdout_call(command, fixture_dir, tmp_path)
    inputs = sorted(tmp_path.iterdir())
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer, encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(argv)
    stdout.flush()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 200
    assert err[0].startswith("error: stdout (ascii) cannot encode U+00E9 at position ")
    assert buffer.getvalue() == b""
    assert sorted(tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("command", STDOUT_COMMANDS)
def test_a_closed_stdout_exits_2_on_one_line(command, fixture_dir, tmp_path, monkeypatch, capsys):
    """A process started with its stdout closed has ``sys.stdout`` set to ``None``: writing to it fails as a
    failed stdout write does, and a ``validate`` or ``fixtures`` run removes the files it wrote."""
    argv = _stdout_call(command, fixture_dir, tmp_path)
    inputs = sorted(tmp_path.iterdir())
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: stdout is closed\n"
    assert sorted(tmp_path.iterdir()) == inputs


def _stderr_calls(fixture_dir, tmp_path):
    """An error run (exit 2, nothing on stdout) and a warning-only run (exit 0, its report on stdout)."""
    curriculum, grades = tmp_path / "cur.csv", tmp_path / "grades.csv"
    curriculum.write_text("course_code,title,criteria,overrides\nC1,,a,\nC2,,b,\n", encoding="utf-8")
    grades.write_text("course_code,generation,kind,value\nC1,g1,di,3.0\n", encoding="utf-8")
    return {
        "error": (["estimate", "--catalog", str(tmp_path / "nope.json"), "--curriculum", str(curriculum)], 2, ""),
        "warning": (["validate", "--format", "csv", "--catalog", str(fixture_dir / "table1.json"),
                     "--curriculum", str(curriculum), "--grades", str(grades)], 0,
                    "course_code,actual_di,estimated_di,abs_error\nC1,3.0,1.4,1.6\nAVERAGE,3.0,1.4,1.6\n"),
    }


@pytest.mark.parametrize("stderr", [None, _FullDevice()], ids=["closed", "failing"])
@pytest.mark.parametrize("path", ["error", "warning"])
def test_a_closed_or_failing_stderr_leaves_stdout_and_the_exit_code(path, stderr, fixture_dir, tmp_path, monkeypatch,
                                                                     capsys):
    """A diagnostic that cannot be written is dropped: it never goes to stdout, and the run exits as it
    would with a working stderr."""
    argv, code, out = _stderr_calls(fixture_dir, tmp_path)[path]
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(argv) == code
    assert capsys.readouterr().out == out


@pytest.mark.skipif(os.name != "posix", reason="closes fd 2 through a POSIX shell")
@pytest.mark.parametrize("path", ["error", "warning"])
def test_a_process_started_with_stderr_closed_keeps_its_stdout(path, fixture_dir, tmp_path):
    """Started with ``2>&-``, the interpreter sets ``sys.stderr`` to ``None``."""
    argv, code, out = _stderr_calls(fixture_dir, tmp_path)[path]
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(["sh", "-c", '"$@" 2>&-', "sh", sys.executable, "-m", "course_difficulty.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stdout) == (code, out)


@pytest.mark.skipif(not hasattr(os, "link"), reason="no hard links on this platform")
def test_an_output_that_is_a_hard_link_of_an_input_exits_2(fixture_dir, tmp_path, monkeypatch, capsys):
    """Paths that exist are compared by file identity, so a hard link of an input is refused as an output."""
    data = (fixture_dir / "table2_asprinted.csv").read_bytes()
    (tmp_path / "cur.csv").write_bytes(data)
    try:
        os.link(tmp_path / "cur.csv", tmp_path / "out.csv")
    except OSError as exc:
        pytest.skip(f"cannot make a hard link here: {exc}")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "estimate", "--catalog", str(fixture_dir / "table1.json"),
                         "--curriculum", "cur.csv", "--output", "out.csv")
    assert (code, out, err) == (2, "", "error: --curriculum and --output name the same file: out.csv\n")
    assert (tmp_path / "cur.csv").read_bytes() == data


def test_an_output_that_is_a_symlink_to_an_input_exits_2(fixture_dir, tmp_path, monkeypatch, capsys):
    """A symlink is followed to the file it names, so a link to an input is refused as an output."""
    data = (fixture_dir / "table2_asprinted.csv").read_bytes()
    (tmp_path / "cur.csv").write_bytes(data)
    try:
        (tmp_path / "out.csv").symlink_to("cur.csv")
    except OSError as exc:
        pytest.skip(f"cannot make a symlink here: {exc}")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "estimate", "--catalog", str(fixture_dir / "table1.json"),
                         "--curriculum", "cur.csv", "--output", "out.csv")
    assert (code, out, err) == (2, "", "error: --curriculum and --output name the same file: out.csv\n")
    assert (tmp_path / "cur.csv").read_bytes() == data
    assert (tmp_path / "out.csv").is_symlink()


class _FullDiskFile:
    """A binary file whose second write fails as a write to a full disk does."""

    def __init__(self, path, mode):
        self._file, self._writes = open(path, mode), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def write(self, data):
        self._writes += 1
        if self._writes == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._file.write(data)

    def flush(self):
        self._file.flush()


def _interrupted(path, mode):
    raise KeyboardInterrupt


def _opens_output(path, name):
    """Whether ``data_io`` opening ``path`` begins the output file named ``name``: the file itself, or the temp
    file beside it that replaces it once the run has succeeded."""
    opened = Path(path).name
    return opened == name or opened.startswith(f".{name}.")


@pytest.mark.parametrize("failing", ["out.json", "plot.csv", "out.json interrupted"])
def test_a_failed_write_leaves_no_partial_file(failing, fixture_dir, tmp_path, monkeypatch, capsys):
    """A write that fails after its first slice removes the file it began; ``validate`` then removes its
    plot data too, so the failed run leaves no output file. A run interrupted as it opens its report
    (``KeyboardInterrupt``) takes back its plot data the same way, and the interrupt goes on."""
    name, _, interrupted = failing.partition(" ")
    monkeypatch.setattr(data_io, "_SLICE", 100)
    monkeypatch.setattr(data_io, "open", lambda path, mode: (
        (_interrupted if interrupted else _FullDiskFile) if _opens_output(path, name) else open)(path, mode),
        raising=False)
    monkeypatch.chdir(tmp_path)
    argv = ["validate", "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
            "--grades", str(fixture_dir / "table3_grades.csv"),
            "--format", "json", "--output", "out.json", "--plot-data", "plot.csv"]
    if interrupted:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert list(tmp_path.iterdir()) == []
        return
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {failing}: cannot write file: {os.strerror(errno.ENOSPC)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_failed_write_leaves_a_fifo_in_place(fixture_dir, tmp_path, monkeypatch, capsys):
    """Only a regular file is removed after a failed write: an output that is a FIFO, like ``/dev/stdout``,
    stays."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = threading.Thread(target=fifo.read_bytes, daemon=True)  # blocks until the run opens the FIFO
    reader.start()
    monkeypatch.setattr(data_io, "_SLICE", 100)
    monkeypatch.setattr(data_io, "open", _FullDiskFile, raising=False)
    code, _, err = run(capsys, "estimate", "--catalog", str(fixture_dir / "table1.json"),
                       "--curriculum", str(fixture_dir / "table2_asprinted.csv"), "--output", str(fifo))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert (code, err) == (2, f"error: {fifo}: cannot write file: {os.strerror(errno.ENOSPC)}\n")
    assert fifo.is_fifo()


@pytest.mark.parametrize("plot_kind", [
    "link to a file",
    pytest.param("fifo", marks=pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")),
    "link to /dev/null",
])
def test_a_failed_report_takes_back_the_plot_data_as_a_failed_write_would(plot_kind, fixture_dir, tmp_path, capsys):
    """After a failed report write, ``validate`` removes its plot data by the one rule: the file the path
    resolves to goes if it is a regular file, while the link itself, a FIFO or ``/dev/null`` stays."""
    plot, target = tmp_path / "plot.csv", tmp_path / "target.csv"
    reader = None
    if plot_kind == "fifo":
        os.mkfifo(plot)
        reader = threading.Thread(target=plot.read_bytes, daemon=True)  # blocks until the run opens the FIFO
        reader.start()
    else:
        try:
            plot.symlink_to(target if plot_kind == "link to a file" else os.devnull)
        except OSError as exc:
            pytest.skip(f"cannot make a symlink here: {exc}")
    report = tmp_path / "nodir" / "report.json"
    code, out, err = run(capsys, "validate", "--catalog", str(fixture_dir / "table1.json"),
                         "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
                         "--grades", str(fixture_dir / "table3_grades.csv"),
                         "--format", "json", "--output", str(report), "--plot-data", str(plot))
    if reader is not None:
        reader.join(timeout=10)
        assert not reader.is_alive()
    assert (code, out) == (2, "")
    assert err == f"error: {report}: cannot write file: {os.strerror(errno.ENOENT)}\n"
    assert plot.is_fifo() if plot_kind == "fifo" else plot.is_symlink()
    assert not target.exists()


def _estimate_argv(fixture_dir, *more):
    return ["estimate", "--catalog", str(fixture_dir / "table1.json"),
            "--curriculum", str(fixture_dir / "table2_asprinted.csv"), *more]


def _failing_call(after):
    """A stand-in for ``cli.bloom_difficulty`` that raises a ``ValidationError`` at its call number ``after``."""
    calls = itertools.count(1)

    def scored(course, catalog):
        if next(calls) == after:
            raise ValidationError("the run failed partway")
        return bloom_difficulty(course, catalog)

    return scored


@pytest.mark.parametrize("failing", ["full disk", "error after five rows"])
def test_a_run_that_fails_while_writing_keeps_the_old_output_and_leaves_no_temp_file(failing, fixture_dir, tmp_path,
                                                                                      monkeypatch, capsys):
    """An ``--output`` that existed before the run keeps its bytes and its permission bits when the run fails
    partway through writing it, at the disk or in the rows it is writing, and no temp file is left beside it."""
    target = tmp_path / "out.csv"
    target.write_bytes(b"old bytes\n")
    target.chmod(0o640)
    monkeypatch.setattr(data_io, "_SLICE", 128)  # a row a batch, each written before the next is made
    if failing == "full disk":
        monkeypatch.setattr(data_io, "open", lambda path, mode: (
            _FullDiskFile if _opens_output(path, "out.csv") else open)(path, mode), raising=False)
        expected = (2, f"error: {target}: cannot write file: {os.strerror(errno.ENOSPC)}\n")
    else:
        monkeypatch.setattr(cli, "bloom_difficulty", _failing_call(after=5))
        expected = (1, "error: the run failed partway\n")
    code, out, err = run(capsys, *_estimate_argv(fixture_dir, "--format", "csv", "--output", str(target)))
    assert (code, err, out) == (*expected, "")
    assert target.read_bytes() == b"old bytes\n"
    assert target.stat().st_mode & 0o777 == 0o640
    assert list(tmp_path.iterdir()) == [target]


def test_a_run_replaces_an_old_output_keeping_its_permission_bits(fixture_dir, tmp_path, capsys):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old bytes\n")
    target.chmod(0o604)
    code, out, err = run(capsys, *_estimate_argv(fixture_dir, "--format", "csv", "--output", str(target)))
    assert (code, out, err) == (0, "", "")
    _, expected, _ = run(capsys, *_estimate_argv(fixture_dir, "--format", "csv"))
    assert target.read_bytes() == expected.encode("utf-8")
    assert target.stat().st_mode & 0o777 == 0o604
    assert list(tmp_path.iterdir()) == [target]


def test_an_output_whose_name_is_255_bytes_long_is_written(fixture_dir, tmp_path, capsys):
    """The temp file beside the output takes only the start of the output's name, so the longest name a
    file may have is still written, and no temp file is left."""
    if os.pathconf(tmp_path, "PC_NAME_MAX") < 255:
        pytest.skip("this file system allows shorter names")
    target = tmp_path / ("é" * 125 + "x.csv")  # 255 bytes in UTF-8
    code, out, err = run(capsys, *_estimate_argv(fixture_dir, "--format", "csv", "--output", str(target)))
    assert (code, out, err) == (0, "", "")
    _, expected, _ = run(capsys, *_estimate_argv(fixture_dir, "--format", "csv"))
    assert target.read_bytes() == expected.encode("utf-8")
    assert list(tmp_path.iterdir()) == [target]


def test_a_read_only_output_is_refused_and_kept(fixture_dir, tmp_path, monkeypatch, capsys):
    """A regular file the run may not write is not replaced, although its directory is writable: the run
    exits 2 as an in-place write to it would."""
    target = tmp_path / "out.csv"
    target.write_bytes(b"old bytes\n")
    monkeypatch.setattr(data_io.os, "access", lambda path, mode: os.path.realpath(path) != str(target))
    code, out, err = run(capsys, *_estimate_argv(fixture_dir, "--output", str(target)))
    assert (code, out, err) == (2, "", f"error: {target}: cannot write file: {os.strerror(errno.EACCES)}\n")
    assert target.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [target]


def test_a_failed_report_write_keeps_both_old_validate_outputs(fixture_dir, tmp_path, monkeypatch, capsys):
    """``validate`` writes its plot data, then its report; when the report's write fails, neither lands: the
    plot data and the report that were there before keep their bytes, and no temp file is left."""
    plot, report = tmp_path / "plot.csv", tmp_path / "report.json"
    plot.write_bytes(b"old plot\n")
    report.write_bytes(b"old report\n")
    monkeypatch.setattr(data_io, "_SLICE", 100)
    monkeypatch.setattr(data_io, "open", lambda path, mode: (
        _FullDiskFile if _opens_output(path, "report.json") else open)(path, mode), raising=False)
    code, out, err = run(capsys, "validate", "--catalog", str(fixture_dir / "table1.json"),
                         "--curriculum", str(fixture_dir / "table2_asprinted.csv"),
                         "--grades", str(fixture_dir / "table3_grades.csv"),
                         "--format", "json", "--plot-data", str(plot), "--output", str(report))
    assert (code, out, err) == (2, "", f"error: {report}: cannot write file: {os.strerror(errno.ENOSPC)}\n")
    assert (plot.read_bytes(), report.read_bytes()) == (b"old plot\n", b"old report\n")
    assert sorted(tmp_path.iterdir()) == [plot, report]


def test_a_symlinked_output_replaces_the_file_it_names_and_stays_a_link(fixture_dir, tmp_path, capsys):
    (tmp_path / "real").mkdir()
    target, link = tmp_path / "real" / "target.csv", tmp_path / "out.csv"
    target.write_bytes(b"old bytes\n")
    try:
        link.symlink_to(target)
    except OSError as exc:
        pytest.skip(f"cannot make a symlink here: {exc}")
    _, expected, _ = run(capsys, *_estimate_argv(fixture_dir, "--format", "csv"))
    code, out, err = run(capsys, *_estimate_argv(fixture_dir, "--format", "csv", "--output", str(link)))
    assert (code, out, err) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == expected.encode("utf-8")
    assert sorted(tmp_path.rglob("*")) == [link, tmp_path / "real", target]


class TestBatchedCsv:
    """``estimate`` and ``grades`` make, render and write their CSV rows a batch at a time. With batches of
    a row or a few, the file written to ``--output`` is byte for byte what stdout gets, and what one
    ``csv_text`` call over every row gives, as the golden corpus, captured before the rows were batched, holds."""

    @pytest.mark.parametrize("size", [128, 384], ids=["1-row-batches", "3-row-batches"])
    @pytest.mark.parametrize("case", [
        "estimate-canonical-csv", "estimate-as-printed-csv", "estimate-json-input-csv",
        "estimate-synthetic-canonical-csv", "estimate-synthetic-as-printed-csv",
        "grades-csv", "grades-json-input-csv", "grades-synthetic-csv",
    ])
    def test_golden_cases_write_the_golden_bytes(self, case, size, tmp_path, monkeypatch):
        from test_golden import CASES, GOLDEN, run_case

        argv, _ = CASES[case]
        golden = (GOLDEN / f"{case}.stdout").read_bytes()
        monkeypatch.setattr(data_io, "_SLICE", size)
        code, out, err, _ = run_case(argv, tmp_path / "stdout")
        assert (code, out.encode("utf-8"), err) == (0, golden, "")
        assert run_case([*argv, "--output", "out.csv"], tmp_path / "file") == (0, "", "", {"out.csv": golden})

    @pytest.mark.parametrize("command", ["estimate", "grades"])
    @settings(max_examples=30, deadline=None)
    @given(courses=repeating_curricula(), grades=grade_maps(), code=st.sampled_from(["K,x", 'K"x', "K\nx"]))
    def test_a_code_to_quote_in_a_later_batch_only(self, command, courses, grades, code):
        """The last row's code needs quoting, and no row of the batches before it does: that batch goes to
        ``csv.writer``, and the text is still what one ``csv_text`` call over every row gives."""
        with tempfile.TemporaryDirectory() as tmp:
            path, output = Path(tmp) / "input.csv", Path(tmp) / "out.csv"
            if command == "estimate":
                data_io.write_curriculum([*courses, Course(code, ("a", "b"))], path)
                argv = ["estimate", "--catalog", str(data_io.fixture_path("table1.json")), "--curriculum", str(path),
                        "--format", "csv"]
            else:
                history = next(iter(grades.values()))
                data_io.write_grades({**grades, code: GradeHistory(code, history.generations)}, path)
                argv = ["grades", "--grades", str(path), "--format", "csv"]
            whole = io.StringIO()
            with contextlib.redirect_stdout(whole):
                assert main(argv) == 0  # fewer rows than one batch of the default size: one csv_text call
            before, quoted, _ = whole.getvalue().partition('"K')
            assert quoted and '"' not in before  # only the last row is quoted
            with mock.patch.object(data_io, "_SLICE", 128):  # a row a batch
                batched = io.StringIO()
                with contextlib.redirect_stdout(batched):
                    assert main(argv) == 0
                assert main([*argv, "--output", str(output)]) == 0
            assert batched.getvalue() == whole.getvalue()
            assert output.read_bytes() == whole.getvalue().encode("utf-8")


class TestOneProcess:
    """``main`` reuses one parser and one shipped lexicon per process; no call's flags or inputs reach the next."""

    def _calls(self, fixture_dir, tmp_path):
        partial = tmp_path / "partial.csv"
        partial.write_text("course_code,generation,kind,value\nC1,g1,di,4.0\n", encoding="utf-8")
        lexicon = tmp_path / "lex.csv"
        verbs = ["recollect", "grasp", "wield", "dissect", "adjudge", "fashion"]
        lexicon.write_text("verb,levels\n" + "".join(f"{v},{i + 1}\n" for i, v in enumerate(verbs)), encoding="utf-8")
        statements = tmp_path / "s.csv"
        statements.write_text("criterion_id,text\nx,students adjudge and list results\n", encoding="utf-8")
        bundle = ["--catalog", str(fixture_dir / "table1.json"),
                  "--curriculum", str(fixture_dir / "table2_asprinted.csv")]
        calls = [
            ["validate", *bundle, "--grades", str(partial), "--strict"],
            ["validate", *bundle, "--grades", str(partial)],
            ["map-outcomes", "--statements", str(statements), "--lexicon", str(lexicon)],
            ["map-outcomes", "--statements", str(statements)],
        ]
        for fmt in ("table", "csv", "json"):
            calls += [
                ["estimate", *bundle, "--mode", "as-printed", "--format", fmt],
                ["estimate", *bundle, "--format", fmt],
                ["grades", "--grades", str(fixture_dir / "table3_grades.csv"), "--format", fmt],
                ["validate", *bundle, "--grades", str(fixture_dir / "table3_grades.csv"), "--format", fmt,
                 "--policy", "mean-of-both", "--full-precision"],
                ["validate", *bundle, "--grades", str(fixture_dir / "table3_grades.csv"), "--format", fmt],
                ["map-outcomes", "--statements", str(fixture_dir / "outcome_statements.csv"), "--format", fmt,
                 "--suffix-rule"],
                ["map-outcomes", "--statements", str(fixture_dir / "outcome_statements.csv"), "--format", fmt],
            ]
        return calls

    def test_each_call_matches_a_fresh_process(self, fixture_dir, tmp_path, capsys):
        """The calls run here in order, and in a new interpreter in reverse order:
        a call whose output depends on an earlier one differs between the two."""
        calls = self._calls(fixture_dir, tmp_path)
        in_sequence = [list(run(capsys, *argv)) for argv in calls]
        assert [code for code, _, _ in in_sequence[:2]] == [1, 0]
        src = Path(cli.__file__).resolve().parents[1]
        fresh = subprocess.run(
            [sys.executable, "-c", _RUN_CALLS], input=json.dumps(calls[::-1]), capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        assert json.loads(fresh.stdout)[::-1] == in_sequence

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


# Runs each JSON argv list read from stdin through ``main``; prints [exit code, stdout, stderr] per call.
_RUN_CALLS = """
import contextlib, io, json, sys
from course_difficulty.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results.append([main(argv), out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""
