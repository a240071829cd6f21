import csv
import hashlib
import io
import json
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from course_difficulty import data_io, taxonomy
from course_difficulty.cli import main
from course_difficulty.engine import (
    CombinePolicy,
    GenerationRecord,
    GradeHistory,
    GradeKind,
    course_raw_total,
    final_difficulty,
)
from course_difficulty.errors import (
    DataFormatError,
    InsufficientDataError,
    InvalidGradeError,
    UnresolvedCriterionError,
    ValidationError,
)
from course_difficulty.rounding import round_half_away
from course_difficulty.taxonomy import BloomLevel, canonical_catalog
from course_difficulty.validation import compare, summarize


def _write(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    return path


class TestLoadCatalog:
    def test_shipped_catalog(self, fixture_dir):
        catalog = data_io.load_catalog(fixture_dir / "table1.json")
        assert len(catalog) == 13
        assert sum(sum(l.weight for l in c.levels) for c in catalog.criteria.values()) == 157
        assert catalog.provenance == "table1-canonical"

    def test_csv_catalog(self, tmp_path):
        path = _write(tmp_path / "cat.csv", "id,description,levels\na,text,1|2|3\n")
        catalog = data_io.load_catalog(path)
        assert catalog["a"].levels == frozenset({BloomLevel.REMEMBER, BloomLevel.UNDERSTAND, BloomLevel.APPLY})

    def test_level_names_accepted(self, tmp_path):
        path = _write(tmp_path / "cat.csv", "id,description,levels\na,text,Remember|Create\n")
        assert data_io.load_catalog(path)["a"].levels == frozenset({BloomLevel.REMEMBER, BloomLevel.CREATE})

    def test_level_out_of_range(self, tmp_path):
        path = _write(tmp_path / "cat.csv", "id,description,levels\na,text,7\n")
        with pytest.raises(ValidationError, match="out of range"):
            data_io.load_catalog(path)

    def test_duplicate_id(self, tmp_path):
        path = _write(tmp_path / "cat.csv", "id,description,levels\na,one,1\na,two,2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            data_io.load_catalog(path)

    def test_duplicate_id_is_named_at_its_own_line(self, tmp_path):
        """The duplicate is reported before a later row is read, even a malformed one."""
        path = _write(tmp_path / "cat.csv", "id,description,levels\na,one,1\nb,two,2\n a ,three,3\nc,bad,x7\n")
        with pytest.raises(ValidationError) as exc:
            data_io.load_catalog(path)
        assert str(exc.value) == f"{path}:4: duplicate criterion id 'a'"

    def test_unparseable_level_has_line_diagnostic(self, tmp_path):
        for cell in ("x7", "1|\u00b2"):  # superscript two passes str.isdigit but is no ASCII digit
            path = _write(tmp_path / "cat.csv", f"id,description,levels\na,ok,1\nb,bad,{cell}\n")
            with pytest.raises(DataFormatError) as exc:
                data_io.load_catalog(path)
            assert "cat.csv:3" in str(exc.value)

    def test_empty_levels_cell_is_invalid_criterion(self, tmp_path):
        from course_difficulty.errors import InvalidCriterionError

        path = _write(tmp_path / "cat.csv", "id,description,levels\na,text,\n")
        with pytest.raises(InvalidCriterionError):
            data_io.load_catalog(path)

    def test_row_with_extra_fields_rejected(self, tmp_path):
        path = _write(tmp_path / "cat.csv", "id,description,levels\na,text,1,surplus\n")
        with pytest.raises(DataFormatError, match="more fields"):
            data_io.load_catalog(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            data_io.load_catalog(tmp_path / "nope.csv")

    def test_missing_header_column(self, tmp_path):
        path = _write(tmp_path / "cat.csv", "id,levels\na,1\n")
        with pytest.raises(DataFormatError, match="description"):
            data_io.load_catalog(path)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "cat.csv", "")
        with pytest.raises(DataFormatError, match="header"):
            data_io.load_catalog(path)


def _levels_by_token(cell, owner, name):
    """``taxonomy._levels`` as every token through ``BloomLevel.from_token``, the path its table replaces."""
    levels = [BloomLevel.from_token(t) for t in cell.split("|") if t.strip()]
    for i, level in enumerate(levels):
        if level in levels[:i]:
            raise ValidationError(f"{owner} {name!r} lists level {level.weight} more than once")
    return frozenset(levels)


def _outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _any_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(word, upper)))


LEVEL_TOKENS = st.tuples(
    st.sampled_from(["", " ", "\t"]),
    st.one_of(
        st.sampled_from(["1", "2", "3", "4", "5", "6"]),
        st.sampled_from(["", "0", "7", "+3", "-2", "03", "006", "x", "1.0", "\u00b2", "APPLY X"]),
        st.sampled_from([level.name for level in BloomLevel] + ["Reason"]).flatmap(_any_case),
    ),
    st.sampled_from(["", " "]),
).map("".join)


class TestLevelCells:
    @settings(max_examples=200)
    @given(st.lists(LEVEL_TOKENS, max_size=5).map("|".join))
    @example("1|2|3")
    @example("1||3")
    @example("apply|3")
    @example("")
    def test_table_read_matches_the_token_path(self, cell):
        """A cell reads as every token through ``from_token`` would read it, or fails with the same error."""
        expected = _outcome(_levels_by_token, cell, "criterion", "a")
        assert _outcome(taxonomy._levels, cell, "criterion", "a") == expected

    @pytest.mark.parametrize("name,text,message", [
        ("cat.csv", "id,description,levels\nb,ok,2\na,x,1|1|3\n", "3: criterion 'a' lists level 1 more than once"),
        ("cat.csv", "id,description,levels\na,x,Apply| 3 |+1\n", "2: criterion 'a' lists level 3 more than once"),
        ("cat.json", '{"criteria": [{"id": "a", "levels": [1, 1, 3]}]}',
         "criteria[0]: criterion 'a' lists level 1 more than once"),
        ("lex.csv", "verb,levels\nlist,1\n Analyze ,4|4\n", "3: verb 'Analyze' lists level 4 more than once"),
        ("lex.json", '{"verbs": [{"verb": "judge", "levels": ["evaluate", 5]}]}',
         "verbs[0]: verb 'judge' lists level 5 more than once"),
    ], ids=["catalog-csv", "catalog-csv-spellings", "catalog-json", "lexicon-csv", "lexicon-json"])
    def test_a_level_listed_twice_is_refused(self, tmp_path, capsys, fixture_dir, name, text, message):
        """A repeated level would load as one and write back as one: it is refused, naming the level and the record."""
        path = _write(tmp_path / name, text)
        load = data_io.load_catalog if name.startswith("cat") else data_io.load_lexicon
        with pytest.raises(ValidationError) as exc:
            load(path)
        assert str(exc.value) == f"{path}:{message}"
        if name.startswith("cat"):
            argv = ["estimate", "--catalog", str(path), "--curriculum", str(fixture_dir / "worked_example.csv")]
        else:
            argv = ["map-outcomes", "--statements", str(fixture_dir / "outcome_statements.csv"), "--lexicon", str(path)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")

    def test_blank_tokens_are_skipped(self, tmp_path):
        path = _write(tmp_path / "cat.csv", "id,description,levels\na,x,1|| 3|\n")
        catalog = data_io.load_catalog(path)
        assert catalog["a"].levels == {BloomLevel.REMEMBER, BloomLevel.APPLY}
        data_io.write_catalog(catalog, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_text(encoding="utf-8") == "id,description,levels\na,x,1|3\n"


@pytest.mark.parametrize("name,text,message", [
    ("lex.csv", "verb,levels\nanalyze,4\nAnalyze ,5\n", "3: verb 'Analyze' is given more than once"),
    ("lex.csv", "verb,levels\nlist,1\njudge,5\n List ,1\n", "4: verb 'List' is given more than once"),
    ("lex.json", '{"verbs": [{"verb": "analyze", "levels": [4]}, {"verb": " ANALYZE", "levels": [4, 5]}]}',
     "verbs[1]: verb 'ANALYZE' is given more than once"),
], ids=["csv-other-level", "csv-same-level", "json"])
def test_a_verb_given_twice_is_refused(tmp_path, capsys, fixture_dir, name, text, message):
    """Rows of one verb would load as one row and write back as one: the second is refused, naming it."""
    path = _write(tmp_path / name, text)
    with pytest.raises(ValidationError) as exc:
        data_io.load_lexicon(path)
    assert str(exc.value) == f"{path}:{message}"
    argv = ["map-outcomes", "--statements", str(fixture_dir / "outcome_statements.csv"), "--lexicon", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


class TestLoadCurriculum:
    def test_shipped_reference_curriculum(self, catalog, fixture_dir):
        courses = data_io.load_curriculum(fixture_dir / "table2_asprinted.csv", catalog)
        assert len(courses) == 11
        assert courses[0].code == "C1"
        assert courses[0].criteria == ("a", "b", "e", "i", "k", "l")
        by_code = {c.code: c for c in courses}
        assert by_code["C9"].cell_overrides == {"h": 5}
        assert by_code["C8"].cell_overrides == {"j": 6}

    def test_unknown_criterion(self, catalog, tmp_path):
        path = _write(tmp_path / "cur.csv", "course_code,title,criteria,overrides\nX1,,a|z,\n")
        with pytest.raises(UnresolvedCriterionError, match="'z'.*X1"):
            data_io.load_curriculum(path, catalog)

    def test_empty_criteria(self, catalog, tmp_path):
        path = _write(tmp_path / "cur.csv", "course_code,title,criteria,overrides\nX1,,,\n")
        with pytest.raises(ValidationError, match="no criteria"):
            data_io.load_curriculum(path, catalog)

    def test_worked_example_flows_to_raw_total(self, catalog, fixture_dir):
        courses = data_io.load_curriculum(fixture_dir / "worked_example.csv", catalog)
        assert len(courses) == 1
        assert course_raw_total(courses[0], catalog) == 39

    def test_malformed_override_pair(self, catalog, tmp_path):
        path = _write(tmp_path / "cur.csv", "course_code,title,criteria,overrides\nX1,,a,a=5\n")
        with pytest.raises(DataFormatError, match="id:points"):
            data_io.load_curriculum(path, catalog)

    def test_blank_line_between_rows_loads_the_same_courses(self, catalog, tmp_path):
        rows = "course_code,title,criteria,overrides\nX1,,a,\n{}X2,,b|c,c:5\n"
        plain = data_io.load_curriculum(_write(tmp_path / "plain.csv", rows.format("")), catalog)
        assert data_io.load_curriculum(_write(tmp_path / "blank.csv", rows.format("\n")), catalog) == plain
        assert len(plain) == 2

    def test_error_after_a_blank_line_names_its_own_line(self, catalog, tmp_path):
        path = _write(tmp_path / "cur.csv", "course_code,title,criteria,overrides\nX1,,a,\n\nX2,,zz,\n")
        with pytest.raises(UnresolvedCriterionError) as exc:
            data_io.load_curriculum(path, catalog)
        assert str(exc.value) == f"{path}:4: unknown criterion id 'zz' (course X2)"

    def test_duplicate_course_code(self, catalog, tmp_path):
        path = _write(
            tmp_path / "cur.csv",
            "course_code,title,criteria,overrides\nX1,,a,\nX1,,b,\n",
        )
        with pytest.raises(ValidationError, match="duplicate course"):
            data_io.load_curriculum(path, catalog)


class TestLoadGrades:
    def test_shipped_grades(self, grade_histories):
        history = grade_histories["C1"]
        assert [g.value for g in history.generations] == [Fraction("4.2"), Fraction("3.4"), Fraction("4.4")]
        assert all(g.kind is GradeKind.DI for g in history.generations)

    def test_percent_value_out_of_range(self, tmp_path):
        path = _write(tmp_path / "g.csv", "course_code,generation,kind,value\nC1,g1,percent,135\n")
        with pytest.raises(InvalidGradeError):
            data_io.load_grades(path)

    def test_di_value_passes_through(self, tmp_path):
        path = _write(tmp_path / "g.csv", "course_code,generation,kind,value\nC1,g1,di,4.2\n")
        grades = data_io.load_grades(path)
        assert grades["C1"].generations[0].value == Fraction("4.2")

    def test_missing_kind_tag(self, tmp_path):
        path = _write(tmp_path / "g.csv", "course_code,generation,kind,value\nC1,g1,,4.2\n")
        with pytest.raises(ValidationError, match="kind"):
            data_io.load_grades(path)

    def test_unknown_kind_tag(self, tmp_path):
        path = _write(tmp_path / "g.csv", "course_code,generation,kind,value\nC1,g1,marks,4.2\n")
        with pytest.raises(ValidationError, match="marks"):
            data_io.load_grades(path)

    def test_missing_kind_column_is_structural(self, tmp_path):
        path = _write(tmp_path / "g.csv", "course_code,generation,value\nC1,g1,4.2\n")
        with pytest.raises(DataFormatError, match="kind"):
            data_io.load_grades(path)

    def test_non_numeric_value_has_line_diagnostic(self, tmp_path):
        path = _write(
            tmp_path / "g.csv",
            "course_code,generation,kind,value\nC1,g1,di,4.2\nC1,g2,di,abc\n",
        )
        with pytest.raises(DataFormatError) as exc:
            data_io.load_grades(path)
        assert "g.csv:3" in str(exc.value)

    def test_file_order_of_generations_preserved(self, tmp_path):
        path = _write(
            tmp_path / "g.csv",
            "course_code,generation,kind,value\nC1,late,di,1\nC1,early,di,2\n",
        )
        labels = [g.label for g in data_io.load_grades(path)["C1"].generations]
        assert labels == ["late", "early"]


def _grade_file(tmp_path, form, records):
    """``records`` as (code, label, kind, value literal) in a CSV or JSON grade file;
    returns the path and each record's locator."""
    if form == "csv":
        lines = ["course_code,generation,kind,value", *(",".join(r) for r in records)]
        return _write(tmp_path / "g.csv", "\n".join(lines) + "\n"), [f"g.csv:{i + 2}:" for i in range(len(records))]
    courses, locators = {}, []
    for code, label, kind, value in records:
        generations = courses.setdefault(code, [])
        is_number = re.fullmatch(r"[0-9]+(\.[0-9]+)?(e[0-9]+)?", value)
        literal = value if is_number else json.dumps(value)
        generations.append(f'{{"label": {json.dumps(label)}, "kind": {json.dumps(kind)}, "value": {literal}}}')
        locators.append(f"g.json:courses[{list(courses).index(code)}].generations[{len(generations) - 1}]:")
    entries = [
        f'{{"course_code": {json.dumps(code)}, "generations": [{", ".join(gs)}]}}' for code, gs in courses.items()
    ]
    return _write(tmp_path / "g.json", f'{{"courses": [{", ".join(entries)}]}}'), locators


@pytest.mark.parametrize("form", ["csv", "json"])
class TestGradeLiterals:
    """Within one load, each distinct value literal is parsed once and shared; errors stay per record."""

    def test_same_literal_shares_one_value(self, tmp_path, form):
        path, _ = _grade_file(tmp_path, form, [
            ("C1", "g1", "percent", "67.125"), ("C2", "g1", "di", "4.5"),
            ("C2", "g2", "percent", "67.125"), ("C1", "g2", "percent", "4.5"),
        ])
        grades = data_io.load_grades(path)
        (c1_g1, c1_g2), (c2_g1, c2_g2) = grades["C1"].generations, grades["C2"].generations
        assert c1_g1.value is c2_g2.value == Fraction("67.125")
        assert c1_g2.value is c2_g1.value == Fraction("4.5")  # one literal, two kinds

    def test_other_spelling_of_a_value_is_equal(self, tmp_path, form):
        path, _ = _grade_file(tmp_path, form, [("C1", "g1", "percent", "35"), ("C1", "g2", "percent", "35.000")])
        first, second = data_io.load_grades(path)["C1"].generations
        assert first.value == second.value == 35

    def test_repeated_malformed_literal_is_reported_at_its_first_line(self, tmp_path, form):
        path, at = _grade_file(tmp_path, form, [
            ("C1", "g1", "di", "4.5e0"), ("C1", "g2", "di", "4.5"),
            ("C2", "g1", "di", "4.5"), ("C2", "g2", "di", "4.5e0"),
        ])
        with pytest.raises(DataFormatError, match="cannot parse grade value '4.5e0'") as exc:
            data_io.load_grades(path)
        assert str(exc.value).startswith(f"{tmp_path / at[0]}")

    def test_malformed_literal_after_valid_ones_is_reported_at_its_line(self, tmp_path, form):
        path, at = _grade_file(tmp_path, form, [("C1", "g1", "di", "4.5"), ("C1", "g2", "di", "4.5x")])
        with pytest.raises(DataFormatError) as exc:
            data_io.load_grades(path)
        assert str(exc.value).startswith(f"{tmp_path / at[1]}")

    def test_out_of_range_repeat_is_reported_at_its_own_line(self, tmp_path, form):
        path, at = _grade_file(tmp_path, form, [
            ("C1", "g1", "percent", "50"), ("C1", "g2", "percent", "50"), ("C2", "g1", "di", "50"),
        ])
        with pytest.raises(InvalidGradeError, match="difficulty value 50 outside") as exc:
            data_io.load_grades(path)
        assert str(exc.value).startswith(f"{tmp_path / at[2]}")

    def test_literals_past_the_bound_load_unshared(self, tmp_path, form, monkeypatch):
        monkeypatch.setattr(data_io, "_SHARED_LITERALS", 2)
        path, at = _grade_file(tmp_path, form, [
            ("C1", "g1", "di", "1.5"), ("C1", "g2", "di", "2.5"), ("C1", "g3", "di", "3.5"),
            ("C2", "g1", "di", "3.5"), ("C2", "g2", "di", "1.5"), ("C2", "g3", "di", "9.5"),
        ])
        with pytest.raises(InvalidGradeError, match="difficulty value 19/2 outside") as exc:
            data_io.load_grades(path)
        assert str(exc.value).startswith(f"{tmp_path / at[5]}")
        path, _ = _grade_file(tmp_path, form, [
            ("C1", "g1", "di", "1.5"), ("C1", "g2", "di", "2.5"), ("C1", "g3", "di", "3.5"),
            ("C2", "g1", "di", "3.5"), ("C2", "g2", "di", "1.5"),
        ])
        (g1, _, g3), (h1, h2) = (h.generations for h in data_io.load_grades(path).values())
        assert h2.value is g1.value  # within the bound: shared
        assert h1.value == g3.value == Fraction("3.5") and h1.value is not g3.value  # past it: parsed per record

    def test_each_load_parses_afresh(self, tmp_path, form):
        path, _ = _grade_file(tmp_path, form, [("C1", "g1", "di", "2.45")])
        first, second = data_io.load_grades(path), data_io.load_grades(path)
        assert first == second
        assert first["C1"].generations[0].value is not second["C1"].generations[0].value


# raw cell spellings: a few per value, so that rows repeat cells and also differ only in spelling
_LABELS = {"g1": ["g1", " g1"], "g2": ["g2", "g2 "], "g3": ["g3"], "g4": ["g4", " g4 "]}
_KIND_CELLS = {GradeKind.PERCENT: ["percent", "PERCENT", " percent"], GradeKind.DI: ["di", "DI"]}
_VALUE_CELLS = {GradeKind.PERCENT: ["35", "35.0", "62.5", "100", "0.125"],
                GradeKind.DI: ["4.5", "3", "3.00", "0", "5"]}


@st.composite
def _repeating_grade_rows(draw):
    """Grade rows (code, label, kind, value cells), interleaved across courses, whose cells repeat and vary."""
    courses = {code: draw(st.lists(st.sampled_from(sorted(_LABELS)), min_size=1, max_size=4, unique=True))
               for code in draw(st.lists(st.sampled_from(["C1", "C2", "C3", "C4", "C5"]), min_size=1, unique=True))}
    slots = [(code, label) for code, labels in courses.items() for label in labels]
    rows = []
    for code, label in draw(st.permutations(slots)):
        kind = draw(st.sampled_from(list(GradeKind)))
        cells = (draw(st.sampled_from(_LABELS[label])), draw(st.sampled_from(_KIND_CELLS[kind])),
                 draw(st.sampled_from(_VALUE_CELLS[kind])))
        rows.append((code, *cells))
    return rows


@pytest.mark.parametrize("form", ["csv", "json"])
@pytest.mark.parametrize("bound", [None, 2], ids=["default-bound", "bound-2"])
class TestSharedGradeRecords:
    """Rows with the same raw cells share one record, within the bound, and load as the public constructors build."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=_repeating_grade_rows())
    def test_load_equals_the_public_constructors(self, tmp_path, monkeypatch, form, bound, rows):
        if bound is not None:
            monkeypatch.setattr(data_io, "_SHARED_LITERALS", bound)
        path, _ = _grade_file(tmp_path, form, rows)
        loaded = data_io.load_grades(path)
        codes = list(dict.fromkeys(code for code, *_ in rows))
        by_course = sorted(rows, key=lambda row: codes.index(row[0]))  # the load's order, and a JSON file's
        in_file = rows if form == "csv" else by_course
        grouped = {}
        for code, label, kind, value in rows:
            record = GenerationRecord(label.strip(), GradeKind(kind.strip().lower()), Fraction(value.strip()))
            grouped.setdefault(code, []).append(record)
        assert loaded == {code: GradeHistory(code, tuple(records)) for code, records in grouped.items()}
        assert list(loaded) == list(grouped)
        shared = list(dict.fromkeys(tuple(cells) for _, *cells in in_file))[:data_io._SHARED_LITERALS]
        by_cells = {}  # raw cells -> the loaded record of each row with them
        for (_, *cells), record in zip(by_course, (g for h in loaded.values() for g in h.generations), strict=True):
            by_cells.setdefault(tuple(cells), []).append(record)
        for cells, records in by_cells.items():
            identities = {id(record) for record in records}
            assert len(identities) == (1 if cells in shared else len(records))  # past the bound: one per row


class _Refused(Exception):
    pass


class TestMemo:
    """``_Memo`` is ``make`` that keeps the results of the first ``_SHARED_LITERALS`` distinct keys."""

    @settings(max_examples=200, deadline=None)
    @given(bound=st.integers(0, 3), keys=st.lists(st.integers(0, 6), max_size=24),
           refused=st.sets(st.integers(0, 6), max_size=2))
    def test_memo_is_make_run_once_per_key_within_the_bound(self, bound, keys, refused):
        made = []

        def make(key):
            made.append(key)
            if key in refused:
                raise _Refused(key)
            return [key, key * key]  # a new object per call, so a kept result is told apart by identity

        kept, calls = {}, []  # the model: the keys the memo holds, and the calls it makes
        with mock.patch.object(data_io, "_SHARED_LITERALS", bound):
            memo = data_io._Memo(make)
            for key in keys:
                if key not in kept:
                    calls.append(key)
                if key in refused:
                    with pytest.raises(_Refused):
                        memo[key]
                    assert key not in memo  # an exception stores nothing
                    continue
                value = memo[key]
                assert value == [key, key * key]
                if key in kept:
                    assert value is kept[key]
                elif len(kept) < bound:
                    kept[key] = value
                assert len(memo) <= bound
        assert made == calls
        assert list(memo) == list(kept)


class TestJsonListFields:
    @pytest.mark.parametrize("name,text,message", [
        ("cat.json", '{"criteria": [{"id": "a", "levels": 3}]}', "criteria[0].levels must be a list"),
        ("lex.json", '{"verbs": [{"verb": "list", "levels": "1"}]}', "verbs[0].levels must be a list"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": "ahk"}]}', "courses[0].criteria must be a list"),
        ("g.json", '{"courses": [{"course_code": "C1", "generations": "g1"}]}', "courses[0].generations must be a list"),
        ("g.json", '{"courses": [{"course_code": "C1", "generations": ["g1"]}]}', "courses[0].generations[0] must be"),
        ("cat.json", '{"criteria": [{"id": null, "levels": [1]}]}', "criteria[0].id must be a string or a number"),
        ("cat.json", '{"criteria": [{"id": true, "levels": [1]}]}', "criteria[0].id must be a string or a number"),
        ("cat.json", '{"criteria": [{"id": "a", "levels": [[1]]}]}', "criteria[0].levels[0] must be a string or"),
        ("cat.json", '{"criteria": [{"id": "a", "description": {}, "levels": [1]}]}', "criteria[0].description must be"),
        ("cat.json", '{"criteria": [{"levels": [1]}]}', "criteria[0] must have 'id'"),
        ("cat.json", '{"provenance": null, "criteria": []}', "provenance must be a string or a number"),
        ("cat.json", '{"criteria": {}}', "criteria must be a list"),
        ("lex.json", '{"verbs": [{"verb": "list", "levels": null}]}', "verbs[0].levels must be a list"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a|b"]}]}', "courses[0].criteria[0] must not contain '|'"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a"], "overrides": null}]}', "courses[0].overrides must be an object"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a"], "overrides": {"a": "5|b:6"}}]}', "courses[0].overrides.a must not contain '|'"),
        ("cur.json", '{"courses": [{"course_code": "C1", "title": null, "criteria": ["a"]}]}', "courses[0].title must be"),
        ("cur.json", '{"courses": [{"course_code": "C1", "title": "Intro\\rPart 2", "criteria": ["a"]}]}',
         "courses[0].title must not contain a carriage return"),
        ("g.json", '{"courses": [{"course_code": "C1", "generations": [{"label": "g\\r1", "kind": "di", "value": 1}]}]}',
         "courses[0].generations[0].label must not contain a carriage return"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a"], "overrides": {"a\\r": 5}}]}',
         "courses[0].overrides must not contain a carriage return"),
        ("g.json", '{"courses": [{"course_code": null, "generations": []}]}', "courses[0].course_code must be"),
        ("g.json", '{"courses": [{"generations": []}]}', "courses[0] must have 'course_code'"),
        ("g.json", '{"courses": [{"course_code": "C1"}]}', "courses[0] must have 'generations'"),
        ("g.json", '{"courses": [{"course_code": "C1", "generation": [{"label": "g", "kind": "di", "value": 1}]}]}',
         "courses[0] must have 'generations'"),
        ("g.json", '{"courses": [{"course_code": "C1", "generations": [{"label": "g", "kind": "di", "value": true}]}]}', "courses[0].generations[0].value must be"),
        ("g.json", '[]', "expected an object with a 'courses' list"),
        ("cat.json", '{"criteria": [{"id": "a", "id": "b", "levels": [1]}]}', "JSON object repeats key 'id'"),
        ("cur.json", '{"courses": [{"course_code": "X1", "criteria": ["a"], "overrides": {"a": 5, "a": 6}}]}', "JSON object repeats key 'a'"),
        ("g.json", '{"courses": [], "courses": []}', "JSON object repeats key 'courses'"),
        ("lex.json", '{"verbs": [{"verb": "list", "levels": [1], "levels": [2]}]}', "JSON object repeats key 'levels'"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a", "h", null]}]}',
         "courses[0].criteria[2] must be a string or a number"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a", "h", "k|l"]}]}',
         "courses[0].criteria[2] must not contain '|'"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a", "h\\r"]}]}',
         "courses[0].criteria[1] must not contain a carriage return"),
        ("cat.json", '{"criteria": [{"id": "a", "levels": ["1\\r"]}]}',
         "criteria[0].levels[0] must not contain a carriage return"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a", "h"], "overrides": {"a": 5, "h": null}}]}',
         "courses[0].overrides.h must be a string or a number"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a"], "overrides": {"a": [5]}}]}',
         "courses[0].overrides.a must be a string or a number"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a"], "overrides": {"a": "5\\r"}}]}',
         "courses[0].overrides.a must not contain a carriage return"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a"], "overrides": {"a|h": 5}}]}',
         "courses[0].overrides must not contain '|'"),
        ("cur.json", '{"courses": [{"course_code": "\\ud800", "criteria": ["a"]}]}',
         "courses[0].course_code must not contain a lone surrogate (\\ud800)"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a", "h\\udfff"]}]}',
         "courses[0].criteria[1] must not contain a lone surrogate (\\udfff)"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a"], "overrides": {"a\\ud800": 5}}]}',
         "courses[0].overrides must not contain a lone surrogate (\\ud800)"),
        ("cur.json", '{"courses": [{"course_code": "C1", "criteria": ["a"], "overrides": {"a": "5\\udc80"}}]}',
         "courses[0].overrides.a must not contain a lone surrogate (\\udc80)"),
        ("cat.json", '{"provenance": "x\\ud800", "criteria": [{"id": "a", "levels": [1]}]}',
         "provenance must not contain a lone surrogate (\\ud800)"),
        ("cat.json", '{"criteria": [{"id": "a", "levels": ["1\\ud800"]}]}',
         "criteria[0].levels[0] must not contain a lone surrogate (\\ud800)"),
        ("lex.json", '{"verbs": [{"verb": "list\\ud800", "levels": [1]}]}',
         "verbs[0].verb must not contain a lone surrogate (\\ud800)"),
        ("g.json", '{"courses": [{"course_code": "C1", "generations": [{"label": "\\udc80", "kind": "di", "value": 1}]}]}',
         "courses[0].generations[0].label must not contain a lone surrogate (\\udc80)"),
    ], ids=[
        "catalog", "lexicon", "curriculum", "grades", "grades-entry",
        "null-id", "bool-id", "nested-level", "object-description", "missing-id", "null-provenance",
        "criteria-object", "null-levels", "pipe-in-criterion", "null-overrides", "pipe-in-points", "null-title",
        "carriage-return-in-title", "carriage-return-in-label", "carriage-return-in-override-id",
        "null-course-code", "missing-course-code", "missing-generations", "misspelled-generations",
        "bool-value", "top-level-list",
        "repeated-id", "repeated-override", "repeated-entry-list", "repeated-levels",
        "null-entry", "pipe-in-third-entry", "carriage-return-in-entry", "carriage-return-in-level",
        "null-points", "list-points", "carriage-return-in-points", "pipe-in-override-id",
        "surrogate-in-course-code", "surrogate-in-criterion", "surrogate-in-override-id", "surrogate-in-points",
        "surrogate-in-provenance", "surrogate-in-level", "surrogate-in-verb", "surrogate-in-label",
    ])
    def test_non_list_is_format_error(self, catalog, tmp_path, name, text, message):
        path = _write(tmp_path / name, text)
        load = {
            "cat.json": data_io.load_catalog,
            "lex.json": data_io.load_lexicon,
            "cur.json": lambda p: data_io.load_curriculum(p, catalog),
            "g.json": data_io.load_grades,
        }[name]
        with pytest.raises(DataFormatError) as exc:
            load(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("courses,at", [
        ([{"course_code": " C1 ", "generations": []}], "courses[0]"),
        ([{"course_code": "C0", "generations": [{"label": "g", "kind": "di", "value": 1}]},
          {"course_code": "C1", "generations": []}], "courses[1]"),
    ], ids=["only-course", "second-course"])
    def test_empty_generations_is_a_course_without_records(self, tmp_path, capsys, courses, at):
        """A course with an empty ``generations`` list fails as ``GradeHistory`` fails it, at its entry."""
        path = _write(tmp_path / "g.json", json.dumps({"courses": courses}))
        with pytest.raises(InsufficientDataError) as exc:
            data_io.load_grades(path)
        assert str(exc.value) == f"{path}:{at}: course 'C1' has no generation records"
        assert main(["grades", "--grades", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("empty_first", [True, False], ids=["empty-first", "empty-second"])
    def test_empty_generations_merge_with_the_same_course(self, tmp_path, empty_first):
        """A course given twice, once with records and once with an empty ``generations`` list,
        loads as one history of the records, in either order."""
        records = {"course_code": "C1", "generations": [{"label": "g1", "kind": "di", "value": 2},
                                                        {"label": "g2", "kind": "percent", "value": "45"}]}
        empty = {"course_code": " C1 ", "generations": []}
        path = _write(tmp_path / "g.json", json.dumps({"courses": [empty, records] if empty_first else [records, empty]}))
        assert data_io.load_grades(path) == {"C1": GradeHistory("C1", (
            GenerationRecord("g1", GradeKind.DI, 2), GenerationRecord("g2", GradeKind.PERCENT, 45)))}

    def test_missing_generations_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path / "g.json", '{"courses": [{"course_code": "C1"}]}')
        assert main(["grades", "--grades", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: courses[0] must have 'generations'\n"



# One defect per case, written once as CSV rows and once as JSON entries (a string is a
# whole JSON document, for number literals json.dumps cannot write): the loader, the CSV
# rows, the JSON entries, the error class, and where both forms must point.
PARITY = {
    "empty-id": ("catalog", [" ,d,1"], [{"id": " ", "levels": [1]}], DataFormatError, 2, "criteria[0]"),
    "null-id": ("catalog", [",d,1"], [{"id": None, "levels": [1]}], DataFormatError, 2, "criteria[0]"),
    "unknown-level": ("catalog", ["a,d,Think"], [{"id": "a", "levels": ["Think"]}], ValidationError, 2, "criteria[0]"),
    "level-out-of-range": ("catalog", ["a,d,7"], [{"id": "a", "levels": [7]}], ValidationError, 2, "criteria[0]"),
    "level-arabic-digit": ("catalog", ["a,d,\u0667"], [{"id": "a", "levels": ["\u0667"]}], DataFormatError, 2, "criteria[0]"),
    "duplicate-id": (
        "catalog", ["a,d,1", " a ,e,2"], [{"id": "a", "levels": [1]}, {"id": " a ", "levels": [2]}],
        ValidationError, 3, "criteria[1]",
    ),
    "empty-verb": ("lexicon", [" ,1"], [{"verb": " ", "levels": [1]}], DataFormatError, 2, "verbs[0]"),
    "null-verb": ("lexicon", [",1"], [{"verb": None, "levels": [1]}], DataFormatError, 2, "verbs[0]"),
    "level-underscore": ("lexicon", ["list,1_0"], [{"verb": "list", "levels": ["1_0"]}], DataFormatError, 2, "verbs[0]"),
    "verb-without-levels": ("lexicon", ["list,1", "zzverb, "], [{"verb": "list", "levels": [1]}, {"verb": "zzverb", "levels": []}], ValidationError, 3, "verbs[1]"),
    "empty-code": ("curriculum", [",,a,"], [{"course_code": "", "criteria": ["a"]}], ValidationError, 2, "courses[0]"),
    "points-arabic-digit": (
        "curriculum", ["X1,,a,a:\u0667"], [{"course_code": "X1", "criteria": ["a"], "overrides": {"a": "\u0667"}}],
        DataFormatError, 2, "courses[0]",
    ),
    "points-underscore": (
        "curriculum", ["X1,,a,a:1_0"], [{"course_code": "X1", "criteria": ["a"], "overrides": {"a": "1_0"}}],
        DataFormatError, 2, "courses[0]",
    ),
    "override-without-id": (
        "curriculum", ["X1,,a,:5"], [{"course_code": "X1", "criteria": ["a"], "overrides": {"": 5}}],
        DataFormatError, 2, "courses[0]",
    ),
    "override-outside-course": (
        "curriculum", ["X1,,a,b:5"], [{"course_code": "X1", "criteria": ["a"], "overrides": {"b": 5}}],
        ValidationError, 2, "courses[0]",
    ),
    "unknown-criterion": (
        "curriculum", ["X1,,a,", "X2,,a| z,"],
        [{"course_code": "X1", "criteria": ["a"]}, {"course_code": "X2", "criteria": ["a", " z"]}],
        UnresolvedCriterionError, 3, "courses[1]",
    ),
    "duplicate-code": (
        "curriculum", ["X1,,a,", " X1,,b,"],
        [{"course_code": "X1", "criteria": ["a"]}, {"course_code": " X1", "criteria": ["b"]}],
        ValidationError, 3, "courses[1]",
    ),
    "empty-label": ("grades", ["C1,,di,1"], [{"course_code": "C1", "generations": [{"label": "", "kind": "di", "value": 1}]}], ValidationError, 2, "courses[0].generations[0]"),
    "empty-kind": ("grades", ["C1,g,,1"], [{"course_code": "C1", "generations": [{"label": "g", "kind": "", "value": 1}]}], ValidationError, 2, "courses[0].generations[0]"),
    "unknown-kind": ("grades", ["C1,g,marks,1"], [{"course_code": "C1", "generations": [{"label": "g", "kind": "marks", "value": 1}]}], ValidationError, 2, "courses[0].generations[0]"),
    "empty-course-code": ("grades", [",g,di,1"], [{"course_code": "", "generations": [{"label": "g", "kind": "di", "value": 1}]}], ValidationError, 2, "courses[0].generations[0]"),
    "value-fraction": ("grades", ["C1,g,di,100/3"], [{"course_code": "C1", "generations": [{"label": "g", "kind": "di", "value": "100/3"}]}], DataFormatError, 2, "courses[0].generations[0]"),
    "value-exponent": ("grades", ["C1,g,di,1e2"], '{"courses": [{"course_code": "C1", "generations": [{"label": "g", "kind": "di", "value": 1e2}]}]}', DataFormatError, 2, "courses[0].generations[0]"),
    "value-nan": ("grades", ["C1,g,di,nan"], '{"courses": [{"course_code": "C1", "generations": [{"label": "g", "kind": "di", "value": NaN}]}]}', DataFormatError, 2, "courses[0].generations[0]"),
    "value-arabic-digit": ("grades", ["C1,g,di,\u0667"], [{"course_code": "C1", "generations": [{"label": "g", "kind": "di", "value": "\u0667"}]}], DataFormatError, 2, "courses[0].generations[0]"),
    "value-underscore": ("grades", ["C1,g,di,1_0"], [{"course_code": "C1", "generations": [{"label": "g", "kind": "di", "value": "1_0"}]}], DataFormatError, 2, "courses[0].generations[0]"),
    "value-null": ("grades", ["C1,g,di,"], [{"course_code": "C1", "generations": [{"label": "g", "kind": "di", "value": None}]}], DataFormatError, 2, "courses[0].generations[0]"),
    "value-out-of-range": ("grades", ["C1,g,percent,135"], [{"course_code": "C1", "generations": [{"label": "g", "kind": "percent", "value": 135}]}], InvalidGradeError, 2, "courses[0].generations[0]"),
}
_FORMS = {  # loader -> (CSV header, JSON entry list key, CLI call with the file as its last argument)
    "catalog": (data_io.CATALOG_COLUMNS, "criteria", ["estimate", "--curriculum", "worked_example.csv", "--catalog"]),
    "lexicon": (data_io.LEXICON_COLUMNS, "verbs", ["map-outcomes", "--statements", "outcome_statements.csv", "--lexicon"]),
    "curriculum": (data_io.CURRICULUM_COLUMNS, "courses", ["estimate", "--catalog", "table1.json", "--curriculum"]),
    "grades": (data_io.GRADES_COLUMNS, "courses", ["grades", "--grades"]),
}


class TestInputParity:
    """Each defect raises the same error class and exit code as CSV and as JSON, named at its record."""

    @pytest.mark.parametrize("name", sorted(PARITY))
    def test_defect_is_reported_alike(self, catalog, fixture_dir, tmp_path, capsys, monkeypatch, name):
        kind, rows, entries, error, line, entry = PARITY[name]
        columns, key, argv = _FORMS[kind]
        csv_path = _write(tmp_path / "bad.csv", "\n".join([",".join(columns), *rows]) + "\n")
        json_path = _write(tmp_path / "bad.json", entries if isinstance(entries, str) else json.dumps({key: entries}))
        load = {
            "catalog": data_io.load_catalog,
            "lexicon": data_io.load_lexicon,
            "curriculum": lambda p: data_io.load_curriculum(p, catalog),
            "grades": data_io.load_grades,
        }[kind]
        monkeypatch.chdir(fixture_dir)
        raised, exits = [], []
        for path, locator in ((csv_path, line), (json_path, entry)):
            with pytest.raises(error) as exc:
                load(path)
            raised.append(type(exc.value))
            # a record's own error reads path:locator:, a JSON value of the wrong type path: locator.key
            where = re.escape(str(locator))
            assert re.match(rf"{re.escape(str(path))}:( {where}\.|{where}: )", str(exc.value)), str(exc.value)
            exits.append(main([*argv, str(path)]))
            assert capsys.readouterr().err.startswith(f"error: {exc.value}")
        assert raised[0] is raised[1]
        assert exits[0] == exits[1] == error.exit_code

    def test_repeated_override_is_reported_alike(self, catalog, fixture_dir, tmp_path, capsys, monkeypatch):
        # JSON rejects the repeated key while parsing, before any entry has a locator
        csv_path = _write(tmp_path / "cur.csv", "course_code,title,criteria,overrides\nX1,,a,a:5|a:6\n")
        json_path = _write(
            tmp_path / "cur.json",
            '{"courses": [{"course_code": "X1", "criteria": ["a"], "overrides": {"a": 5, "a": 6}}]}',
        )
        monkeypatch.chdir(fixture_dir)
        for path in (csv_path, json_path):
            with pytest.raises(DataFormatError) as exc:
                data_io.load_curriculum(path, catalog)
            assert str(exc.value).startswith(str(path)) and "'a'" in str(exc.value)
            assert main(["estimate", "--catalog", "table1.json", "--curriculum", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {exc.value}\n"


class TestMalformedFiles:
    @pytest.mark.parametrize("name,data,message", [
        ("cat.csv", "id,description,levels\na,caf\xe9,1\n".encode("latin-1"), "not UTF-8 text"),
        # a byte-order mark is dropped after decoding, so the bad byte is named at its file offset
        ("cat.csv", "\ufeffid,description,levels\na,caf".encode() + b"\xe9,1\n",
         "cat.csv: not UTF-8 text: invalid continuation byte at byte 30"),
        ("cat.csv", b'id,description,levels\na,"' + b"x" * 200_000 + b'",1\n', "cat.csv:2: malformed CSV"),
        ("cat.json", b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        ("g.csv", b"course_code,generation,kind,value\nC1,g,di,1" + b"0" * 5000 + b"\n", "g.csv:2: cannot parse grade value"),
        ("cur.csv", b"course_code,title,criteria,overrides\nX1,,a,a:1" + b"0" * 5000 + b"\n", "cur.csv:2: cannot parse override points"),
    ], ids=["latin-1", "latin-1-after-mark", "huge-field", "deep-json", "long-value", "long-points"])
    def test_is_format_error(self, catalog, tmp_path, name, data, message):
        path = tmp_path / name
        path.write_bytes(data)
        load = data_io.load_grades if name == "g.csv" else data_io.load_catalog
        if name == "cur.csv":
            load = lambda p: data_io.load_curriculum(p, catalog)  # noqa: E731
        with pytest.raises(DataFormatError) as exc:
            load(path)
        assert str(exc.value).startswith(f"{path}")
        assert message in str(exc.value)


class TestByteOrderMark:
    """A file may begin with a UTF-8 byte-order mark, as a spreadsheet's "CSV UTF-8" file does."""

    @pytest.mark.parametrize("kind,suffix", [
        *((kind, suffix) for kind in ("catalog", "lexicon", "curriculum", "grades") for suffix in (".csv", ".json")),
        ("statements", ".csv"),  # the one form of statements
    ])
    def test_loads_equal_with_and_without_a_mark(self, catalog, default_lexicon, fixture_dir, tmp_path, kind, suffix):
        path = tmp_path / f"input{suffix}"  # one path for both: a catalog's provenance names it
        load, write, value = {
            "catalog": (data_io.load_catalog, data_io.write_catalog, catalog),
            "lexicon": (data_io.load_lexicon, data_io.write_lexicon, default_lexicon),
            "curriculum": (lambda p: data_io.load_curriculum(p, catalog), data_io.write_curriculum,
                           data_io.load_curriculum(fixture_dir / "table2_asprinted.csv", catalog)),
            "grades": (data_io.load_grades, data_io.write_grades, data_io.load_grades(fixture_dir / "table3_grades.csv")),
            "statements": (data_io.load_statements, None, None),
        }[kind]
        if write is None:
            path.write_bytes((fixture_dir / "outcome_statements.csv").read_bytes())
        else:
            write(value, path)
        plain = load(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load(path) == plain

    def test_marked_csv_runs_as_the_unmarked_one(self, fixture_dir, tmp_path, capsys, monkeypatch):
        marked = tmp_path / "table2.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (fixture_dir / "table2_asprinted.csv").read_bytes())
        monkeypatch.chdir(fixture_dir)
        outs = []
        for path in (marked, fixture_dir / "table2_asprinted.csv"):
            assert main(["estimate", "--catalog", "table1.json", "--curriculum", str(path)]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]

    def test_bundle_digest_is_of_the_marked_bytes(self, fixture_dir, tmp_path):
        marked = tmp_path / "grades.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (fixture_dir / "table3_grades.csv").read_bytes())
        bundle = data_io.load_bundle(fixture_dir / "table1.json", fixture_dir / "table2_asprinted.csv", marked)
        assert bundle.provenance[2][2] == hashlib.sha256(marked.read_bytes()).hexdigest()
        plain = data_io.load_bundle(fixture_dir / "table1.json", fixture_dir / "table2_asprinted.csv",
                                    fixture_dir / "table3_grades.csv")
        assert bundle.grades == plain.grades
        assert bundle.provenance[2][2] != plain.provenance[2][2]


class TestReportWriting:
    @pytest.fixture
    def report(self, catalog, asprinted_courses, grade_histories):
        from course_difficulty.engine import bloom_difficulty, grade_difficulty
        from course_difficulty.rounding import round_half_away

        comparisons = []
        for course in asprinted_courses:
            actual = round_half_away(grade_difficulty(grade_histories[course.code]))
            estimated = round_half_away(bloom_difficulty(course, catalog).di)
            comparisons.append(compare(actual, estimated, course.code))
        return summarize(comparisons, Fraction(1, 2))

    def test_csv_average_row(self, report):
        text = data_io.render_report_csv(report)
        lines = text.split("\n")
        assert lines[0] == "course_code,actual_di,estimated_di,abs_error"
        assert lines[-2] == "AVERAGE,3.6,3.5,0.2"
        assert text.endswith("\n")

    def test_csv_bytes_stable(self, report):
        assert data_io.render_report_csv(report) == data_io.render_report_csv(report)

    def test_plot_data(self, report, tmp_path):
        data_io.write_plot_data(report, tmp_path / "plot.csv")
        lines = (tmp_path / "plot.csv").read_text(encoding="utf-8").split("\n")
        assert lines[0] == "course_code,actual_di,estimated_di"
        assert lines[1] == "C1,4.0,3.8"
        assert len([l for l in lines if l]) == 12


from strategies import DIFFICULTIES, catalogs, curricula, grade_maps  # noqa: E402

# cells the CSV writer quotes or refuses to leave bare, and text it writes as it is
CSV_CELLS = st.one_of(
    st.sampled_from(["", ",", '"', "\n", "\r", "\r\n", "a,b", 'say "hi"', " padded ", "caf\u00e9", "\u2028", "#"]),
    st.text(max_size=5),
    st.text(alphabet="ab,\"\n\r \u00e9", max_size=4),
)
CSV_ROWS = st.lists(st.one_of(st.lists(CSV_CELLS, min_size=1, max_size=4), st.sampled_from([[""], [], ["x"]])),
                    min_size=0, max_size=5)


class TestCsvText:
    """``csv_text`` writes what ``csv.writer(lineterminator="\\n")`` writes, byte for byte, whether it joins
    the rows itself or hands them to the writer."""

    @staticmethod
    def _writer_text(rows, writer=csv.writer):  # the writer itself, not the tests' counting stand-in for it
        buf = io.StringIO()
        writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()

    def test_drawn_rows_match_the_writer_on_both_branches(self, monkeypatch):
        writer, handed = csv.writer, []

        def counting(*args, **kwargs):
            handed.append(True)
            return writer(*args, **kwargs)

        monkeypatch.setattr(data_io.csv, "writer", counting)
        branches = set()

        @settings(max_examples=300, deadline=None)
        @given(header=st.lists(CSV_CELLS, min_size=1, max_size=4), rows=CSV_ROWS)
        @example(header=["a", "b"], rows=[["1", "2"], ["3", "4"]])  # joined
        @example(header=["a"], rows=[[""]])  # a row of one empty cell, which the writer quotes
        @example(header=["a", "b"], rows=[["x\ry", ""]])
        def check(header, rows):
            handed.clear()
            text = data_io.csv_text(header, rows)
            branches.add(bool(handed))
            assert text == self._writer_text([header, *rows])

        check()
        assert branches == {False, True}

    @pytest.mark.parametrize("rows,joined", [
        ([["1", "2"], ["", "x"]], True),
        ([["caf\u00e9", " b "]], True),
        ([["x", "a,b"]], False),
        ([["x", 'a"b']], False),
        ([["x", "a\nb"]], False),
        ([["x", "a\rb"]], False),
        ([[""]], False),
        ([["x", 1], ["y", None]], False),
        ([[]], False),
    ], ids=["plain", "non-ascii", "comma", "quote", "newline", "carriage-return", "one-empty-cell", "non-str",
            "no-cells"])
    def test_each_case_the_join_cannot_write_goes_to_the_writer(self, monkeypatch, rows, joined):
        writer, handed = csv.writer, []
        monkeypatch.setattr(data_io.csv, "writer", lambda *a, **k: handed.append(True) or writer(*a, **k))
        text = data_io.csv_text(("h1", "h2"), rows)
        assert (text, not handed) == (self._writer_text([("h1", "h2"), *rows]), joined)


_SLICE = data_io._SLICE


class TestWriteText:
    """``_write_text`` writes the bytes ``Path.write_text(text, encoding="utf-8", newline="")`` writes,
    encoding one slice of the text at a time, so that no encoded copy of the whole text is made."""

    @pytest.mark.parametrize("text", [
        "",
        "course_code,di\nC1,4.0\n",
        "caf\u00e9 \u2028 \U0001f600\n",
        "a\rb\r\nc\n\r",
        "x" * (_SLICE - 1),
        "x" * _SLICE,
        "x" * (_SLICE + 1),
        "x" * (_SLICE - 1) + "\U0001f600\u00e9",  # a 4-byte character ends the first slice
        ("\u00e9\r\n\U0001f600ab" * _SLICE),  # six slices
    ], ids=["empty", "ascii", "non-ascii", "carriage-returns", "slice-minus-one", "one-slice", "slice-plus-one",
            "wide-at-the-boundary", "several-slices"])
    def test_bytes_match_path_write_text(self, tmp_path, text):
        sliced, whole = tmp_path / "sliced.txt", tmp_path / "whole.txt"
        sliced.write_bytes(b"stale" * _SLICE)  # a longer file it replaces
        data_io._write_text(sliced, text)
        whole.write_text(text, encoding="utf-8", newline="")
        assert sliced.read_bytes() == whole.read_bytes()

    def test_a_4_mb_text_peaks_under_1_mb(self, tmp_path):
        text = "C000123,3.8,4.1,0.3\n" * 200_000  # 4,000,000 characters
        tracemalloc.start()
        try:
            data_io._write_text(tmp_path / "out.csv", text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "out.csv").stat().st_size == len(text)
        assert peak < 1 << 20


def _read_rows(path, columns):
    """The (line, cells) pairs ``_csv_rows`` yields, up to its error if it raises one, and that error's text."""
    pairs = []
    try:
        for pair in data_io._csv_rows(path, columns):
            pairs.append(pair)
    except DataFormatError as exc:
        return pairs, str(exc)
    return pairs, None


class TestCsvSlices:
    """``_csv_rows`` parses its text one slice of whole lines at a time, and reads exactly what
    ``csv.reader(io.StringIO(text))`` reads: the same cells, line numbers and located errors."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(["a,b\n", "b,x,a\n", "a\n", ""]),
        st.text(alphabet='x,"\n\r é\x00', max_size=60),
        st.integers(1, 16),
        st.booleans(),
    )
    @example("a,b\n", '1,"x\ny\nz"\n2,3', 2, False)  # a quoted field's newlines cross slice boundaries
    @example("a,b\n", "1,2\n3,4", 3, False)  # a last line with no newline
    @example("", "", 1, False)  # an empty file
    @example("a,b\n", "1,2\n3,4,5\n", 1, False)  # a row too wide
    @example("a,b\n", "1,2\n\n3\n", 1, False)  # a blank line, then a row too narrow
    @example("a,b\n", "x" * 40 + ",y\n1,2\n", 4, False)  # a line longer than a slice
    @example("a,b\n", '1,"xxxxxxxxxxxx\nxxxxx"\n', 3, True)  # a field over the size limit, after a boundary
    def test_rows_and_errors_match_one_string_io(self, tmp_path, header, body, size, small_limit):
        path = tmp_path / "in.csv"
        path.write_bytes((header + body).encode("utf-8"))
        limit = csv.field_size_limit(8) if small_limit else csv.field_size_limit()
        try:
            with mock.patch.object(data_io, "_SLICE", size):
                text = data_io._read_text(path)
                slices = list(data_io._slices(text))
                sliced = _read_rows(path, ("a", "b"))
            with mock.patch.object(data_io, "_slices", lambda text: [text]):  # the reader fed io.StringIO(text)
                whole = _read_rows(path, ("a", "b"))
        finally:
            csv.field_size_limit(limit)
        assert "".join(slices) == text
        for piece in slices[:-1]:  # each ends at the first newline at or past `size` characters
            assert len(piece) >= size and piece.index("\n", size - 1) == len(piece) - 1
        assert sliced == whole

    @staticmethod
    def _read_grades_file(path, newline):
        """Write 40,000 grade rows to ``path`` with ``newline`` line endings and read them through ``_csv_rows``
        under tracemalloc; return the file's size, the rows read and the traced peak."""
        path.write_text("course_code,generation,kind,value\n" + "".join(
            f"C{i:06d},{term},percent,{50 + i % 500 / 10}\n" for i in range(20_000) for term in ("2019-S1", "2020-S2")
        ), encoding="ascii", newline=newline)
        tracemalloc.start()
        try:
            rows = sum(1 for _ in data_io._csv_rows(path, data_io.GRADES_COLUMNS))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return path.stat().st_size, rows, peak

    def test_a_1_mb_grades_file_peaks_under_2_5_times_its_size(self, tmp_path):
        size, rows, peak = self._read_grades_file(tmp_path / "grades.csv", "\n")
        assert 1_000_000 < size < 1_200_000
        assert rows == 40_000
        assert peak < 2.5 * size  # the bytes and their text while decoding; no 4-byte-per-character copy

    def test_a_crlf_grades_file_peaks_under_2_5_times_its_size(self, tmp_path):
        """The bytes are let go once hashed and decoded, so translating the newlines copies the text
        while only the text is held: no third copy of the file."""
        size, rows, peak = self._read_grades_file(tmp_path / "grades.csv", "\r\n")
        assert 1_100_000 < size < 1_300_000
        assert rows == 40_000
        assert peak < 2.5 * size


# codes a JSON encoder must escape: quotes, backslashes, control characters, non-ASCII text
REPORT_CODES = st.one_of(
    st.text(min_size=1, max_size=8),
    st.text(alphabet='"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600{}[],: ', min_size=1, max_size=8),
)


class TestReportJsonTemplate:
    """Each course entry of the validate JSON report, rendered from its template, reads as ``json.dumps``."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(REPORT_CODES, DIFFICULTIES, DIFFICULTIES), min_size=1, max_size=5),
        st.sampled_from(list(CombinePolicy)),
        st.booleans(),
        st.booleans(),
    )
    @example([('\n  "courses": []', Fraction(1, 3), Fraction(7, 2))], CombinePolicy.MEAN_OF_BOTH, False, True)
    # courses with equal values share one rendered tail, which must never carry a code
    @example([("C1", Fraction(1, 3), Fraction(7, 2)), ("\u00e9t\u00e9", Fraction(1, 3), Fraction(7, 2)),
              ('a"b\nc', Fraction(1, 3), Fraction(7, 2))], CombinePolicy.MEAN_OF_BOTH, False, True)
    @example([("C1", Fraction(2, 7), Fraction(2, 7)), ('"\n', Fraction(2, 7), Fraction(2, 7))],
             CombinePolicy.MEAN_OF_BOTH, False, False)
    def test_matches_json_dumps(self, rows, policy, rounded, courses_last):
        self._check(rows, policy, rounded, courses_last)

    @pytest.mark.parametrize("courses_last", [True, False])
    def test_one_comparison_carries_the_head_and_the_tail(self, courses_last):
        """With one entry, the text before and after the course list folds into that same entry."""
        self._check([("C1", Fraction(41, 10), Fraction(19, 5))], CombinePolicy.MEAN_OF_BOTH, True, courses_last)

    @staticmethod
    def _check(rows, policy, rounded, courses_last):
        if rounded:  # the default 1-decimal comparison; otherwise full precision
            rows = [(code, round_half_away(a), round_half_away(e)) for code, a, e in rows]
        report = summarize([compare(a, e, code) for code, a, e in rows])
        finals = [final_difficulty(e, a, policy) for _, a, e in rows]
        codes = [code for code, _, _ in rows]
        head = {"mode": codes[0], "accuracy": float(report.accuracy)}
        tail = {} if courses_last else {"excluded_courses": codes, "inputs": [{"path": codes[-1]}]}
        entries = [
            {
                "course_code": code,
                "actual_di": float(a),
                "estimated_di": float(e),
                "abs_error": float(abs(a - e)),
                "squared_error": float((a - e) ** 2),
                "final_di": float(final),
            }
            for (code, a, e), final in zip(rows, finals)
        ]
        text = data_io.render_report_json({**head, "courses": [], **tail}, report, finals)
        assert text == json.dumps({**head, "courses": entries, **tail}, indent=2) + "\n"


ROUND_TRIP = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestRoundTrips:
    @ROUND_TRIP
    @given(catalogs())
    def test_catalog(self, tmp_path, catalog):
        for name in ("cat.csv", "cat.json"):
            data_io.write_catalog(catalog, tmp_path / name)
            loaded = data_io.load_catalog(tmp_path / name)
            assert loaded.criteria == catalog.criteria

    @ROUND_TRIP
    @given(curricula())
    def test_curriculum(self, tmp_path, data):
        catalog, courses = data
        for name in ("cur.csv", "cur.json"):
            data_io.write_curriculum(courses, tmp_path / name)
            assert data_io.load_curriculum(tmp_path / name, catalog) == courses

    @ROUND_TRIP
    @given(grade_maps())
    def test_grades(self, tmp_path, grades):
        for name in ("g.csv", "g.json"):
            data_io.write_grades(grades, tmp_path / name)
            assert data_io.load_grades(tmp_path / name) == grades

    @pytest.mark.parametrize("name", ["g.csv", "g.json"])
    def test_grades_keep_every_digit(self, tmp_path, name):
        value = Fraction("33.333333333333333333")
        grades = {"C1": GradeHistory("C1", (GenerationRecord("g1", GradeKind.PERCENT, value),))}
        data_io.write_grades(grades, tmp_path / name)
        assert "33.333333333333333333" in (tmp_path / name).read_text(encoding="utf-8")
        assert data_io.load_grades(tmp_path / name) == grades

    def test_a_carriage_return_in_a_json_cell_is_refused_before_any_csv_is_written(self, tmp_path, capsys):
        """A ``\\r`` cannot survive a CSV file, where reading translates it to a newline: a JSON title holding
        one once loaded, and its curriculum then wrote a CSV file that failed to load. It exits 2 at load."""
        path = _write(tmp_path / "c.json",
                      '{"courses": [{"course_code": "C1", "title": "Intro\\rPart 2", "criteria": ["a"]}]}')
        message = f"{path}: courses[0].title must not contain a carriage return"
        with pytest.raises(DataFormatError) as exc:
            data_io.load_curriculum(path, canonical_catalog())
        assert (str(exc.value), exc.value.exit_code) == (message, 2)
        argv = ["estimate", "--catalog", str(data_io.fixture_path("table1.json")), "--curriculum", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        fine = _write(tmp_path / "fine.json",
                      '{"courses": [{"course_code": "C1", "title": "Intro\\nPart 2", "criteria": ["a"]}]}')
        courses = data_io.load_curriculum(fine, canonical_catalog())
        data_io.write_curriculum(courses, tmp_path / "c.csv")  # a newline is quoted, and reads back
        assert data_io.load_curriculum(tmp_path / "c.csv", canonical_catalog()) == courses

    def test_a_lone_surrogate_exits_2_and_a_pair_loads(self, tmp_path, capsys):
        """``estimate --format csv`` and ``grades --format json`` refuse a lone surrogate; an escaped pair is
        one character, which loads and writes back through CSV."""
        lone = _write(tmp_path / "c.json", '{"courses": [{"course_code": "\\ud800", "criteria": ["a"]}]}')
        argv = ["estimate", "--catalog", str(data_io.fixture_path("table1.json")), "--curriculum", str(lone)]
        assert main([*argv, "--format", "csv"]) == 2
        assert capsys.readouterr() == ("", f"error: {lone}: courses[0].course_code must not contain "
                                           "a lone surrogate (\\ud800)\n")
        grades = _write(tmp_path / "g.json", '{"courses": [{"course_code": "C1", '
                                             '"generations": [{"label": "\\udc80", "kind": "di", "value": 1}]}]}')
        assert main(["grades", "--grades", str(grades), "--format", "json"]) == 2
        assert capsys.readouterr().out == ""
        pair = _write(tmp_path / "p.json", '{"courses": [{"course_code": "\\ud83d\\ude00", "criteria": ["a"]}]}')
        courses = data_io.load_curriculum(pair, canonical_catalog())
        assert courses[0].code == "\U0001F600"
        data_io.write_curriculum(courses, tmp_path / "p.csv")
        assert data_io.load_curriculum(tmp_path / "p.csv", canonical_catalog()) == courses

    @pytest.mark.parametrize("name", ["lex.csv", "lex.json"])
    def test_lexicon(self, tmp_path, default_lexicon, name):
        data_io.write_lexicon(default_lexicon, tmp_path / name)
        assert data_io.load_lexicon(tmp_path / name) == default_lexicon


class TestShippedFixtures:
    def test_catalog_fixture_matches_generated_bytes(self, tmp_path):
        data_io.write_catalog(canonical_catalog(), tmp_path / "table1.json")
        assert (tmp_path / "table1.json").read_bytes() == data_io.fixture_path("table1.json").read_bytes()

    def test_copy_fixtures_writes_all(self, tmp_path):
        written = data_io.copy_fixtures(tmp_path / "out")
        assert sorted(p.name for p in written) == sorted(data_io.FIXTURE_NAMES)
        for p in written:
            assert p.stat().st_size > 0

    def test_unknown_fixture_name(self):
        with pytest.raises(ValueError):
            data_io.fixture_path("missing.csv")

    def test_default_lexicon_has_ambiguous_verbs(self, default_lexicon):
        assert default_lexicon.levels_for("describe") == frozenset(
            {BloomLevel.REMEMBER, BloomLevel.UNDERSTAND}
        )
        assert default_lexicon.levels_for("write") == frozenset(
            {BloomLevel.APPLY, BloomLevel.CREATE}
        )

    def test_curriculum_fixtures_agree_except_overrides(self, catalog, fixture_dir):
        printed = data_io.load_curriculum(fixture_dir / "table2_asprinted.csv", catalog)
        canonical = data_io.load_curriculum(fixture_dir / "table2_canonical.csv", catalog)
        assert [c.code for c in printed] == [c.code for c in canonical]
        for p, c in zip(printed, canonical):
            assert p.criteria == c.criteria
            assert c.cell_overrides == {}


class TestDataBundle:
    def test_cross_references_and_provenance(self, fixture_dir, tmp_path):
        extra = _write(
            tmp_path / "grades.csv",
            "course_code,generation,kind,value\nC1,g1,di,4.0\nGHOST,g1,di,1.0\n",
        )
        bundle = data_io.load_bundle(
            fixture_dir / "table1.json", fixture_dir / "table2_asprinted.csv", extra
        )
        assert bundle.unmatched_grade_codes() == ("GHOST",)
        assert set(bundle.courses_without_grades()) == {f"C{i}" for i in range(2, 12)}
        roles = [role for role, _, _ in bundle.provenance]
        assert roles == ["catalog", "curriculum", "grades"]
        for _, path, digest in bundle.provenance:
            assert len(digest) == 64

    def test_full_bundle_has_no_warnings(self, fixture_dir):
        bundle = data_io.load_bundle(
            fixture_dir / "table1.json",
            fixture_dir / "table2_asprinted.csv",
            fixture_dir / "table3_grades.csv",
        )
        assert bundle.unmatched_grade_codes() == ()
        assert bundle.courses_without_grades() == ()


def test_blank_statement_text_names_the_stripped_id_at_its_line(tmp_path):
    path = _write(tmp_path / "s.csv", "criterion_id,text\na,apply knowledge\n b , \n")
    with pytest.raises(ValidationError) as exc:
        data_io.load_statements(path)
    assert str(exc.value) == f"{path}:3: statement 'b' has empty text"
