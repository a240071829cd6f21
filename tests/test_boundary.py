"""The input boundary: rows as cell tuples, records checked once and built once, each input read once.

A loader builds each ``GenerationRecord`` and ``Course`` through its public
constructor. The property suites hold the loader and the constructor to one
result: equal, equally hashed and equally printed records, or the same error,
named at the record's line or entry. Column order and extra columns or keys
change nothing, and a file's bytes are read once, hashed as they are and
decoded as text-mode reading decodes them. A record with read-only mappings pickles and
deep-copies through its public constructor, so its rules are checked again; so does a grade
record, whose stored di pair is computed again rather than carried over.
"""

import builtins
import copy
import csv
import dataclasses
import hashlib
import io
import json
import pickle
import tempfile
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from course_difficulty import data_io
from course_difficulty.cli import main
from course_difficulty.engine import (
    Course,
    GenerationRecord,
    GradeHistory,
    GradeKind,
    bloom_difficulty,
)
from course_difficulty.errors import (
    CourseDifficultyError,
    DataFormatError,
    InsufficientDataError,
    InvalidGradeError,
    ValidationError,
)
from course_difficulty.mapper import OutcomeStatement
from course_difficulty.taxonomy import BloomLevel, BloomLexicon, CriterionCatalog, canonical_catalog
from course_difficulty.validation import CourseComparison, compare

EXAMPLES = settings(max_examples=60, deadline=None)
CATALOG = canonical_catalog()

# free text a CSV cell and a JSON string both carry verbatim (no control characters)
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=4)
PADDED_IDS = st.sampled_from(["a", "b", "h", "k", " a", "h ", ""])  # in the catalog, once stripped
POINTS = st.integers(min_value=-2, max_value=24)  # 1..21 is in range
MALFORMED = ["", "x", "1e2", "1/2", "nan", "inf", "4_0", "--1", "٥"]


def _decimal(units, places):
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10**places)
    return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"


VALUE_TEXTS = st.one_of(
    st.builds(_decimal, st.integers(min_value=-60, max_value=1100), st.integers(min_value=0, max_value=2)),
    st.sampled_from(["0", "5", "5.0", "100", "100.00", ".5", "+3"]),  # repeated literals, at the bounds
    st.sampled_from(MALFORMED),
)


def _write_csv(path, columns, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
    path.write_text(buf.getvalue(), encoding="utf-8", newline="")
    return path


def _outcome(build):
    """``build()``'s result, or the class and message of the package error it raised."""
    try:
        return build(), None
    except CourseDifficultyError as exc:
        return None, (type(exc), str(exc))


def _assert_same_record(loaded, built):
    assert loaded == built
    assert repr(loaded) == repr(built)
    try:
        expected_hash = hash(built)
    except TypeError:  # a Course holds its overrides in a dict
        with pytest.raises(TypeError):
            hash(loaded)
    else:
        assert hash(loaded) == expected_hash


# ---------------------------------------------------------------------------
# the loader path equals the checked path
# ---------------------------------------------------------------------------

GRADE_ROWS = st.lists(st.tuples(TEXT, st.sampled_from(list(GradeKind)), VALUE_TEXTS), min_size=1, max_size=4)


class TestGradeRecordsBuiltOnce:
    @EXAMPLES
    @given(rows=GRADE_ROWS, form=st.sampled_from(["csv", "json"]))
    @example(rows=[("g", GradeKind.PERCENT, "50"), ("g", GradeKind.DI, "50")], form="csv")
    @example(rows=[(" ", GradeKind.DI, "x")], form="json")
    @example(rows=[(" ", GradeKind.DI, "9")], form="csv")
    def test_loader_matches_constructor(self, rows, form):
        """One course per row, so only the record's own rules can fail it."""
        built, error, failing = [], None, None
        for i, (label, kind, text) in enumerate(rows):
            record, error = _outcome(lambda: GenerationRecord(label=label.strip(), kind=kind, value=text))
            if error is not None:
                failing = i
                break
            built.append(record)
        with tempfile.TemporaryDirectory() as tmp:
            if form == "csv":
                path = _write_csv(
                    Path(tmp) / "g.csv", data_io.GRADES_COLUMNS,
                    [(f"C{i}", label, kind.value, text) for i, (label, kind, text) in enumerate(rows)],
                )
                locator = f"{failing + 2}" if error else None
            else:
                path = Path(tmp) / "g.json"
                courses = [
                    {"course_code": f"C{i}", "generations": [{"label": label, "kind": kind.value, "value": text}]}
                    for i, (label, kind, text) in enumerate(rows)
                ]
                path.write_text(json.dumps({"courses": courses}), encoding="utf-8")
                locator = f"courses[{failing}].generations[0]" if error else None
            histories, loaded_error = _outcome(lambda: data_io.load_grades(path))
            if error is not None:
                assert loaded_error == (error[0], f"{path}:{locator}: {error[1]}")
                return
        assert loaded_error is None
        loaded = [history.generations[0] for history in histories.values()]
        assert len(loaded) == len(built)
        for record, expected in zip(loaded, built):
            _assert_same_record(record, expected)


COURSES = st.fixed_dictionaries({
    "code": TEXT,
    "title": TEXT,
    "criteria": st.lists(PADDED_IDS, max_size=5),
    "overrides": st.dictionaries(st.sampled_from(["a", "b", "h", "k", "z"]), POINTS, max_size=3),
})


class TestCoursesBuiltOnce:
    @EXAMPLES
    @given(course=COURSES, form=st.sampled_from(["csv", "json"]))
    @example(course={"code": "X", "title": "", "criteria": ["a", "a"], "overrides": {}}, form="csv")
    @example(course={"code": " ", "title": "", "criteria": [], "overrides": {}}, form="json")
    @example(course={"code": "X", "title": "t", "criteria": ["a", "h"], "overrides": {"h": 22}}, form="json")
    @example(course={"code": "X", "title": "t", "criteria": ["a", "h"], "overrides": {"z": 5}}, form="csv")
    def test_loader_matches_constructor(self, course, form):
        criteria = tuple(c.strip() for c in course["criteria"] if c.strip())
        built, error = _outcome(lambda: Course(
            code=course["code"].strip(), criteria=criteria,
            title=course["title"] or None, cell_overrides=course["overrides"],
        ))
        with tempfile.TemporaryDirectory() as tmp:
            if form == "csv":
                cell = "|".join(f"{cid}:{points}" for cid, points in course["overrides"].items())
                row = (course["code"], course["title"], "|".join(course["criteria"]), cell)
                path = _write_csv(Path(tmp) / "cur.csv", data_io.CURRICULUM_COLUMNS, [row])
                locator = "2"
            else:
                entry = {"course_code": course["code"], "title": course["title"],
                         "criteria": course["criteria"], "overrides": course["overrides"]}
                path = Path(tmp) / "cur.json"
                path.write_text(json.dumps({"courses": [entry]}), encoding="utf-8")
                locator = "courses[0]"
            courses, loaded_error = _outcome(lambda: data_io.load_curriculum(path, CATALOG))
            if error is not None:
                assert loaded_error == (error[0], f"{path}:{locator}: {error[1]}")
                return
        assert loaded_error is None
        (loaded,) = courses
        _assert_same_record(loaded, built)
        canonical = Course(code=built.code, criteria=built.criteria, title=built.title)
        _assert_same_record(loaded.without_overrides(), canonical)


FROZEN = dataclasses.FrozenInstanceError
NO_DICT = (AttributeError, TypeError)  # a new name has no __dict__ to go to (Python 3.11 raises TypeError)


def _write(record, name, value):
    """``setattr(record, name, value)``, or, for a ``name`` of the form ``attr[key]``,
    an item assignment into the mapping ``record.attr``."""
    attr, _, key = name.partition("[")
    if key:
        getattr(record, attr)[key.rstrip("]")] = value
    else:
        setattr(record, name, value)


class TestRecordsStayImmutable:
    @pytest.mark.parametrize("name,value,error", [("label", "h", FROZEN), ("value", Fraction(1), FROZEN),
                                                  ("extra", 1, NO_DICT)])
    def test_grade_record(self, fixture_dir, name, value, error):
        built = GenerationRecord("g", GradeKind.DI, Fraction(2))
        loaded = data_io.load_grades(fixture_dir / "table3_grades.csv")["C1"].generations[0]
        for record in (built, loaded):
            with pytest.raises(error):
                setattr(record, name, value)
            assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("name,value,error", [("course_code", "Y", FROZEN), ("generations", (), FROZEN),
                                                  ("extra", 1, NO_DICT)])
    def test_grade_history(self, fixture_dir, name, value, error):
        built = GradeHistory("C1", (GenerationRecord("g", GradeKind.DI, Fraction(2)),))
        loaded = data_io.load_grades(fixture_dir / "table3_grades.csv")["C1"]
        for history in (built, loaded):
            with pytest.raises(error):
                setattr(history, name, value)
            assert not hasattr(history, "__dict__")
            assert _pickled(history) == history == copy.deepcopy(history)

    @pytest.mark.parametrize("name,value,error", [("code", "Y", FROZEN), ("criteria", ("a",), FROZEN),
                                                  ("extra", 1, NO_DICT),
                                                  # a checked override cannot be replaced or added afterwards
                                                  ("cell_overrides[a]", 99, TypeError),
                                                  ("cell_overrides[h]", 99, TypeError)])
    def test_course(self, fixture_dir, name, value, error):
        overrides = {"h": 5}
        built = Course("X", ("a", "h"), cell_overrides=overrides)
        overrides["a"] = 99  # the course keeps its own copy
        loaded = data_io.load_curriculum(fixture_dir / "table2_asprinted.csv", CATALOG)[8]
        for course in (built, loaded, loaded.without_overrides()):
            with pytest.raises(error):
                _write(course, name, value)
            assert not hasattr(course, "__dict__")
            assert dict(course.cell_overrides) in ({"h": 5}, {})  # the write changed nothing

    def test_catalog_and_lexicon(self, fixture_dir):
        """The shipped catalog and lexicon are loaded once and shared, so no caller may write into them."""
        assert canonical_catalog() is canonical_catalog()
        assert data_io.default_lexicon() is data_io.default_lexicon()
        catalogs = (canonical_catalog(), data_io.load_catalog(fixture_dir / "table1.json"),
                    CriterionCatalog.from_criteria([CATALOG["a"], CATALOG["j"]]))
        lexicons = (data_io.default_lexicon(), BloomLexicon({level: {level.name} for level in BloomLevel}))
        writes = [(c.criteria, "j", CATALOG["a"]) for c in catalogs] + [(c.rubrics, "j", 21) for c in catalogs]
        writes += [(lexicon.entries, BloomLevel.CREATE, frozenset({"write"})) for lexicon in lexicons]
        for mapping, key, value in writes:
            with pytest.raises(TypeError):
                mapping[key] = value
        for catalog in catalogs:
            assert catalog["j"].levels == {BloomLevel.REMEMBER} and catalog.rubrics["j"] == 1
        assert "write" not in lexicons[1].entries[BloomLevel.CREATE]


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


ROUND_TRIPS = {  # name -> (build, slotted, the read-only mappings with a key and value to write into each)
    "course": (lambda: Course("X", ("a", "h"), "T", cell_overrides={"h": 5}), True,
               lambda course: [(course.cell_overrides, "a", 99)]),
    "canonical_catalog": (canonical_catalog, False,
                          lambda catalog: [(catalog.criteria, "j", CATALOG["a"]), (catalog.rubrics, "j", 21)]),
    "default_lexicon": (data_io.default_lexicon, False,
                        lambda lexicon: [(lexicon.entries, BloomLevel.CREATE, frozenset({"write"}))]),
    "bloom_difficulty": (lambda: bloom_difficulty(Course("X", ("a", "h"), cell_overrides={"h": 5}), CATALOG), True,
                         lambda result: []),
    "grade_history": (lambda: GradeHistory("X", (GenerationRecord("g", GradeKind.PERCENT, Fraction(45)),)), True,
                      lambda history: []),
    "grade_record": (lambda: GenerationRecord("g", GradeKind.PERCENT, Fraction(45)), True, lambda record: []),
    "course_comparison": (lambda: CourseComparison("X", 7, 9, 2), True, lambda comparison: []),
}


class TestPickleAndCopy:
    """A record with read-only mappings, or a stored pair, pickles and deep-copies through its public constructor."""

    @pytest.mark.parametrize("copy_with", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
    def test_round_trip(self, name, copy_with):
        build, slotted, writes = ROUND_TRIPS[name]
        original = build()
        restored = copy_with(original)
        assert restored == original and restored is not original
        assert hasattr(restored, "__dict__") is not slotted
        for (mapping, key, value), (before, _, _) in zip(writes(restored), writes(original), strict=True):
            assert type(mapping) is MappingProxyType and mapping == before
            with pytest.raises(TypeError):
                mapping[key] = value

    def test_a_pickled_course_is_checked_again_on_load(self):
        course = object.__new__(Course)  # out of range, so only its slots can hold it
        for name, value in [("code", "X"), ("criteria", ("a",)), ("title", None),
                            ("cell_overrides", MappingProxyType({"a": 99}))]:
            Course.__dict__[name].__set__(course, value)
        data = pickle.dumps(course)
        with pytest.raises(ValidationError, match="outside 1..21"):
            pickle.loads(data)

    def test_a_pickled_grade_record_is_checked_again_on_load(self):
        record = object.__new__(GenerationRecord)  # out of range, so only its slots can hold it
        for name, value in [("label", "g"), ("kind", GradeKind.DI), ("value", Fraction(9)), ("_pair", (9, 1))]:
            GenerationRecord.__dict__[name].__set__(record, value)
        data = pickle.dumps(record)
        with pytest.raises(InvalidGradeError, match=r"difficulty value 9 outside \[0, 5\]"):
            pickle.loads(data)
        with pytest.raises(InvalidGradeError, match=r"difficulty value 9 outside \[0, 5\]"):
            copy.deepcopy(record)

    @pytest.mark.parametrize("copy_with", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_a_grade_record_computes_its_pair_again_on_load(self, copy_with):
        """The stored pair is never carried over: the copy's constructor computes it from the value."""
        record = object.__new__(GenerationRecord)
        for name, value in [("label", "g"), ("kind", GradeKind.PERCENT), ("value", Fraction(45)), ("_pair", (0, 1))]:
            GenerationRecord.__dict__[name].__set__(record, value)
        restored = copy_with(record)
        assert restored == record and restored.di_pair() == (275, 100) and restored.di() == Fraction(11, 4)


class TestLexiconVerbTable:
    """A lexicon's compiled ``levels_by_verb`` table is read-only, compiled again by every copy, and takes no
    part in eq, hash or repr, as a catalog's ``rubrics`` table does."""

    def test_read_only(self):
        lexicon = data_io.default_lexicon()
        assert type(lexicon.levels_by_verb) is MappingProxyType
        with pytest.raises(TypeError):
            lexicon.levels_by_verb["write"] = frozenset({BloomLevel.REMEMBER})
        with pytest.raises(TypeError):
            del lexicon.levels_by_verb["write"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            lexicon.levels_by_verb = {}
        assert lexicon.levels_for("write") == {BloomLevel.APPLY, BloomLevel.CREATE}

    @pytest.mark.parametrize("copy_with", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_a_copy_compiles_its_own_table(self, copy_with):
        lexicon = BloomLexicon({level: {level.name.lower(), "Shared "} for level in BloomLevel})
        object.__setattr__(lexicon, "levels_by_verb", MappingProxyType({}))  # a stale table that no copy may carry
        restored = copy_with(lexicon)
        assert restored == lexicon  # the stale table takes no part in eq
        assert type(restored.levels_by_verb) is MappingProxyType
        assert dict(restored.levels_by_verb) == {"shared": frozenset(BloomLevel),
                                                 **{level.name.lower(): frozenset({level}) for level in BloomLevel}}
        with pytest.raises(TypeError):
            restored.levels_by_verb["shared"] = frozenset()

    def test_no_part_in_eq_hash_or_repr(self):
        table, rubrics = (next(f for f in dataclasses.fields(cls) if f.name == name)
                          for cls, name in ((BloomLexicon, "levels_by_verb"), (CriterionCatalog, "rubrics")))
        assert (table.init, table.repr, table.compare, table.hash) == (rubrics.init, rubrics.repr, rubrics.compare,
                                                                      rubrics.hash) == (False, False, False, None)
        lexicon = data_io.default_lexicon()
        assert "levels_by_verb" not in repr(lexicon) and repr(lexicon).startswith("BloomLexicon(entries=")
        assert BloomLexicon(dict(lexicon.entries)) == lexicon


RECORDS = (GenerationRecord("g1", GradeKind.DI, Fraction(2)), GenerationRecord("g2", GradeKind.PERCENT, Fraction(45)))


class TestSlotWritingConstructors:
    """``GenerationRecord``, ``GradeHistory`` and ``CourseComparison`` write their slots in a hand-written
    ``__init__``, which takes the arguments, keeps the rules and messages, and builds the values of the
    generated one it replaced."""

    @pytest.mark.parametrize("label,kind,value,error,message", [
        ("", GradeKind.DI, "x", DataFormatError, "cannot parse grade value 'x' as a decimal number"),  # value first
        ("", GradeKind.DI, 1.5, DataFormatError, "grade value must be a Fraction, an int or a decimal string, got 1.5"),
        ("", GradeKind.DI, Fraction(9), ValidationError, "generation label must be non-empty"),  # then the label
        ("g", GradeKind.DI, "9", InvalidGradeError, "generation 'g': difficulty value 9 outside [0, 5]"),
        ("g", GradeKind.DI, Fraction(-1, 10), InvalidGradeError, "generation 'g': difficulty value -1/10 outside [0, 5]"),
        ("g", GradeKind.PERCENT, -1, InvalidGradeError, "generation 'g': percent value -1 outside [0, 100]"),
        ("g", GradeKind.PERCENT, "100.5", InvalidGradeError, "generation 'g': percent value 201/2 outside [0, 100]"),
    ], ids=["malformed-no-label", "float-no-label", "no-label-out-of-range", "di-high", "di-low", "percent-low",
            "percent-high"])
    def test_record_rules(self, label, kind, value, error, message):
        with pytest.raises(error) as exc:
            GenerationRecord(label, kind, value)
        assert (type(exc.value), str(exc.value)) == (error, message)

    def test_record_construction(self):
        value = Fraction(45)
        built = [GenerationRecord("g", GradeKind.PERCENT, value), GenerationRecord("g", GradeKind.PERCENT, "45"),
                 GenerationRecord("g", kind=GradeKind.PERCENT, value=45),
                 GenerationRecord(label="g", kind=GradeKind.PERCENT, value=Fraction("45.0"))]
        for record in built:
            assert record == built[0] and hash(record) == hash(built[0])
            assert (record.label, record.kind, record.value, record.di_pair()) == (
                "g", GradeKind.PERCENT, value, (275, 100))
            assert record.di() == Fraction(11, 4) and type(record.value) is Fraction
        assert built[0].value is value  # a Fraction is kept as it is
        assert GenerationRecord("g", GradeKind.DI, "2.75").di_pair() == (11, 4)
        assert GenerationRecord("g", GradeKind.DI, Fraction(11, 4)) != built[0] != GenerationRecord("h", GradeKind.PERCENT, 45)
        assert repr(built[0]) == "GenerationRecord(label='g', kind=<GradeKind.PERCENT: 'percent'>, value=Fraction(45, 1))"
        assert GenerationRecord.__match_args__ == ("label", "kind", "value")
        assert GenerationRecord.__init__.__qualname__ == "GenerationRecord.__init__"
        with pytest.raises(TypeError, match=r"^GenerationRecord.__init__\(\) missing 1 required positional argument: 'value'$"):
            GenerationRecord("g", GradeKind.DI)
        with pytest.raises(TypeError, match=r"^GenerationRecord.__init__\(\) got an unexpected keyword argument '_pair'$"):
            GenerationRecord("g", GradeKind.DI, 1, _pair=(9, 1))
        for name in ("label", "_pair"):
            with pytest.raises(FROZEN):
                setattr(built[0], name, "h")
        assert not hasattr(built[0], "__dict__")

    @pytest.mark.parametrize("code,records,error,message", [
        ("", (), ValidationError, "course code must be non-empty"),  # the code is checked first
        ("", RECORDS, ValidationError, "course code must be non-empty"),
        ("X", (), InsufficientDataError, "course 'X' has no generation records"),
        ("X", (*RECORDS, GenerationRecord("g1", GradeKind.DI, Fraction(3))), ValidationError,
         "course 'X' repeats a generation label"),
    ], ids=["no-code-no-records", "no-code", "no-records", "repeated-label"])
    def test_history_rules(self, code, records, error, message):
        generations = iter(records)
        with pytest.raises(error) as exc:
            GradeHistory(code, generations)
        assert (type(exc.value), str(exc.value)) == (error, message)
        assert next(generations, None) is (records[0] if records and not code else None)  # read after the code

    def test_history_construction(self):
        built = [GradeHistory("X", RECORDS), GradeHistory(course_code="X", generations=list(RECORDS)),
                 GradeHistory("X", generations=(record for record in RECORDS))]
        for history in built:
            assert history == built[0] and hash(history) == hash(built[0])
            assert (history.course_code, type(history.generations), history.generations) == ("X", tuple, RECORDS)
        assert GradeHistory("Y", RECORDS) != built[0] != GradeHistory("X", RECORDS[:1])
        assert repr(built[0]) == f"GradeHistory(course_code='X', generations={RECORDS!r})"
        assert GradeHistory.__init__.__qualname__ == "GradeHistory.__init__"
        with pytest.raises(TypeError, match=r"^GradeHistory.__init__\(\) missing 1 required positional argument"):
            GradeHistory("X")

    def test_comparison_construction(self):
        built = [CourseComparison("C1", 7, 9, 2), CourseComparison("C1", 7, estimated_num=9, den=2),
                 CourseComparison(course_code="C1", actual_num=7, estimated_num=9, den=2)]
        for comparison in built:
            assert comparison == built[0] and hash(comparison) == hash(built[0])
            assert (comparison.course_code, comparison.actual_num, comparison.estimated_num, comparison.den) == (
                "C1", 7, 9, 2)
        assert built[0] == compare(Fraction(7, 2), Fraction(9, 2), "C1")
        assert CourseComparison("C1", 7, 9, 4) != built[0] != CourseComparison("C2", 7, 9, 2)
        assert repr(built[0]) == "CourseComparison(course_code='C1', actual_num=7, estimated_num=9, den=2)"
        assert CourseComparison.__init__.__qualname__ == "CourseComparison.__init__"
        with pytest.raises(TypeError, match=r"^CourseComparison.__init__\(\) missing 1 required positional"):
            CourseComparison("C1", 7, 9)
        with pytest.raises(FROZEN):
            built[0].den = 1
        assert not hasattr(built[0], "__dict__")


# ---------------------------------------------------------------------------
# rows as tuples: column order, extra columns and extra keys change nothing
# ---------------------------------------------------------------------------

CATALOG_ROWS = [("a", "first outcome", "1|2|3"), ("x1", "another", "Create|4")]
LEXICON_ROWS = [("list", "1|5"), ("explain", "2"), ("apply", "3"), ("analyze", "4"), ("judge", "5"), ("design", "6")]
CURRICULUM_ROWS = [("C1", "Intro", "a|h", "h:5"), ("C2", "", " k | l ", "")]
GRADE_ROWS_FIXED = [("C1", "g1", "percent", "62.5"), ("C1", "g2", "di", "3.1"), ("C2", "g1", "DI", " 4 ")]
STATEMENT_ROWS = [("a", "Students apply and design systems."), ("b", "  Describe  ")]

LOADERS = {  # name -> (columns, rows, load, a reordered header with an extra column)
    "catalog": (data_io.CATALOG_COLUMNS, CATALOG_ROWS, data_io.load_catalog, ("levels", "note", "id", "description")),
    "lexicon": (data_io.LEXICON_COLUMNS, LEXICON_ROWS, data_io.load_lexicon, ("note", "levels", "verb")),
    "curriculum": (data_io.CURRICULUM_COLUMNS, CURRICULUM_ROWS, lambda p: data_io.load_curriculum(p, CATALOG),
                   ("overrides", "criteria", "note", "title", "course_code")),
    "grades": (data_io.GRADES_COLUMNS, GRADE_ROWS_FIXED, data_io.load_grades,
               ("value", "kind", "note", "generation", "course_code")),
    "statements": (data_io.STATEMENTS_COLUMNS, STATEMENT_ROWS, data_io.load_statements,
                   ("text", "note", "criterion_id")),
}

EXPECTED = {
    "catalog": lambda loaded: [(c.id, c.description, sorted(level.weight for level in c.levels))
                               for c in loaded.criteria.values()]
    == [("a", "first outcome", [1, 2, 3]), ("x1", "another", [4, 6])],
    "lexicon": lambda loaded: {verb: sorted(level.weight for level in loaded.levels_for(verb))
                               for verb, _ in LEXICON_ROWS}
    == {"list": [1, 5], "explain": [2], "apply": [3], "analyze": [4], "judge": [5], "design": [6]},
    "curriculum": lambda loaded: loaded == [
        Course("C1", ("a", "h"), "Intro", {"h": 5}), Course("C2", ("k", "l"), None, {}),
    ],
    "grades": lambda loaded: loaded == {
        "C1": GradeHistory("C1", (GenerationRecord("g1", GradeKind.PERCENT, Fraction("62.5")),
                                  GenerationRecord("g2", GradeKind.DI, Fraction("3.1")))),
        "C2": GradeHistory("C2", (GenerationRecord("g1", GradeKind.DI, Fraction(4)),)),
    },
    "statements": lambda loaded: loaded == [
        OutcomeStatement("a", "Students apply and design systems."), OutcomeStatement("b", "  Describe  "),
    ],
}


class TestColumnOrder:
    @pytest.mark.parametrize("name", sorted(LOADERS))
    def test_reordered_header_with_an_extra_column(self, tmp_path, name):
        columns, rows, load, header = LOADERS[name]
        plain = load(_write_csv(tmp_path / "plain.csv", columns, rows))
        assert EXPECTED[name](plain)
        shuffled = [tuple(dict(zip(columns, row), note="ignored")[c] for c in header) for row in rows]
        loaded = load(_write_csv(tmp_path / "shuffled.csv", header, shuffled))
        if name == "catalog":  # whose provenance is its path
            loaded, plain = loaded.criteria, plain.criteria
        assert loaded == plain

    def test_a_column_named_twice_reads_its_last_cell(self, tmp_path):
        path = _write_csv(tmp_path / "g.csv", (*data_io.GRADES_COLUMNS, "value"), [("C1", "g1", "di", "x", "2.5")])
        assert data_io.load_grades(path)["C1"].generations[0].value == Fraction("2.5")


JSON_FORMS = {  # name -> (entry list key, entries with an unknown key in each object)
    "catalog": ("criteria", [{"id": "a", "description": "first outcome", "levels": [1, 2, 3], "colour": "red"},
                             {"id": "x1", "description": "another", "levels": ["Create", 4], "n": 1}]),
    "lexicon": ("verbs", [{"verb": verb, "levels": [*map(int, cell.split("|"))], "note": None}
                          for verb, cell in LEXICON_ROWS]),
    "curriculum": ("courses", [
        {"course_code": "C1", "title": "Intro", "criteria": ["a", "h"], "overrides": {"h": 5}, "credits": 3},
        {"course_code": "C2", "criteria": [" k ", "l"], "extra": {"nested": [1]}},
    ]),
    "grades": ("courses", [
        {"course_code": "C1", "term": "fall", "generations": [
            {"label": "g1", "kind": "percent", "value": 62.5, "students": 40},
            {"label": "g2", "kind": "di", "value": "3.1", "note": None},
        ]},
        {"course_code": "C2", "generations": [{"label": "g1", "kind": "DI", "value": " 4 ", "x": []}]},
    ]),
}


class TestJsonExtraKeys:
    @pytest.mark.parametrize("name", sorted(JSON_FORMS))
    def test_unknown_key_is_ignored(self, tmp_path, name):
        key, entries = JSON_FORMS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({key: entries}), encoding="utf-8")
        assert EXPECTED[name](LOADERS[name][2](path))


# ---------------------------------------------------------------------------
# each input read once: hashed as bytes, decoded as text-mode reading decodes
# ---------------------------------------------------------------------------

class TestReadOnce:
    def test_crlf_csv_keeps_a_quoted_multiline_title(self, tmp_path):
        path = tmp_path / "cur.csv"
        path.write_bytes(
            b'course_code,title,criteria,overrides\r\nC1,"Line one\r\nline two\rthree",a|h,h:5\r\nC2,plain,k,\r\n'
        )
        assert data_io.load_curriculum(path, CATALOG) == [
            Course("C1", ("a", "h"), "Line one\nline two\nthree", {"h": 5}), Course("C2", ("k",), "plain"),
        ]

    def test_crlf_csv_error_names_its_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_bytes(b'course_code,generation,kind,value\r\nC1,g1,di,1.5\r\nC1,"g\r\n2",di,x\r\n')
        with pytest.raises(CourseDifficultyError) as exc:
            data_io.load_grades(path)
        assert str(exc.value) == f"{path}:4: cannot parse grade value 'x' as a decimal number"

    def test_lone_cr_json_error_names_its_line(self, tmp_path):
        path = tmp_path / "cur.json"
        path.write_bytes(
            b'{"courses": [\r{"course_code": "C1", "criteria": ["a"]},\r{"course_code": "C2",\r"criteria": ["a"],,\r}]}'
        )
        with pytest.raises(CourseDifficultyError) as exc:
            data_io.load_curriculum(path, CATALOG)
        assert str(exc.value) == f"{path}:4: invalid JSON: Expecting property name enclosed in double quotes"

    def test_provenance_is_the_hash_of_the_raw_bytes(self, fixture_dir, tmp_path):
        grades = tmp_path / "grades.csv"
        grades.write_bytes((fixture_dir / "table3_grades.csv").read_bytes().replace(b"\n", b"\r\n"))
        paths = (fixture_dir / "table1.json", fixture_dir / "table2_asprinted.csv", grades)
        bundle = data_io.load_bundle(*paths)
        assert bundle.provenance == tuple(
            (role, str(path), hashlib.sha256(path.read_bytes()).hexdigest())
            for role, path in zip(("catalog", "curriculum", "grades"), paths)
        )
        assert bundle.grades == data_io.load_grades(fixture_dir / "table3_grades.csv")

    def test_validate_opens_each_input_once(self, fixture_dir, monkeypatch, capsys):
        paths = [str(fixture_dir / n) for n in ("table1.json", "table2_asprinted.csv", "table3_grades.csv")]
        opened = []
        original = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return original(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        argv = ["validate", "--catalog", paths[0], "--curriculum", paths[1], "--grades", paths[2], "--format", "json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert [opened.count(p) for p in paths] == [1, 1, 1]
        assert [entry["path"] for entry in report["inputs"]] == paths
