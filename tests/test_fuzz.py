"""Fuzz suites for the loaders and the ``grades``, ``validate``, ``estimate`` and ``map-outcomes`` commands.

Per loader, hypothesis writes entries whose expected keys hold arbitrary JSON
values, or rows whose cells hold arbitrary text. Every file must either load,
and then round-trip exactly through its writer (a JSON file through JSON and
through CSV), or raise ``DataFormatError`` or ``ValidationError`` naming the
file. Nothing else may escape.

Per ``grades`` run on such a file, per ``validate`` or ``estimate`` run on such
a curriculum (and grade file) with the shipped catalog, and per
``map-outcomes`` run on such a statement file, mostly with the shipped lexicon,
the exit code is 0, 1 or 2. A failing run prints nothing on stdout and leaves
no ``--output`` (or ``--plot-data``) file; a passing run writes the same bytes
to ``--output`` as to stdout.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from course_difficulty import data_io
from course_difficulty.cli import main
from course_difficulty.errors import DataFormatError, ValidationError
from course_difficulty.taxonomy import CriterionCatalog, canonical_catalog

EXAMPLES = settings(max_examples=30, deadline=None)  # kept small for tier-1 wall time

# json.dumps writes a lone surrogate as its escape, such as \ud800, which loads back as that one character
LONE_SURROGATES = st.sampled_from(["\ud800", "a\udfff", "\udc80b"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | LONE_SURROGATES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
CELLS = st.text(max_size=8)
LEVELS = st.lists(st.integers(1, 6) | st.sampled_from(["Apply", "create", "7", "x"]), max_size=3)


def _either(plausible):
    return st.one_of(plausible, JSON_VALUES)


def _entries(fields):
    """JSON entries holding a random subset of ``fields``, each a plausible or an arbitrary value."""
    return st.lists(st.fixed_dictionaries({}, optional={k: _either(v) for k, v in fields.items()}), max_size=4)


def _csv_text(columns, plausible_cells):
    rows = st.lists(st.tuples(*(st.one_of(p, CELLS) for p in plausible_cells)), max_size=4)
    return rows.map(lambda rs: _render(columns, rs))


def _render(columns, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
    return buf.getvalue()


def _check(load, write, name, text):
    """Load ``text`` saved as ``name``: it loads and round-trips, or fails naming the file.

    A JSON file is read as the CSV rows it stands for, so what it loads also
    round-trips through CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8", newline="")
        try:
            loaded = load(path)
        except (DataFormatError, ValidationError) as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            return
        for suffix in dict.fromkeys([path.suffix, ".csv"]):
            again = Path(tmp) / f"again{suffix}"
            write(loaded, again)
            assert load(again) == loaded


CATALOG = canonical_catalog()
CODES = st.sampled_from(["C1", "C2", " C1", ""])
LOADERS = {
    # a CSV catalog's provenance is its path, so compare the criteria
    "catalog": (lambda p: data_io.load_catalog(p).criteria, lambda c, p: data_io.write_catalog(CriterionCatalog(c), p)),
    "lexicon": (data_io.load_lexicon, data_io.write_lexicon),
    "curriculum": (lambda p: data_io.load_curriculum(p, CATALOG), data_io.write_curriculum),
    "grades": (data_io.load_grades, data_io.write_grades),
}


@EXAMPLES
@given(_entries({"id": st.sampled_from(["a", " b", ""]), "description": st.text(max_size=4), "levels": LEVELS}))
def test_json_catalog(entries):
    _check(*LOADERS["catalog"], "cat.json", json.dumps({"criteria": entries}))


@EXAMPLES
@given(_csv_text(data_io.CATALOG_COLUMNS, [st.sampled_from(["a", "b "]), st.text(max_size=4), st.just("1|Apply")]))
def test_csv_catalog(text):
    _check(*LOADERS["catalog"], "cat.csv", text)


@EXAMPLES
@given(_entries({"verb": st.sampled_from(["list", " Define", ""]), "levels": LEVELS}))
def test_json_lexicon(entries):
    _check(*LOADERS["lexicon"], "lex.json", json.dumps({"verbs": entries}))


@EXAMPLES
@given(_csv_text(data_io.LEXICON_COLUMNS, [st.sampled_from(["list", "Define "]), st.just("1|2|3|4|5|6")]))
def test_csv_lexicon(text):
    _check(*LOADERS["lexicon"], "lex.csv", text)


CURRICULUM_ENTRIES = _entries({
    "course_code": CODES,
    "title": st.text(max_size=4),
    "criteria": st.lists(st.sampled_from(["a", "h", " k", "z"]), max_size=3),
    "overrides": st.dictionaries(st.sampled_from(["a", "h"]), st.integers(0, 22) | st.sampled_from(["5", "1_0"])),
})
CURRICULUM_CSV = _csv_text(data_io.CURRICULUM_COLUMNS, [CODES, st.text(max_size=4), st.just("a|h"), st.just("h:5")])


@EXAMPLES
@given(CURRICULUM_ENTRIES)
@example([{"course_code": "C1", "title": "Intro\rPart 2", "criteria": ["a"]}])  # no CSV cell holds a \r
@example([{"course_code": "C1", "title": "Intro\nPart 2", "criteria": ["a"]}])
@example([{"course_code": "\ud800", "criteria": ["a"]}])  # no UTF-8 output holds a lone surrogate
def test_json_curriculum(entries):
    _check(*LOADERS["curriculum"], "cur.json", json.dumps({"courses": entries}))


@EXAMPLES
@given(CURRICULUM_CSV)
def test_csv_curriculum(text):
    _check(*LOADERS["curriculum"], "cur.csv", text)


GENERATION = st.fixed_dictionaries({}, optional={
    "label": _either(st.sampled_from(["g1", "g2 ", ""])),
    "kind": _either(st.sampled_from(["di", "Percent", ""])),
    "value": _either(st.decimals(-1, 101, places=3, allow_nan=False).map(str) | st.integers(0, 5)),
})


@EXAMPLES
@given(st.lists(
    st.fixed_dictionaries({}, optional={"course_code": _either(CODES), "generations": _either(st.lists(GENERATION, max_size=3))}),
    max_size=3,
))
@example([{"course_code": "C1", "generations": [{"label": "g\r1", "kind": "di", "value": 1}]}])
@example([{"course_code": "C1", "generations": [{"label": "\udc80", "kind": "di", "value": 1}]}])
def test_json_grades(entries):
    _check(*LOADERS["grades"], "g.json", json.dumps({"courses": entries}))


@EXAMPLES
@given(_csv_text(data_io.GRADES_COLUMNS, [CODES, st.sampled_from(["g1", "g2"]), st.just("di"), st.just("4.25")]))
def test_csv_grades(text):
    _check(*LOADERS["grades"], "g.csv", text)


GRADE_CELLS = [
    CODES,
    st.sampled_from(["g1", "g2", "g2 "]),
    st.sampled_from(["di", "percent", "DI"]),
    st.decimals(-1, 101, places=3, allow_nan=False).map(str) | st.sampled_from(["4.25", "35", "1e1", "4.250"]),
]
GRADE_FILES = st.one_of(
    st.tuples(st.just("g.csv"), _csv_text(data_io.GRADES_COLUMNS, GRADE_CELLS)),
    st.tuples(st.just("g.json"), st.lists(
        st.fixed_dictionaries({}, optional={
            "course_code": _either(CODES), "generations": _either(st.lists(GENERATION, max_size=3)),
        }),
        max_size=3,
    ).map(lambda entries: json.dumps({"courses": entries}))),
    st.tuples(st.sampled_from(["g.csv", "g.json"]), st.text(max_size=40)),
)


def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@EXAMPLES
@given(GRADE_FILES, st.sampled_from(["table", "csv", "json"]))
def test_grades_cli(grade_file, fmt):
    name, text = grade_file
    with tempfile.TemporaryDirectory() as tmp:
        path, output = Path(tmp) / name, Path(tmp) / "out.txt"
        path.write_text(text, encoding="utf-8", newline="")
        argv = ["grades", "--grades", str(path), "--format", fmt]
        code, out, err = _cli_run(argv)
        assert code in (0, 1, 2)
        assert (code, out == "") in ((0, False), (1, True), (2, True)), err
        assert _cli_run([*argv, "--output", str(output)]) == (code, "", err)
        assert (output.read_text(encoding="utf-8") if output.exists() else None) == (out if code == 0 else None)


VALIDATE_CODES = st.sampled_from(["C1", "C2", "C3"])
CURRICULUM_FILES = st.one_of(
    st.tuples(st.just("cur.csv"), st.lists(VALIDATE_CODES, min_size=1, unique=True).map(
        lambda codes: _render(data_io.CURRICULUM_COLUMNS, [(code, "", "a|h", "h:5") for code in codes])
    )),
    st.tuples(st.just("cur.csv"), CURRICULUM_CSV),
    st.tuples(st.just("cur.json"), CURRICULUM_ENTRIES.map(lambda entries: json.dumps({"courses": entries}))),
    st.tuples(st.sampled_from(["cur.csv", "cur.json"]), st.text(max_size=40)),
)
VALIDATE_FLAGS = st.tuples(
    st.sampled_from([["--format", "table"], ["--format", "csv"], ["--format", "json"]]),
    st.sampled_from([[], ["--mode", "as-printed"]]),
    st.sampled_from([[], ["--policy", "mean-of-both"]]),
    st.sampled_from([[], ["--full-precision"]]),
    st.sampled_from([[], ["--strict"]]),
).map(lambda parts: [flag for part in parts for flag in part])


# valid grade files, so that a run with a valid curriculum can pass
VALIDATE_GRADE_FILES = st.one_of(
    st.tuples(st.just("g.csv"), st.lists(st.tuples(VALIDATE_CODES, st.decimals(0, 5, places=2)), min_size=1, max_size=6).map(
        lambda rows: _render(data_io.GRADES_COLUMNS, [(code, f"g{i}", "di", format(v, "f")) for i, (code, v) in enumerate(rows)])
    )),
    GRADE_FILES,
)


def _fixture_text(name):
    return data_io.fixture_path(name).read_text(encoding="utf-8")


@EXAMPLES
@given(CURRICULUM_FILES, VALIDATE_GRADE_FILES, VALIDATE_FLAGS)
@example(("cur.csv", _fixture_text("table2_asprinted.csv")), ("g.csv", _fixture_text("table3_grades.csv")), [])
def test_validate_cli(curriculum_file, grade_file, flags):
    files = {"table1.json": _fixture_text("table1.json"), **dict([curriculum_file, grade_file])}  # distinct names
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8", newline="")
        catalog, curriculum, grades = (str(Path(tmp) / name) for name in files)
        output, plot = Path(tmp) / "out.txt", Path(tmp) / "plot.csv"
        argv = ["validate", "--catalog", catalog, "--curriculum", curriculum, "--grades", grades, *flags]
        code, out, err = _cli_run(argv)
        assert code in (0, 1, 2)
        assert (code, out == "") in ((0, False), (1, True), (2, True)), err
        assert _cli_run([*argv, "--output", str(output), "--plot-data", str(plot)]) == (code, "", err)
        assert (output.read_text(encoding="utf-8") if output.exists() else None) == (out if code == 0 else None)
        assert plot.exists() == (code == 0)


FORMAT_FLAGS = st.sampled_from([["--format", "table"], ["--format", "csv"], ["--format", "json"]])


def _assert_all_or_nothing(argv, output):
    """Exit 0, 1 or 2; a failing run prints nothing on stdout and leaves no ``output``
    file, and a passing run writes its stdout bytes there."""
    code, out, err = _cli_run(argv)
    assert (code, out == "") in ((0, False), (1, True), (2, True)), err
    assert _cli_run([*argv, "--output", str(output)]) == (code, "", err)
    assert (output.read_bytes() if output.exists() else None) == (out.encode("utf-8") if code == 0 else None)


@EXAMPLES
@given(CURRICULUM_FILES, FORMAT_FLAGS, st.sampled_from([[], ["--mode", "as-printed"]]))
@example(("cur.csv", _fixture_text("table2_asprinted.csv")), ["--format", "table"], [])
def test_estimate_cli(curriculum_file, fmt, mode):
    files = {"table1.json": _fixture_text("table1.json"), curriculum_file[0]: curriculum_file[1]}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8", newline="")
        catalog, curriculum = (str(Path(tmp) / name) for name in files)
        argv = ["estimate", "--catalog", catalog, "--curriculum", curriculum, *fmt, *mode]
        _assert_all_or_nothing(argv, Path(tmp) / "out.txt")


STATEMENT_TEXTS = st.sampled_from(["Students design and analyze systems.", "Describe", "  ", "list, apply; create"])
STATEMENT_FILES = st.one_of(
    st.tuples(st.just("st.csv"), _csv_text(data_io.STATEMENTS_COLUMNS, [st.sampled_from(["a", " b", ""]), STATEMENT_TEXTS])),
    st.tuples(st.sampled_from(["st.csv", "st.json"]), st.text(max_size=40)),
)
LEXICON_FILES = st.one_of(
    st.just(("lex.csv", _fixture_text("default_lexicon.csv"))),
    st.tuples(st.just("lex.csv"), _csv_text(data_io.LEXICON_COLUMNS, [st.sampled_from(["list", "Define "]), LEVELS.map(
        lambda levels: "|".join(map(str, levels)))])),
    st.tuples(st.just("lex.json"), _entries({"verb": st.sampled_from(["list", ""]), "levels": LEVELS}).map(
        lambda entries: json.dumps({"verbs": entries}))),
)
# one draw in four brings its own lexicon, so most calls share the shipped one, cached in this process
MAP_LEXICONS = st.integers(0, 3).flatmap(lambda n: LEXICON_FILES if n == 0 else st.none())


@EXAMPLES
@given(STATEMENT_FILES, MAP_LEXICONS, FORMAT_FLAGS, st.sampled_from([[], ["--suffix-rule"]]))
@example(("st.csv", _fixture_text("outcome_statements.csv")), None, ["--format", "json"], [])
def test_map_outcomes_cli(statement_file, lexicon_file, fmt, suffix_rule):
    files = dict(filter(None, [statement_file, lexicon_file]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8", newline="")
        argv = ["map-outcomes", "--statements", str(Path(tmp) / statement_file[0]), *fmt, *suffix_rule]
        if lexicon_file is not None:
            argv += ["--lexicon", str(Path(tmp) / lexicon_file[0])]
        _assert_all_or_nothing(argv, Path(tmp) / "out.txt")
