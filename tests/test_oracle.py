"""The CLI judged on drawn inputs by the benchmark's independent oracle, ``bench/oracle.py``.

The oracle recomputes every output row from the drawn records in its own
integer arithmetic and never imports this package. Each example writes its
curriculum and grade file with ``bench/workloads.py``'s ``curriculum_bytes``
and ``grades_bytes``, runs each subcommand in process in every format and
mode, and has the matching ``oracle.check_*`` judge each call: its exit
code, its stderr (``validate``'s warnings included), its output and, for
``validate``, its plot data. The draws reach past the benchmark's shapes:
ungraded courses, grade histories of unknown courses, override points at
the edges 1 and 21, and percents whose di is a tie to round.
"""

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from course_difficulty.cli import main
from course_difficulty.data_io import fixture_path

_BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, _BENCH)
try:
    import oracle
    import workloads
finally:
    sys.path.remove(_BENCH)

EXAMPLES = settings(max_examples=100, deadline=None)
FORMATS = ("table", "csv", "json")
MODES = (oracle.CANONICAL, oracle.AS_PRINTED)
POINTS = st.one_of(st.sampled_from([1, oracle.MAX_RUBRIC]), st.integers(1, oracle.MAX_RUBRIC))


@st.composite
def history(draw, code):
    """1-6 generations of one course, each a percent (0-100) or a di (0-5) on the 0.1 grid."""
    label = draw(st.sampled_from(["G", "Term "]))
    return [
        oracle.GradeRec(code, f"{label}{g}", "percent", draw(st.integers(0, 1000))) if draw(st.booleans())
        else oracle.GradeRec(code, f"{label}{g}", "di", draw(st.integers(0, 50)))
        for g in range(1, draw(st.integers(1, 6)) + 1)
    ]


@st.composite
def courses_and_grades(draw):
    """1-8 courses over the paper's catalog, and a grade file in which the first course always has a
    history, each other course may have none, and up to two unknown courses have one."""
    courses = []
    for i in range(draw(st.integers(1, 8))):
        criteria = tuple(draw(st.lists(st.sampled_from(list(oracle.CRITERIA)), min_size=1, unique=True)))
        overrides = {cid: draw(POINTS) for cid in criteria if draw(st.integers(0, 2)) == 0}
        code = f"{draw(st.sampled_from(['C', 'Cé', 'K-']))}{i}"
        courses.append(oracle.CourseRec(code, draw(st.sampled_from(["", "Intro", "Design, lab"])), criteria, overrides))
    codes = [c.code for i, c in enumerate(courses) if i == 0 or draw(st.booleans())]
    codes += [f"X{i}" for i in range(draw(st.integers(0, 2)))]
    histories = draw(st.permutations([draw(history(code)) for code in codes]))
    if draw(st.booleans()):  # term by term, as a gradebook export lists them
        records = [h[g] for g in range(max(map(len, histories))) for h in histories if g < len(h)]
    else:
        records = [record for h in histories for record in h]
    return courses, records


_WORDS = ["analyze", "apply", "design", "judge", "list", "explain", "create", "evaluate",  # verbs
          "analyzes", "applies", "designing", "judging", "creates", "Design", "ANALYZE,",  # other forms
          "students", "the", "data", "an", "ability", "and", "to"]  # no verb


def _call(argv, *files):
    """Run ``main`` in process; the result as the oracle reads it, with the bytes of each file named."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return oracle.CallOutput(code, out.getvalue(), err.getvalue(),
                             {f: Path(f).read_bytes() for f in files if Path(f).exists()})


def _judge(argv, errors):
    assert errors == [], f"{' '.join(argv)}: {errors}"


@EXAMPLES
@given(courses_and_grades())
def test_estimate_grades_and_validate_agree_with_the_oracle(drawn):
    courses, records = drawn
    with tempfile.TemporaryDirectory() as tmp:
        inputs = []
        for role, name, data in (("catalog", "catalog.json", workloads.catalog_bytes()),
                                 ("curriculum", "curriculum.csv", workloads.curriculum_bytes(courses)),
                                 ("grades", "grades.csv", workloads.grades_bytes(records))):
            path = Path(tmp, name)
            path.write_bytes(data)
            inputs.append({"role": role, "path": str(path), "sha256": hashlib.sha256(data).hexdigest()})
        catalog, curriculum, grades = (["--" + i["role"], i["path"]] for i in inputs)
        plot = str(Path(tmp, "plot.csv"))
        histories = oracle.group_histories(records)

        for mode in MODES:
            rows = oracle.estimate_rows(courses, mode)
            for fmt in FORMATS:
                argv = ["estimate", *catalog, *curriculum, "--mode", mode, "--format", fmt]
                out = _call(argv)
                _judge(argv, oracle.check_clean(out) or oracle.check_estimate(out, fmt, rows, mode))
            expect = oracle.validate_expect(courses, records, mode)
            for fmt in ("json", "csv"):
                argv = ["validate", *catalog, *curriculum, *grades, "--mode", mode, "--format", fmt,
                        "--plot-data", plot]
                out = _call(argv, plot)
                _judge(argv, oracle.check_clean(out, expect.warnings())
                       or oracle.check_validate(out, fmt, expect, inputs, plot_path=plot))
        for fmt in FORMATS:
            argv = ["grades", *grades, "--format", fmt]
            out = _call(argv)
            _judge(argv, oracle.check_clean(out) or oracle.check_grades(out, fmt, histories))


_LEXICON = oracle.parse_lexicon(fixture_path("default_lexicon.csv").read_text(encoding="utf-8"))


@EXAMPLES
@given(st.lists(st.tuples(st.sampled_from("abcdefghijklm"),
                          st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join)),
                min_size=1, max_size=5))
def test_map_outcomes_agrees_with_the_oracle(statements):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "statements.csv")
        with path.open("w", encoding="utf-8", newline="") as file:
            csv.writer(file, lineterminator="\n").writerows([("criterion_id", "text"), *statements])
        for suffix_rule in (False, True):
            rows = oracle.map_rows(statements, _LEXICON, suffix_rule)
            for fmt in FORMATS:
                argv = ["map-outcomes", "--statements", str(path), "--format", fmt] + ["--suffix-rule"] * suffix_rule
                out = _call(argv)
                _judge(argv, oracle.check_clean(out) or oracle.check_map(out, fmt, rows, suffix_rule))
