"""Command-line interface: ``estimate``, ``grades``, ``validate``, ``map-outcomes`` and ``fixtures``.

README.md gives the exit codes, why ``main`` pauses the cyclic garbage
collector while a command runs, and, under "Validation", how ``grades`` and
``validate`` work once per distinct value. ``estimate`` and ``grades`` make
their CSV rows as they are rendered, a batch at a time, and write each batch
to an ``--output`` file as it is made; stdout gets the whole text once it is
all made, and table and JSON output is rendered whole first. ``main`` runs
each command as one run (``data_io._one_run``): the files it writes land
only when it succeeds, so a command that fails in any way leaves every
output as it was. ``validate`` drops the loaded inputs before it renders,
so that rendering holds only the results (README, "Memory"). ``validate``
imports ``validation``, and
``map-outcomes`` ``mapper``, as it runs, so that no other command loads them
(README, "Start-up").
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from collections.abc import Iterable
from contextlib import suppress
from fractions import Fraction
from operator import truediv
from pathlib import Path
from typing import TYPE_CHECKING

from . import data_io
from .engine import (
    _DI_PAIR,
    BloomDifficulty,
    CombinePolicy,
    Course,
    bloom_difficulty,
    final_difficulty,
    grade_difficulty,
)
from .errors import CourseDifficultyError, DataFormatError, InsufficientDataError, ValidationError
from .rounding import decimal_text, format_fixed, format_ratio, parse_decimal, round_units

if TYPE_CHECKING:  # annotations only: validate imports validation as it runs
    from .validation import ValidationReport

MODE_CANONICAL = "canonical"
MODE_AS_PRINTED = "as-printed"

_POLICIES = {policy.value.replace("_", "-"): policy for policy in CombinePolicy}  # --policy spells each with hyphens


def _positive_fraction(text: str) -> Fraction:
    try:
        value = parse_decimal(text, "tolerance")
    except DataFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="course-difficulty",
        description="Estimate course difficulty from outcome rubrics and validate it against grade history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--output", type=Path, default=None, help="write here instead of stdout (exit 2 if another path "
                       "argument names the file, or if stdout cannot encode the output)")

    p_est = sub.add_parser("estimate", help="rubric-based difficulty index per course")
    p_est.add_argument("--catalog", type=Path, required=True)
    p_est.add_argument("--curriculum", type=Path, required=True)
    p_est.add_argument(
        "--mode",
        choices=(MODE_CANONICAL, MODE_AS_PRINTED),
        default=MODE_CANONICAL,
        help="canonical computes every cell from the catalog; as-printed applies per-cell overrides",
    )
    add_output_flags(p_est)
    p_est.set_defaults(run=cmd_estimate)

    p_gr = sub.add_parser("grades", help="grade-history difficulty index per course")
    p_gr.add_argument("--grades", type=Path, required=True)
    add_output_flags(p_gr)
    p_gr.set_defaults(run=cmd_grades)

    p_val = sub.add_parser("validate", help="compare estimated and grade-derived difficulty")
    p_val.add_argument("--catalog", type=Path, required=True)
    p_val.add_argument("--curriculum", type=Path, required=True)
    p_val.add_argument("--grades", type=Path, required=True)
    p_val.add_argument("--mode", choices=(MODE_CANONICAL, MODE_AS_PRINTED), default=MODE_CANONICAL)
    p_val.add_argument("--policy", choices=tuple(_POLICIES), default="bloom-primary")
    p_val.add_argument("--tolerance", type=_positive_fraction, default=Fraction(1, 2))
    p_val.add_argument(
        "--full-precision",
        action="store_true",
        help="compare unrounded values instead of the default 1-decimal grid",
    )
    p_val.add_argument("--plot-data", type=Path, default=None,
                       help="also write actual-vs-estimated plot CSV, to a file no other path argument names")
    p_val.add_argument("--strict", action="store_true", help="fail when a course has no grade history")
    add_output_flags(p_val)
    p_val.set_defaults(run=cmd_validate)

    p_map = sub.add_parser("map-outcomes", help="tag outcome statements with complexity levels")
    p_map.add_argument("--statements", type=Path, required=True)
    p_map.add_argument("--lexicon", type=Path, default=None, help="defaults to the shipped verb list")
    p_map.add_argument("--suffix-rule", action="store_true", help="also match plural/gerund verb forms")
    add_output_flags(p_map)
    p_map.set_defaults(run=cmd_map_outcomes)

    p_fix = sub.add_parser("fixtures", help="write the bundled reference dataset files")
    p_fix.add_argument("dest", type=Path)
    p_fix.set_defaults(run=cmd_fixtures)

    return parser


def _emit(pieces: Iterable[str], output: Path | None) -> None:
    """Write the text ``pieces`` join to: to ``output`` as the pieces are made, or to stdout once they are all
    made and joined, so that a run that fails while making them prints nothing."""
    if output is None:
        text = "".join(pieces)
        if sys.stdout is None:  # the process started with its stdout closed
            raise DataFormatError("stdout is closed")
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:  # a text stream encodes the whole text before it writes any
            raise DataFormatError(f"stdout ({exc.encoding}) cannot encode U+{ord(exc.object[exc.start]):04X}"
                                  f" at position {exc.start}") from None
        except ValueError:  # "I/O operation on closed file": a stream closed in the process
            raise DataFormatError("stdout is closed") from None
    else:
        data_io._write_text(output, pieces)


def _diagnose(text: str) -> None:
    """Write an error or warning to stderr, or drop it where stderr is closed (``None``) or its write
    fails: a diagnostic never goes to stdout and never changes the exit code."""
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.write(text)


def _emit_rows(args: argparse.Namespace, headers: tuple[str, ...], rows: Iterable[tuple[str, ...]]) -> None:
    """Render rows as CSV, a batch at a time as they are drawn, or as an aligned table, per ``--format``, and
    emit them."""
    if args.format == "csv":
        _emit(data_io.csv_batches(headers, rows), args.output)
    else:
        _emit([_table(headers, list(rows))], args.output)


def _table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]  # every row is as wide as the header
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _apply_mode(course: Course, mode: str) -> Course:
    return course.without_overrides() if mode == MODE_CANONICAL else course


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def cmd_estimate(args: argparse.Namespace) -> int:
    catalog = data_io.load_catalog(args.catalog)
    # each course scored as its row is drawn, from the loader's list, which is freed once all are drawn
    results = (bloom_difficulty(_apply_mode(c, args.mode), catalog)
               for c in data_io.load_curriculum(args.curriculum, catalog))
    # each value of a rubric result but its code follows from its integers, so each distinct key renders once
    rubric = data_io._Memo(lambda key: (*map(str, key), format_fixed(BloomDifficulty("", *key).di), args.mode))

    if args.format == "json":
        payload = {
            "mode": args.mode,
            "courses": [
                {
                    "course_code": r.course_code,
                    "raw_total": r.raw_total,
                    "criteria_count": r.criteria_count,
                    "max_total": r.max_total,
                    # the double nearest the rounded value, as float() of its Fraction
                    "difficulty_index": float(rubric[r.raw_total, r.criteria_count, r.max_total][3]),
                }
                for r in results
            ],
        }
        _emit([data_io.json_text(payload)], args.output)
        return 0

    rows = ((r.course_code, *rubric[r.raw_total, r.criteria_count, r.max_total]) for r in results)
    headers = ("course_code", "raw_total", "criteria_count", "max_total", "difficulty_index", "mode")
    _emit_rows(args, headers, rows)
    return 0


# ---------------------------------------------------------------------------
# grades
# ---------------------------------------------------------------------------

def cmd_grades(args: argparse.Namespace) -> int:
    grades = data_io.load_grades(args.grades)
    max_generations = max((len(h.generations) for h in grades.values()), default=0)

    if args.format == "json":
        # one dict per distinct record, as equal records render alike; int division is correctly rounded
        entries = data_io._Memo(
            lambda g: {"label": g.label, "kind": g.kind.value, "value": float(g.value), "di": truediv(*_DI_PAIR(g))}
        )
        payload = {
            "courses": [
                {
                    "course_code": history.course_code,
                    "generation_count": len(history.generations),
                    "generations": list(map(entries.__getitem__, history.generations)),
                    "grade_di": float(format_fixed(grade_difficulty(history))),
                }
                for history in grades.values()
            ]
        }
        _emit([data_io.json_text(payload)], args.output)
        return 0

    headers = (
        ("course_code",)
        + tuple(f"generation_{i + 1}" for i in range(max_generations))
        + ("generation_count", "grade_di")
    )
    cells = data_io._Memo(lambda pair: format_ratio(*pair))  # each distinct di pair rendered once, with no Fraction
    rows = (
        (history.course_code, *map(cells.__getitem__, map(_DI_PAIR, history.generations)),
         *("",) * (max_generations - len(history.generations)), str(len(history.generations)),
         format_fixed(grade_difficulty(history)))
        for history in grades.values()
    )
    _emit_rows(args, headers, rows)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _validated(
    args: argparse.Namespace, policy: CombinePolicy
) -> tuple[ValidationReport, list[Fraction], tuple[str, ...], tuple[str, ...], tuple[tuple[str, str, str], ...]]:
    """What ``validate`` renders: the report, each comparison's final difficulty, the excluded and the
    unmatched course codes, and the provenance. The loaded inputs are freed when it returns."""
    from .validation import CourseComparison, compare, summarize

    bundle = data_io.load_bundle(args.catalog, args.curriculum, args.grades)
    missing = bundle.courses_without_grades()
    if missing and args.strict:
        raise ValidationError(f"no grade history for course(s): {', '.join(missing)}")
    unmatched = bundle.unmatched_grade_codes()
    warnings = [f"warning: no grade history for course {code}; excluded from validation\n" for code in missing]
    warnings += [f"warning: grade history for unknown course {code}; not validated\n" for code in unmatched]
    if args.format == "csv" and policy is not CombinePolicy.BLOOM_PRIMARY:
        warnings.append(f"warning: --policy {args.policy} has no effect on --format csv: "
                        "the CSV report has no final_di column\n")
    if warnings:
        _diagnose("".join(warnings))

    graded = [course for course in bundle.courses if course.code in bundle.grades]
    if not graded:
        raise InsufficientDataError("no course of the curriculum has a grade history").locate(str(args.grades))
    # rounded, each value is its whole number of tenths, rounded in integers, so no Fraction is built per course
    compared = ((lambda value: value) if args.full_precision
                else lambda value: round_units(value.numerator, value.denominator))
    rubric = data_io._Memo(lambda key: compared(BloomDifficulty("", *key).di))  # once per distinct key, as in estimate
    results = (bloom_difficulty(_apply_mode(course, args.mode), bundle.catalog) for course in graded)
    estimates = [rubric[r.raw_total, r.criteria_count, r.max_total] for r in results]

    def check(pair: tuple[Fraction, Fraction] | tuple[int, int]) -> tuple[CourseComparison, Fraction]:
        a, e = pair if args.full_precision else (Fraction(units, 10) for units in pair)
        return compare(a, e), final_difficulty(e, a, policy)

    # exact values seldom repeat, so at full precision each course is checked on its own; rounded,
    # each distinct pair of tenths is checked once: 51 x 51 = 2,601 at most
    checked = check if args.full_precision else data_io._Memo(check).__getitem__
    comparisons = []
    finals = []  # per comparison, in its order
    for course, estimated in zip(graded, estimates):
        first, final = checked((compared(grade_difficulty(bundle.grades[course.code])), estimated))
        comparisons.append(CourseComparison(course.code, first.actual_num, first.estimated_num, first.den))
        finals.append(final)
    return summarize(comparisons, args.tolerance), finals, missing, unmatched, bundle.provenance


def cmd_validate(args: argparse.Namespace) -> int:
    policy = _POLICIES[args.policy]
    report, finals, missing, unmatched, provenance = _validated(args, policy)

    if args.format == "csv":
        text = data_io.render_report_csv(report)
    elif args.format == "json":
        payload = {
            "mode": args.mode,
            "policy": policy.value,
            "comparison_precision": "full" if args.full_precision else "rounded",
            "tolerance": float(report.tolerance),
            "accuracy": float(report.accuracy),
            "courses_within_tolerance": report.within_tolerance,
            "course_count": len(report.comparisons),
            "mean_actual": float(format_fixed(report.mean_actual)),
            "mean_estimated": float(format_fixed(report.mean_estimated)),
            "mean_abs_error": float(format_fixed(report.mean_abs_error)),
            "mean_squared_error": float(report.mean_squared_error),
            "courses": [],  # one entry per comparison, filled in by render_report_json
            "excluded_courses": list(missing),
            "unmatched_grades": list(unmatched),
            "inputs": [
                {"role": role, "path": path, "sha256": digest}
                for role, path, digest in provenance
            ],
        }
        text = data_io.render_report_json(payload, report, finals)
    else:
        headers = (*data_io.REPORT_COLUMNS, "final_di")
        cells = data_io._Memo(lambda pair: format_ratio(*pair))  # each distinct final difficulty rendered once
        final_cells = [*(cells[f.numerator, f.denominator] for f in finals), ""]  # the AVERAGE row has no final_di
        rows = [(*row, final) for row, final in zip(data_io.report_rows(report), final_cells)]
        tolerance = decimal_text(report.tolerance)  # exact: a tolerance off the grid is not rounded
        summary = (
            f"mode: {args.mode}  policy: {policy.value}\n"
            f"accuracy: {float(report.accuracy):.3f} at tolerance {tolerance}{'' if '.' in tolerance else '.0'}"
            f" ({report.within_tolerance}/{len(report.comparisons)} courses)\n"
        )
        text = _table(headers, rows) + summary

    if args.plot_data is not None:
        data_io.write_plot_data(report, args.plot_data)
    _emit([text], args.output)
    return 0


# ---------------------------------------------------------------------------
# map-outcomes
# ---------------------------------------------------------------------------

def cmd_map_outcomes(args: argparse.Namespace) -> int:
    from .mapper import map_outcome
    from .taxonomy import BloomLevel

    statements = data_io.load_statements(args.statements)
    lexicon = data_io.default_lexicon() if args.lexicon is None else data_io.load_lexicon(args.lexicon)

    entries = []  # one JSON record per statement; the table renders from the same values
    for statement in statements:
        result = map_outcome(statement, lexicon, suffix_rule=args.suffix_rule)
        levels = sorted(result.levels, key=BloomLevel.weight.fget)
        entries.append({
            "criterion_id": statement.criterion_id,
            "levels": [level.label for level in levels],
            "matched": [{"verb": verb, "level": level.label} for verb, level in result.matched],
            "ambiguous_verbs": list(result.ambiguous_verbs),
            "unmatched_tokens": result.unmatched_tokens_count,
            "draft_rubric": sum(level.weight for level in levels) if levels else None,
            "status": "ok" if levels else "needs-review",
        })

    if args.format == "json":
        _emit([data_io.json_text({"suffix_rule": args.suffix_rule, "statements": entries})], args.output)
        return 0

    headers = ("criterion_id", "levels", "matched", "draft_rubric", "unmatched_tokens", "ambiguous", "status")
    rows = [
        (
            e["criterion_id"],
            "|".join(e["levels"]),
            "|".join(f"{m['verb']}:{m['level']}" for m in e["matched"]),
            "" if e["draft_rubric"] is None else str(e["draft_rubric"]),
            str(e["unmatched_tokens"]),
            "|".join(e["ambiguous_verbs"]),
            e["status"],
        )
        for e in entries
    ]
    _emit_rows(args, headers, rows)
    return 0


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def cmd_fixtures(args: argparse.Namespace) -> int:
    written = data_io.copy_fixtures(args.dest)
    _emit([f"{path}\n" for path in written], None)
    return 0


def _file_key(path: Path) -> tuple[int, int] | str:
    """A file's identity, so that hard links and symlinks match: its device and inode where it exists
    (``os.stat`` follows symlinks), else its resolved path (``Path.resolve()``, less its symlink-loop
    ``RuntimeError``), which is only worked out then."""
    try:
        found = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return found.st_dev, found.st_ino


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse an output that names the file of another path argument (README, "Diagnostics")."""
    paths = [(f"--{name.replace('_', '-')}", path) for name, path in vars(args).items() if isinstance(path, Path)]
    outputs, named = {"--output", "--plot-data"}, {}  # named: each file -> the first flag naming it
    for flag, path in paths if outputs.intersection(flag for flag, _ in paths) else ():  # in parse order
        earlier = named.setdefault(_file_key(path), flag)
        if earlier != flag and outputs & {earlier, flag}:  # inputs may share a file
            raise DataFormatError(f"{earlier} and {flag} name the same file: {path}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        _check_outputs(args)
        with data_io._one_run():  # the files a command writes land only if it succeeds
            return args.run(args)  # the subcommand's function, which its parser sets
    except CourseDifficultyError as exc:
        _diagnose(f"error: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        _diagnose(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a bug, which must not pass for a domain failure
        _diagnose(f"error: internal: {exc!r}\n")  # the repr keeps it on one line
        return 70  # EX_SOFTWARE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
