"""Independent oracle: recompute every expected output row from the benchmark's own records.

Nothing here imports ``course_difficulty``. Reported values are integers in
tenths, and a generation's difficulty is an integer in units of 1/200, so
every comparison is exact:

* rubric of a criterion = sum of its level weights (the paper's Table 1);
* ``di = 5 * raw / (21 * n)``, in tenths ``50 * raw / (21 * n)``;
* a percent record ``p`` gives ``5 - p / 20``; with ``p = t / 10`` that is
  ``(1000 - t) / 200``; a ``di`` record ``t / 10`` is ``20 * t / 200``;
* the generation mean of ``k_i / 200`` in tenths is ``sum(k) / (20 * g)``;
* every reported value is rounded half away from zero to one decimal.
"""

from __future__ import annotations

import csv
import io
import json
import re
from typing import NamedTuple

# The paper's Table 1: outcome letter -> mapped complexity levels (weights 1-6).
CRITERIA = {
    "a": (1, 2, 3),
    "b": (1, 2, 3, 4, 5, 6),
    "c": (1, 2, 3, 4, 5, 6),
    "d": (1, 2, 3),
    "e": (1, 2, 3, 4, 5, 6),
    "f": (1, 2),
    "g": (1, 2),
    "h": (1, 2, 3),
    "i": (1, 2, 3, 4, 5, 6),
    "j": (1,),
    "k": (1, 2, 3),
    "l": (1, 2, 3, 4, 5, 6),
    "m": (1, 2, 3, 4, 5, 6),
}
RUBRIC = {cid: sum(levels) for cid, levels in CRITERIA.items()}
MAX_RUBRIC = 21
LEVEL_LABELS = {1: "Remember", 2: "Understand", 3: "Apply", 4: "Analyze", 5: "Evaluate", 6: "Create"}
AS_PRINTED = "as-printed"
CANONICAL = "canonical"
TOLERANCE_TENTHS = 5  # the CLI's default --tolerance 0.5
AVERAGE_LABEL = "AVERAGE"

ESTIMATE_COLUMNS = ("course_code", "raw_total", "criteria_count", "max_total", "difficulty_index", "mode")
REPORT_COLUMNS = ("course_code", "actual_di", "estimated_di", "abs_error")
PLOT_COLUMNS = ("course_code", "actual_di", "estimated_di")
MAP_COLUMNS = ("criterion_id", "levels", "matched", "draft_rubric", "unmatched_tokens", "ambiguous", "status")

_MAX_ERRORS = 5


class CourseRec(NamedTuple):
    code: str
    title: str
    criteria: tuple[str, ...]
    overrides: dict[str, int]


class GradeRec(NamedTuple):
    code: str
    label: str
    kind: str  # "percent" or "di"
    tenths: int  # the value written to the file, times ten

    def k(self) -> int:
        """The record's difficulty in units of 1/200."""
        return 1000 - self.tenths if self.kind == "percent" else 20 * self.tenths


class CallOutput(NamedTuple):
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]


def half_away(num: int, den: int) -> int:
    """``num / den`` (both >= 0) rounded to an integer, ties away from zero."""
    q, r = divmod(num, den)
    return q + (2 * r >= den)


def tenths_text(tenths: int) -> str:
    return f"{tenths // 10}.{tenths % 10}"


def text_to_tenths(text: str) -> int:
    whole, _, frac = text.strip().partition(".")
    if len(frac) > 1 or not whole.isdigit() or (frac and not frac.isdigit()):
        raise ValueError(f"not a one-decimal value: {text!r}")
    return int(whole) * 10 + int(frac or 0)


def raw_total(course: CourseRec, mode: str) -> int:
    if mode == AS_PRINTED:
        return sum(course.overrides.get(cid, RUBRIC[cid]) for cid in course.criteria)
    return sum(RUBRIC[cid] for cid in course.criteria)


def estimate_tenths(course: CourseRec, mode: str) -> int:
    n = len(course.criteria)
    return half_away(50 * raw_total(course, mode), 21 * n)


def group_histories(records: list[GradeRec]) -> dict[str, list[GradeRec]]:
    grouped: dict[str, list[GradeRec]] = {}
    for rec in records:
        grouped.setdefault(rec.code, []).append(rec)
    return grouped


def history_tenths(history: list[GradeRec]) -> int:
    return half_away(sum(r.k() for r in history), 20 * len(history))


# ---------------------------------------------------------------------------
# expected rows
# ---------------------------------------------------------------------------

def estimate_rows(courses: list[CourseRec], mode: str) -> list[dict[str, str]]:
    rows = []
    for c in courses:
        n = len(c.criteria)
        raw = raw_total(c, mode)
        rows.append({
            "course_code": c.code,
            "raw_total": str(raw),
            "criteria_count": str(n),
            "max_total": str(MAX_RUBRIC * n),
            "difficulty_index": tenths_text(half_away(50 * raw, 21 * n)),
            "mode": mode,
        })
    return rows


def grades_columns(histories: dict[str, list[GradeRec]]) -> tuple[str, ...]:
    deepest = max((len(h) for h in histories.values()), default=0)
    return (
        ("course_code",)
        + tuple(f"generation_{i + 1}" for i in range(deepest))
        + ("generation_count", "grade_di")
    )


def grades_rows(histories: dict[str, list[GradeRec]]) -> list[dict[str, str]]:
    columns = grades_columns(histories)
    rows = []
    for code, history in histories.items():
        row = dict.fromkeys(columns, "")
        row["course_code"] = code
        for i, rec in enumerate(history):
            row[f"generation_{i + 1}"] = tenths_text(half_away(rec.k(), 20))
        row["generation_count"] = str(len(history))
        row["grade_di"] = tenths_text(history_tenths(history))
        rows.append(row)
    return rows


class ValidateExpect(NamedTuple):
    mode: str
    rows: list[tuple[str, int, int, int]]  # code, actual, estimated, abs error (tenths)
    mean_actual: int
    mean_estimated: int
    mean_abs_error: int
    sum_squared: int  # sum of squared errors in hundredths
    within: int
    excluded: list[str]
    unmatched: list[str]

    def warnings(self) -> str:
        lines = [f"warning: no grade history for course {c}; excluded from validation\n" for c in self.excluded]
        lines += [f"warning: grade history for unknown course {c}; not validated\n" for c in self.unmatched]
        return "".join(lines)

    def report_rows(self) -> list[dict[str, str]]:
        rows = [
            {
                "course_code": code,
                "actual_di": tenths_text(act),
                "estimated_di": tenths_text(est),
                "abs_error": tenths_text(err),
                "final_di": tenths_text(est),
            }
            for code, act, est, err in self.rows
        ]
        rows.append({
            "course_code": AVERAGE_LABEL,
            "actual_di": tenths_text(self.mean_actual),
            "estimated_di": tenths_text(self.mean_estimated),
            "abs_error": tenths_text(self.mean_abs_error),
            "final_di": "",
        })
        return rows


def validate_expect(courses: list[CourseRec], records: list[GradeRec], mode: str) -> ValidateExpect:
    """Rounded comparison under the default bloom-primary policy and tolerance."""
    histories = group_histories(records)
    known = {c.code for c in courses}
    rows = []
    for c in courses:
        if c.code in histories:
            act = history_tenths(histories[c.code])
            est = estimate_tenths(c, mode)
            rows.append((c.code, act, est, abs(act - est)))
    n = len(rows)
    return ValidateExpect(
        mode=mode,
        rows=rows,
        mean_actual=half_away(sum(r[1] for r in rows), n),
        mean_estimated=half_away(sum(r[2] for r in rows), n),
        mean_abs_error=half_away(sum(r[3] for r in rows), n),
        sum_squared=sum(r[3] * r[3] for r in rows),
        within=sum(1 for r in rows if r[3] <= TOLERANCE_TENTHS),
        excluded=[c.code for c in courses if c.code not in histories],
        unmatched=[code for code in histories if code not in known],
    )


# ---------------------------------------------------------------------------
# outcome mapping (exact-token verb matching, optional suffix rule)
# ---------------------------------------------------------------------------

_WORD = re.compile(r"[a-z]+")
_SUFFIXES = (("ies", "y"), ("es", ""), ("s", ""), ("ing", ""), ("ing", "e"))


def parse_lexicon(text: str) -> dict[str, set[int]]:
    lexicon: dict[str, set[int]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        lexicon.setdefault(row["verb"].strip().lower(), set()).update(
            int(t) for t in row["levels"].split("|") if t.strip()
        )
    return lexicon


def map_rows(statements: list[tuple[str, str]], lexicon: dict[str, set[int]], suffix_rule: bool) -> list[dict]:
    def resolve(token: str) -> set[int]:
        levels = lexicon.get(token, set())
        if levels or not suffix_rule:
            return levels
        for suffix, tail in _SUFFIXES:
            if token.endswith(suffix) and len(token) > len(suffix) + 1:
                levels = lexicon.get(token[: -len(suffix)] + tail, set())
                if levels:
                    return levels
        return set()

    rows = []
    for cid, text in statements:
        matched: dict[tuple[str, int], None] = {}
        ambiguous: dict[str, None] = {}
        unmatched = 0
        for token in _WORD.findall(text.lower()):
            levels = resolve(token)
            if not levels:
                unmatched += 1
                continue
            if len(levels) > 1:
                ambiguous.setdefault(token)
            for level in sorted(levels):
                matched.setdefault((token, level))
        levels = sorted({level for _, level in matched})
        rows.append({
            "criterion_id": cid,
            "levels": "|".join(LEVEL_LABELS[lv] for lv in levels),
            "matched": "|".join(f"{verb}:{LEVEL_LABELS[lv]}" for verb, lv in matched),
            "draft_rubric": str(sum(levels)) if levels else "",
            "unmatched_tokens": str(unmatched),
            "ambiguous": "|".join(ambiguous),
            "status": "ok" if levels else "needs-review",
        })
    return rows


# ---------------------------------------------------------------------------
# output parsing and comparison
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def parse_table(text: str, nrows: int) -> tuple[list[str], list[list[str]], list[str]]:
    """Split an aligned text table into header, ``nrows`` rows and trailing lines.

    Column spans come from the dash rule under the header, so empty cells
    parse as empty strings.
    """
    lines = text.split("\n")
    if len(lines) < 2:
        return [], [], lines
    spans: list[tuple[int, int | None]] = [(m.start(), m.end()) for m in re.finditer(r"-+", lines[1])]
    if spans:  # rows are right-stripped, so the last column runs to the end of the line
        spans[-1] = (spans[-1][0], None)

    def cells(line: str) -> list[str]:
        return [line[start:end].strip() for start, end in spans]

    rows = [cells(line) for line in lines[2 : 2 + nrows]]
    return cells(lines[0]), rows, lines[2 + nrows :]


def compare_rows(what: str, columns: tuple[str, ...], expected: list[dict], header: list[str], rows: list[list[str]]) -> list[str]:
    if tuple(header) != columns:
        return [f"{what}: header {header} != {list(columns)}"]
    errors = []
    if len(rows) != len(expected):
        errors.append(f"{what}: {len(rows)} rows, expected {len(expected)}")
    for got, want in zip(rows, expected):
        want_cells = [want[c] for c in columns]
        if got != want_cells:
            errors.append(f"{what}: row {got} != {want_cells}")
            if len(errors) >= _MAX_ERRORS:
                break
    return errors


def _check_text(out: CallOutput, fmt: str, columns: tuple[str, ...], expected: list[dict], what: str) -> tuple[list[str], list[str]]:
    """Compare a csv or table rendering; returns (errors, trailing lines)."""
    if fmt == "csv":
        header, rows = parse_csv(out.stdout)
        return compare_rows(what, columns, expected, header, rows), []
    header, rows, trailing = parse_table(out.stdout, len(expected))
    return compare_rows(what, columns, expected, header, rows), trailing


def check_clean(out: CallOutput, stderr: str = "") -> list[str]:
    errors = []
    if out.code != 0:
        errors.append(f"exit code {out.code}: {out.stderr[-500:]}")
    elif out.stderr != stderr:
        errors.append(f"unexpected stderr: {out.stderr[:300]!r}")
    return errors


def check_estimate(out: CallOutput, fmt: str, expected: list[dict], mode: str) -> list[str]:
    if fmt != "json":
        return _check_text(out, fmt, ESTIMATE_COLUMNS, expected, "estimate")[0]
    payload = json.loads(out.stdout)
    got = [
        {
            "course_code": c["course_code"],
            "raw_total": c["raw_total"],
            "criteria_count": c["criteria_count"],
            "max_total": c["max_total"],
            "difficulty_index": c["difficulty_index"],
        }
        for c in payload["courses"]
    ]
    want = [
        {
            "course_code": r["course_code"],
            "raw_total": int(r["raw_total"]),
            "criteria_count": int(r["criteria_count"]),
            "max_total": int(r["max_total"]),
            "difficulty_index": text_to_tenths(r["difficulty_index"]) / 10,
        }
        for r in expected
    ]
    errors = [] if payload.get("mode") == mode else [f"estimate json: mode {payload.get('mode')!r}"]
    return errors + _diff_lists("estimate json", got, want)


def check_grades(out: CallOutput, fmt: str, histories: dict[str, list[GradeRec]]) -> list[str]:
    if fmt != "json":
        return _check_text(out, fmt, grades_columns(histories), grades_rows(histories), "grades")[0]
    got = json.loads(out.stdout)["courses"]
    want = [
        {
            "course_code": code,
            "generation_count": len(history),
            "generations": [
                {"label": r.label, "kind": r.kind, "value": r.tenths / 10, "di": r.k() / 200}
                for r in history
            ],
            "grade_di": history_tenths(history) / 10,
        }
        for code, history in histories.items()
    ]
    return _diff_lists("grades json", got, want)


def check_validate(
    out: CallOutput,
    fmt: str,
    expect: ValidateExpect,
    inputs: list[dict],
    plot_path: str | None = None,
) -> list[str]:
    errors = []
    report = expect.report_rows()
    n = len(expect.rows)
    if fmt == "csv":
        errors += _check_text(out, fmt, REPORT_COLUMNS, report, "validate")[0]
    elif fmt == "table":
        columns = REPORT_COLUMNS + ("final_di",)
        table_errors, trailing = _check_text(out, fmt, columns, report, "validate")
        summary = [
            f"mode: {expect.mode}  policy: bloom_primary",
            f"accuracy: {expect.within / n:.3f} at tolerance 0.5 ({expect.within}/{n} courses)",
            "",
        ]
        errors += table_errors
        if trailing != summary:
            errors.append(f"validate table summary {trailing} != {summary}")
    else:
        payload = json.loads(out.stdout)
        head = {k: payload.get(k) for k in (
            "mode", "policy", "comparison_precision", "tolerance", "accuracy", "courses_within_tolerance",
            "course_count", "mean_actual", "mean_estimated", "mean_abs_error", "mean_squared_error",
            "excluded_courses", "unmatched_grades", "inputs",
        )}
        want_head = {
            "mode": expect.mode,
            "policy": "bloom_primary",
            "comparison_precision": "rounded",
            "tolerance": TOLERANCE_TENTHS / 10,
            "accuracy": expect.within / n,
            "courses_within_tolerance": expect.within,
            "course_count": n,
            "mean_actual": expect.mean_actual / 10,
            "mean_estimated": expect.mean_estimated / 10,
            "mean_abs_error": expect.mean_abs_error / 10,
            "mean_squared_error": expect.sum_squared / (100 * n),
            "excluded_courses": expect.excluded,
            "unmatched_grades": expect.unmatched,
            "inputs": inputs,
        }
        for key, value in want_head.items():
            if head[key] != value:
                errors.append(f"validate json: {key} = {str(head[key])[:200]} != {str(value)[:200]}")
        want = [
            {
                "course_code": code,
                "actual_di": act / 10,
                "estimated_di": est / 10,
                "abs_error": err / 10,
                "squared_error": err * err / 100,
                "final_di": est / 10,
            }
            for code, act, est, err in expect.rows
        ]
        errors += _diff_lists("validate json", payload.get("courses"), want)
    if plot_path is not None:
        header, rows = parse_csv(out.files[plot_path].decode("utf-8"))
        errors += compare_rows("plot data", PLOT_COLUMNS, report[:-1], header, rows)
    return errors


def check_map(out: CallOutput, fmt: str, expected: list[dict], suffix_rule: bool) -> list[str]:
    if fmt != "json":
        return _check_text(out, fmt, MAP_COLUMNS, expected, "map-outcomes")[0]
    payload = json.loads(out.stdout)
    errors = [] if payload.get("suffix_rule") is suffix_rule else ["map-outcomes json: suffix_rule flag"]
    want = [
        {
            "criterion_id": r["criterion_id"],
            "levels": r["levels"].split("|") if r["levels"] else [],
            "matched": [
                {"verb": verb, "level": label}
                for verb, _, label in (pair.partition(":") for pair in r["matched"].split("|") if pair)
            ],
            "ambiguous_verbs": r["ambiguous"].split("|") if r["ambiguous"] else [],
            "unmatched_tokens": int(r["unmatched_tokens"]),
            "draft_rubric": int(r["draft_rubric"]) if r["draft_rubric"] else None,
            "status": r["status"],
        }
        for r in expected
    ]
    return errors + _diff_lists("map-outcomes json", payload.get("statements"), want)


def _diff_lists(what: str, got: list | None, want: list) -> list[str]:
    if not isinstance(got, list):
        return [f"{what}: expected a list, got {type(got).__name__}"]
    errors = []
    if len(got) != len(want):
        errors.append(f"{what}: {len(got)} entries, expected {len(want)}")
    for g, w in zip(got, want):
        if g != w:
            errors.append(f"{what}: {str(g)[:200]} != {str(w)[:200]}")
            if len(errors) >= _MAX_ERRORS:
                break
    return errors
