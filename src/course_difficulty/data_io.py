"""On-disk formats: catalogs, lexicons, curricula, grade files, and reports.

CSV is the primary interchange format (institutional gradebooks export CSV).
Catalogs, lexicons, curricula and grade files also have a JSON form, chosen
by a ``.json`` extension; the validation report's JSON form is the output of
``validate --format json``. All files are UTF-8; CSV files need a header row.
Diagnostics always carry the file path and, for row-level problems, the line
number; malformed values are never silently coerced.

CSV schemas
-----------
catalog:     id,description,levels          levels = pipe-separated 1-6 or names
lexicon:     verb,levels
curriculum:  course_code,title,criteria,overrides
             criteria = pipe-separated ids; overrides = optional id:points pairs
grades:      course_code,generation,kind,value    kind = percent | di
statements:  criterion_id,text
report:      course_code,actual_di,estimated_di,abs_error   (+ AVERAGE row)
plot data:   course_code,actual_di,estimated_di

JSON files use the key order produced by the writers here; round-tripping
any written catalog, lexicon, curriculum or grade file reproduces the
original objects.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .engine import Course, GenerationRecord, GradeHistory, GradeKind
from .errors import DataFormatError, UnresolvedCriterionError, ValidationError
from .mapper import OutcomeStatement
from .rounding import decimal_text, format_fixed
from .taxonomy import (
    AbetCriterion,
    BloomLevel,
    BloomLexicon,
    CriterionCatalog,
)
from .validation import ValidationReport

CATALOG_COLUMNS = ("id", "description", "levels")
LEXICON_COLUMNS = ("verb", "levels")
CURRICULUM_COLUMNS = ("course_code", "title", "criteria", "overrides")
GRADES_COLUMNS = ("course_code", "generation", "kind", "value")
STATEMENTS_COLUMNS = ("criterion_id", "text")
REPORT_COLUMNS = ("course_code", "actual_di", "estimated_di", "abs_error")
PLOT_COLUMNS = ("course_code", "actual_di", "estimated_di")

AVERAGE_LABEL = "AVERAGE"

FIXTURE_NAMES = (
    "table1.json",
    "table2_asprinted.csv",
    "table2_canonical.csv",
    "table3_grades.csv",
    "worked_example.csv",
    "default_lexicon.csv",
    "outcome_statements.csv",
)


# ---------------------------------------------------------------------------
# low-level readers
# ---------------------------------------------------------------------------

def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc.strerror or exc}", path=str(path)) from exc


def _csv_rows(path: str | Path, columns: Sequence[str]) -> list[tuple[int, dict[str, str]]]:
    """Parse a CSV file, checking the header and returning (line, row) pairs."""
    text = _read_text(path)
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise DataFormatError("file is empty; a header row is required", path=str(path))
    missing = [c for c in columns if c not in reader.fieldnames]
    if missing:
        raise DataFormatError(
            f"header is missing column(s) {', '.join(missing)}; found {reader.fieldnames}",
            path=str(path),
        )
    rows: list[tuple[int, dict[str, str]]] = []
    for row in reader:
        if row.get(None):
            raise DataFormatError("row has more fields than the header", path=str(path), line=reader.line_num)
        if None in row.values():
            raise DataFormatError("row has fewer fields than the header", path=str(path), line=reader.line_num)
        # structural fields are stripped at their point of use; free text stays verbatim
        rows.append((reader.line_num, {k: v for k, v in row.items() if k is not None}))
    return rows


def _load_json(path: str | Path) -> object:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc.msg}", path=str(path), line=exc.lineno) from exc


def _is_json(path: str | Path) -> bool:
    return Path(path).suffix.lower() == ".json"


def _json_list(entry: dict, key: str, where: str, path: str | Path) -> list:
    value = entry.get(key, [])
    if not isinstance(value, list):
        raise DataFormatError(f"{where}.{key} must be a list", path=str(path))
    return value


def _parse_levels(cell: str | list[object], *, path: str, line: int | None = None) -> frozenset[BloomLevel]:
    tokens = [t for t in cell.split("|") if t.strip()] if isinstance(cell, str) else cell
    try:
        return frozenset(BloomLevel.from_token(token) for token in tokens)  # out-of-range -> ValidationError
    except ValueError as exc:
        raise DataFormatError(str(exc), path=path, line=line) from None


def _parse_int(cell: str, what: str, *, path: str, line: int | None = None) -> int:
    try:
        return int(cell)
    except ValueError:
        raise DataFormatError(f"cannot parse {what} {cell!r} as an integer", path=path, line=line) from None


def _parse_number(cell: str, what: str, *, path: str, line: int | None = None) -> Fraction:
    try:
        return Fraction(cell)
    except (ValueError, ZeroDivisionError):
        raise DataFormatError(f"cannot parse {what} {cell!r} as a number", path=path, line=line) from None


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataFormatError(f"cannot write file: {exc.strerror or exc}", path=str(path)) from exc


def csv_text(columns: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

def load_catalog(path: str | Path) -> CriterionCatalog:
    """Load a criterion catalog from CSV or JSON (chosen by file extension)."""
    if _is_json(path):
        payload = _load_json(path)
        if not isinstance(payload, dict) or not isinstance(payload.get("criteria"), list):
            raise DataFormatError("expected an object with a 'criteria' list", path=str(path))
        criteria = []
        for i, entry in enumerate(payload["criteria"]):
            if not isinstance(entry, dict) or "id" not in entry or "levels" not in entry:
                raise DataFormatError(f"criteria[{i}] must have 'id' and 'levels'", path=str(path))
            criteria.append(
                AbetCriterion(
                    id=str(entry["id"]),
                    levels=_parse_levels(
                        _json_list(entry, "levels", f"criteria[{i}]", path), path=str(path)
                    ),
                    description=str(entry.get("description", "")),
                )
            )
        provenance = str(payload.get("provenance", ""))
    else:
        criteria = []
        for line, row in _csv_rows(path, CATALOG_COLUMNS):
            if not row["id"].strip():
                raise DataFormatError("criterion id is empty", path=str(path), line=line)
            criteria.append(
                AbetCriterion(
                    id=row["id"].strip(),
                    levels=_parse_levels(row["levels"], path=str(path), line=line),
                    description=row["description"],
                )
            )
        provenance = str(path)
    return CriterionCatalog.from_criteria(criteria, provenance=provenance)


def write_catalog(catalog: CriterionCatalog, path: str | Path) -> None:
    if _is_json(path):
        payload = {
            "provenance": catalog.provenance,
            "criteria": [
                {
                    "id": c.id,
                    "description": c.description,
                    "levels": sorted(level.weight for level in c.levels),
                }
                for c in catalog.criteria.values()
            ],
        }
        _write_text(path, json_text(payload))
        return
    rows = [
        (c.id, c.description, "|".join(str(w) for w in sorted(level.weight for level in c.levels)))
        for c in catalog.criteria.values()
    ]
    _write_text(path, csv_text(CATALOG_COLUMNS, rows))


# ---------------------------------------------------------------------------
# lexicons
# ---------------------------------------------------------------------------

def load_lexicon(path: str | Path) -> BloomLexicon:
    """Load an action-verb lexicon (verb -> level(s)) from CSV or JSON."""
    by_level: dict[BloomLevel, set[str]] = {level: set() for level in BloomLevel}
    if _is_json(path):
        payload = _load_json(path)
        if not isinstance(payload, dict) or not isinstance(payload.get("verbs"), list):
            raise DataFormatError("expected an object with a 'verbs' list", path=str(path))
        for i, entry in enumerate(payload["verbs"]):
            if not isinstance(entry, dict) or "verb" not in entry or "levels" not in entry:
                raise DataFormatError(f"verbs[{i}] must have 'verb' and 'levels'", path=str(path))
            levels = _json_list(entry, "levels", f"verbs[{i}]", path)
            for level in _parse_levels(levels, path=str(path)):
                by_level[level].add(str(entry["verb"]))
    else:
        for line, row in _csv_rows(path, LEXICON_COLUMNS):
            if not row["verb"].strip():
                raise DataFormatError("verb is empty", path=str(path), line=line)
            for level in _parse_levels(row["levels"], path=str(path), line=line):
                by_level[level].add(row["verb"])
    return BloomLexicon(entries={level: frozenset(verbs) for level, verbs in by_level.items()})


def write_lexicon(lexicon: BloomLexicon, path: str | Path) -> None:
    levels_by_verb: dict[str, list[int]] = {}
    for level in BloomLevel:
        for verb in lexicon.entries[level]:
            levels_by_verb.setdefault(verb, []).append(level.weight)
    items = sorted(levels_by_verb.items())
    if _is_json(path):
        payload = {
            "verbs": [{"verb": verb, "levels": sorted(weights)} for verb, weights in items]
        }
        _write_text(path, json_text(payload))
        return
    rows = [(verb, "|".join(str(w) for w in sorted(weights))) for verb, weights in items]
    _write_text(path, csv_text(LEXICON_COLUMNS, rows))


def default_lexicon() -> BloomLexicon:
    """The shipped verb list. It is illustrative data, not a normative standard."""
    with resources.as_file(fixture_path("default_lexicon.csv")) as path:
        return load_lexicon(path)


# ---------------------------------------------------------------------------
# curricula
# ---------------------------------------------------------------------------

def _parse_overrides(cell: str, *, path: str, line: int) -> dict[str, int]:
    overrides: dict[str, int] = {}
    for pair in (p for p in cell.split("|") if p.strip()):
        cid, sep, points = pair.partition(":")
        if not sep or not cid.strip():
            raise DataFormatError(f"override {pair!r} is not an id:points pair", path=path, line=line)
        overrides[cid.strip()] = _parse_int(points.strip(), "override points", path=path, line=line)
    return overrides


def load_curriculum(path: str | Path, catalog: CriterionCatalog) -> list[Course]:
    """Load courses and validate every referenced criterion against the catalog."""
    courses: list[Course] = []
    if _is_json(path):
        payload = _load_json(path)
        if not isinstance(payload, dict) or not isinstance(payload.get("courses"), list):
            raise DataFormatError("expected an object with a 'courses' list", path=str(path))
        for i, entry in enumerate(payload["courses"]):
            if not isinstance(entry, dict) or "course_code" not in entry or "criteria" not in entry:
                raise DataFormatError(f"courses[{i}] must have 'course_code' and 'criteria'", path=str(path))
            overrides = entry.get("overrides") or {}
            if not isinstance(overrides, dict):
                raise DataFormatError(f"courses[{i}].overrides must be an object", path=str(path))
            courses.append(
                Course(
                    code=str(entry["course_code"]),
                    criteria=tuple(str(c) for c in _json_list(entry, "criteria", f"courses[{i}]", path)),
                    title=str(entry["title"]) if entry.get("title") else None,
                    cell_overrides={
                        str(k): _parse_int(str(v), "override points", path=str(path), line=None)
                        for k, v in overrides.items()
                    },
                )
            )
    else:
        for line, row in _csv_rows(path, CURRICULUM_COLUMNS):
            criteria = tuple(c.strip() for c in row["criteria"].split("|") if c.strip())
            if not criteria:
                raise ValidationError(f"{path}:{line}: course {row['course_code']!r} lists no criteria")
            courses.append(
                Course(
                    code=row["course_code"].strip(),
                    criteria=criteria,
                    title=row["title"] or None,
                    cell_overrides=_parse_overrides(row["overrides"], path=str(path), line=line),
                )
            )
    seen: set[str] = set()
    for course in courses:
        if course.code in seen:
            raise ValidationError(f"{path}: duplicate course code {course.code!r}")
        seen.add(course.code)
        for cid in course.criteria:
            if cid not in catalog:
                raise UnresolvedCriterionError(cid, course.code)
    return courses


def write_curriculum(courses: Sequence[Course], path: str | Path) -> None:
    if _is_json(path):
        payload = {
            "courses": [
                {
                    "course_code": c.code,
                    "title": c.title or "",
                    "criteria": list(c.criteria),
                    "overrides": {cid: c.cell_overrides[cid] for cid in sorted(c.cell_overrides)},
                }
                for c in courses
            ]
        }
        _write_text(path, json_text(payload))
        return
    rows = [
        (
            c.code,
            c.title or "",
            "|".join(c.criteria),
            "|".join(f"{cid}:{c.cell_overrides[cid]}" for cid in sorted(c.cell_overrides)),
        )
        for c in courses
    ]
    _write_text(path, csv_text(CURRICULUM_COLUMNS, rows))


# ---------------------------------------------------------------------------
# grade histories
# ---------------------------------------------------------------------------

def _parse_kind(cell: str, *, path: str, line: int | None) -> GradeKind:
    cell = cell.strip()
    if not cell:
        raise ValidationError(f"{path}{':' + str(line) if line else ''}: record has no kind tag")
    try:
        return GradeKind(cell.lower())
    except ValueError:
        raise ValidationError(
            f"{path}{':' + str(line) if line else ''}: unknown kind {cell!r}; expected "
            + " or ".join(k.value for k in GradeKind)
        ) from None


def load_grades(path: str | Path) -> dict[str, GradeHistory]:
    """Load per-generation grade records grouped by course, preserving file order."""
    grouped: dict[str, list[GenerationRecord]] = {}
    if _is_json(path):
        payload = _load_json(path)
        if not isinstance(payload, dict) or not isinstance(payload.get("courses"), list):
            raise DataFormatError("expected an object with a 'courses' list", path=str(path))
        for i, entry in enumerate(payload["courses"]):
            if not isinstance(entry, dict) or "course_code" not in entry:
                raise DataFormatError(f"courses[{i}] must have 'course_code'", path=str(path))
            for j, gen in enumerate(_json_list(entry, "generations", f"courses[{i}]", path)):
                if not isinstance(gen, dict):
                    raise DataFormatError(f"courses[{i}].generations[{j}] must be an object", path=str(path))
                record = GenerationRecord(
                    label=str(gen.get("label", "")),
                    kind=_parse_kind(str(gen.get("kind", "")), path=str(path), line=None),
                    value=_parse_number(str(gen.get("value")), "grade value", path=str(path), line=None),
                )
                grouped.setdefault(str(entry["course_code"]), []).append(record)
    else:
        for line, row in _csv_rows(path, GRADES_COLUMNS):
            record = GenerationRecord(
                label=row["generation"].strip(),
                kind=_parse_kind(row["kind"], path=str(path), line=line),
                value=_parse_number(row["value"], "grade value", path=str(path), line=line),
            )
            grouped.setdefault(row["course_code"].strip(), []).append(record)
    return {
        code: GradeHistory(course_code=code, generations=tuple(records))
        for code, records in grouped.items()
    }


def write_grades(grades: Mapping[str, GradeHistory], path: str | Path) -> None:
    if _is_json(path):
        payload = {
            "courses": [
                {
                    "course_code": history.course_code,
                    "generations": [
                        {"label": g.label, "kind": g.kind.value, "value": float(g.value)}
                        for g in history.generations
                    ],
                }
                for history in grades.values()
            ]
        }
        _write_text(path, json_text(payload))
        return
    rows = [
        (history.course_code, g.label, g.kind.value, decimal_text(g.value))
        for history in grades.values()
        for g in history.generations
    ]
    _write_text(path, csv_text(GRADES_COLUMNS, rows))


# ---------------------------------------------------------------------------
# outcome statements
# ---------------------------------------------------------------------------

def load_statements(path: str | Path) -> list[OutcomeStatement]:
    statements = []
    for line, row in _csv_rows(path, STATEMENTS_COLUMNS):
        if not row["text"].strip():
            raise ValidationError(f"{path}:{line}: statement {row['criterion_id']!r} has empty text")
        statements.append(OutcomeStatement(criterion_id=row["criterion_id"].strip(), text=row["text"]))
    return statements


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def render_report_csv(report: ValidationReport) -> str:
    """Byte-stable CSV: one row per course, then the AVERAGE row, 1-decimal values."""
    rows = [
        (c.course_code, format_fixed(c.actual_di), format_fixed(c.estimated_di), format_fixed(c.abs_error))
        for c in report.comparisons
    ]
    rows.append(
        (
            AVERAGE_LABEL,
            format_fixed(report.mean_actual),
            format_fixed(report.mean_estimated),
            format_fixed(report.mean_abs_error),
        )
    )
    return csv_text(REPORT_COLUMNS, rows)


def write_plot_data(report: ValidationReport, path: str | Path) -> None:
    """Two-series plot data: actual vs estimated difficulty per course."""
    rows = [
        (c.course_code, format_fixed(c.actual_di), format_fixed(c.estimated_di))
        for c in report.comparisons
    ]
    _write_text(path, csv_text(PLOT_COLUMNS, rows))


# ---------------------------------------------------------------------------
# bundles and fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataBundle:
    """All loaded inputs plus provenance (path and content hash per file)."""

    catalog: CriterionCatalog
    courses: tuple[Course, ...]
    grades: Mapping[str, GradeHistory] = field(default_factory=dict)
    provenance: tuple[tuple[str, str, str], ...] = ()

    def courses_without_grades(self) -> tuple[str, ...]:
        return tuple(c.code for c in self.courses if c.code not in self.grades)

    def unmatched_grade_codes(self) -> tuple[str, ...]:
        known = {c.code for c in self.courses}
        return tuple(code for code in self.grades if code not in known)


def _sha256(path: str | Path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc.strerror or exc}", path=str(path)) from exc


def load_bundle(
    catalog_path: str | Path,
    curriculum_path: str | Path,
    grades_path: str | Path | None = None,
) -> DataBundle:
    """Load and cross-validate a full input set."""
    catalog = load_catalog(catalog_path)
    courses = load_curriculum(curriculum_path, catalog)
    grades = load_grades(grades_path) if grades_path else {}
    provenance = [
        ("catalog", str(catalog_path), _sha256(catalog_path)),
        ("curriculum", str(curriculum_path), _sha256(curriculum_path)),
    ]
    if grades_path:
        provenance.append(("grades", str(grades_path), _sha256(grades_path)))
    return DataBundle(
        catalog=catalog,
        courses=tuple(courses),
        grades=grades,
        provenance=tuple(provenance),
    )


def fixture_path(name: str):
    """Traversable handle on a shipped fixture file."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return resources.files(__package__) / "fixtures" / name


def copy_fixtures(dest: str | Path) -> list[Path]:
    """Write all shipped fixture files into ``dest`` and return their paths."""
    dest_dir = Path(dest)
    dest_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in FIXTURE_NAMES:
        target = dest_dir / name
        target.write_bytes(fixture_path(name).read_bytes())
        written.append(target)
    return written
