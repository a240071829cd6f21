"""On-disk formats: catalogs, lexicons, curricula, grade files, and reports.

README.md, "File formats", specifies the CSV columns, the JSON forms, the
number syntax and the error locators; this module implements them, and every
file a writer here writes loads back to the same objects.

Each file is read once, one block of ``_SLICE`` bytes at a time;
``load_bundle`` hashes each block for its provenance, and each is decoded
strictly, with text-mode newline translation, as it comes. ``csv.reader``
reads the text one slice of whole lines at a time, so no copy of the whole
file is held; JSON is parsed from the slices joined. CSV and JSON reach the
loaders as (locator, cells) pairs, the cells a tuple in the loader's column
order, and each record is built through its constructor, which checks it.

Reports render from the integers each comparison holds: the CSV and plot
cells through ``format_ratio``, and each JSON report entry as its code and
its values' text, from one table of distinct tails, as ``json.dumps``
(indent 2) would, joined once with the text around the list. Whatever runs
once per distinct value, here and in ``cli``, runs through one bounded memo,
``_Memo``. Every file is written by ``_write_text``, from pieces of text,
in slices that are each encoded on their own, so no encoded copy of a whole
output is made; CSV is rendered a batch of rows at a time (``csv_batches``).
Each file is an output of one run, ``_one_run``: it is written to a temp
file that replaces it only once the whole run has succeeded, so a run that
fails leaves every output as it was.

``taxonomy`` and ``json`` are imported inside the loaders and renderers that
use them, once per call, so that a command that reads no catalog, lexicon or
JSON and writes no JSON loads neither (README, "Start-up").
"""

from __future__ import annotations

import codecs
import csv
import errno
import functools
import io
import os
import re
import stat
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .engine import (
    NO_OVERRIDES,
    Course,
    GenerationRecord,
    GradeHistory,
    GradeKind,
)
from .errors import CourseDifficultyError, DataFormatError, UnresolvedCriterionError, ValidationError
from .rounding import decimal_text, format_fixed, format_ratio, parse_decimal, parse_int

if TYPE_CHECKING:  # annotations only: these modules load where a call uses them (README, "Start-up")
    from .mapper import OutcomeStatement
    from .taxonomy import BloomLexicon, CriterionCatalog
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

# JSON keys whose value is a list (one '|'-joined cell) or an object (id:points pairs);
# every other value is a string or a number
_JSON_SHAPES = {"levels": (list, "a list"), "criteria": (list, "a list"), "overrides": (dict, "an object")}
_JSON_REQUIRED = frozenset({"id", "verb", "levels", "course_code", "criteria"})  # other keys default to ""
_JSON_KEYS = {"generation": "label"}  # CSV column -> JSON key, where they differ
# no output holds these: CSV reads a carriage return as a newline; UTF-8 has no lone surrogate
_UNWRITABLE = re.compile("[\r\ud800-\udfff]")

# while set (by load_bundle), each file read appends the SHA-256 of its bytes here
_digests: ContextVar[list[str] | None] = ContextVar("_digests", default=None)
# while set (by _one_run), each temp file _write_text begins, and each directory a run makes, is listed here
_outputs: ContextVar[list[tuple[str | Path, str | None, str | None]] | None] = ContextVar("_outputs", default=None)


# the bound keeps a memo over inputs whose values do not repeat (a gradebook's cells
# number terms x value grid, and a 0.1 grid on 0-100 alone has 1,001 values) from
# holding an entry per record: about 5 MB of tables at worst
_SHARED_LITERALS = 16384


class _Memo(dict):
    """``memo[key]`` is ``make(key)``, run at the first look-up of each distinct key.

    It keeps the first ``_SHARED_LITERALS`` keys and then runs ``make`` at
    each look-up of any other; an exception from ``make`` stores nothing.
    A hit runs no Python code.
    """

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Hashable], object]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: Hashable) -> object:
        value = self.make(key)
        if len(self) < _SHARED_LITERALS:
            self[key] = value
        return value


# ---------------------------------------------------------------------------
# reading: every file kind as (locator, cells) records
# ---------------------------------------------------------------------------

# bytes per block read, and characters per slice of an output encoded: slices this size wrote a 3 MB report
# faster than one ``Path.write_text``, and 8 KiB ones slower
_SLICE = 1 << 16


def _text_slices(path: str | Path) -> Iterator[str]:
    """A file's UTF-8 text in slices of whole lines, read ``_SLICE`` bytes at a time, so that no copy of the
    whole file is held; while ``load_bundle`` collects digests, the SHA-256 of its bytes goes to ``_digests``.

    The decode is strict and incremental: an error names its byte offset in the file, for a character split
    between two blocks too. One leading byte-order mark is dropped. Newlines are translated as text-mode
    reading does (``\\r\\n`` and a lone ``\\r`` become ``\\n``), across blocks too, which CSV quoted fields
    and JSON line numbers rely on. Each slice but the last ends with a ``\\n``.
    """
    digests = _digests.get()
    if digests is not None:
        import hashlib  # here, so that the subcommands that never hash do not load OpenSSL at start-up

        digest = hashlib.sha256()
    decode = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), translate=True).decode
    read, pending, mark = 0, [], "\ufeff"  # as a spreadsheet's "CSV UTF-8" file begins
    try:
        with io.open(path, "rb", buffering=0) as file:  # not open(), which writes alone go through
            for block in iter(functools.partial(file.read, _SLICE), b""):
                read += len(block)
                if digests is not None:
                    digest.update(block)
                lines, newline, rest = decode(block).rpartition("\n")
                if newline:
                    yield "".join((*pending, lines, newline)).removeprefix(mark)
                    pending, mark = [], ""
                pending.append(rest)
            pending.append(decode(b"", True))
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc.strerror or exc}").locate(str(path)) from exc
    except UnicodeDecodeError as exc:  # its object is the bytes decoded in the failing call, the last read
        raise DataFormatError(f"not UTF-8 text: {exc.reason} at byte {read - len(exc.object) + exc.start}"
                              ).locate(str(path)) from None
    if digests is not None:
        digests.append(digest.hexdigest())
    yield "".join(pending).removeprefix(mark)


def _csv_rows(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Parse a CSV file, checking the header, and yield (line, cells) pairs, the cells in ``columns`` order."""
    # the lines io.StringIO(text) gives, a slice at a time: one over the whole text holds it again, 4 bytes a character
    reader = csv.reader(chain.from_iterable(map(io.StringIO, _text_slices(path))))
    try:
        header = next(reader, None)
        if header is None:
            raise DataFormatError("file is empty; a header row is required")
        position = {name: i for i, name in enumerate(header)}  # a column named twice reads its last cell
        missing = [c for c in columns if c not in position]
        if missing:
            raise DataFormatError(f"header is missing column(s) {', '.join(missing)}; found {header}")
        pick = itemgetter(*(position[c] for c in columns))  # every loader reads two or more columns
        width = len(header)
        for cells in reader:
            if len(cells) != width:
                if not cells:  # blank line
                    continue
                more = "more" if len(cells) > width else "fewer"  # located here: the loader's line is the previous row's
                raise DataFormatError(f"row has {more} fields than the header").locate(str(path), reader.line_num)
            # structural fields are stripped at their point of use; free text stays verbatim
            yield reader.line_num, pick(cells)
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise DataFormatError(f"malformed CSV: {exc}").locate(str(path), reader.line_num) from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object's members; a repeated key is an error, never a silent overwrite."""
    members: dict[str, object] = {}
    for key, value in pairs:
        if key in members:
            raise DataFormatError(f"JSON object repeats key {key!r}")
        members[key] = value
    return members


def _load_json(path: str | Path) -> object:
    import json

    text = "".join(_text_slices(path))
    try:  # numbers stay literal text, so they parse exactly as CSV cells do
        return json.loads(text, parse_int=str, parse_float=str, parse_constant=str, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc.msg}").locate(str(path), exc.lineno) from exc
    except RecursionError:
        raise DataFormatError("invalid JSON: nested too deeply") from None


def _is_json(path: str | Path) -> bool:
    return Path(path).suffix.lower() == ".json"


def _json_cell(value: object, key: str, at: str) -> str:
    """The ``key`` value of the JSON entry at path ``at`` ("" for the top level) as the
    text of the CSV cell it stands for; a key path is built only for an error."""
    shape, name = _JSON_SHAPES.get(key, (str, "a string or a number"))
    if not isinstance(value, shape):
        raise DataFormatError(f"{_key_path(at, key)} must be {name}")
    if shape is list:
        for i, part in enumerate(value):
            if not isinstance(part, str) or "|" in part or _UNWRITABLE.search(part):
                raise _part_error(part, f"{_key_path(at, key)}[{i}]")
        return "|".join(value)
    if shape is dict:
        for k, part in value.items():  # a key is always a string
            if "|" in k or _UNWRITABLE.search(k):
                raise _part_error(k, _key_path(at, key))
            if not isinstance(part, str) or "|" in part or _UNWRITABLE.search(part):
                raise _part_error(part, f"{_key_path(at, key)}.{k}")
        return "|".join(map(":".join, value.items()))
    if bad := _UNWRITABLE.search(value):
        raise _part_error(bad[0], _key_path(at, key))  # alone: a plain value may hold '|'
    return value


def _key_path(at: str, key: str) -> str:
    return f"{at}.{key}" if at else key


def _part_error(part: object, where: str) -> DataFormatError:
    """The error for a list entry or override part that is not a string free of '|' and ``_UNWRITABLE``."""
    if not isinstance(part, str):
        return DataFormatError(f"{where} must be a string or a number")
    char = "|" if "|" in part else _UNWRITABLE.search(part)[0]  # a '|' would split it once joined
    what = {"|": "'|'", "\r": "a carriage return"}.get(char) or f"a lone surrogate (\\u{ord(char):04x})"
    return DataFormatError(f"{where} must not contain {what}")


def _json_rows(
    entries: object, where: str, columns: Sequence[str], nested: Sequence[str], inherited: tuple[str, ...]
) -> Iterator[tuple[str, tuple[str, ...]]]:
    """Each JSON entry as an (entry path, cells) pair, the cells in ``columns`` order;
    with ``nested`` columns, the entry's required ``generations`` are the rows, each after the entry's cells."""
    if not isinstance(entries, list):
        raise DataFormatError(f"{where} must be a list")
    keys = [_JSON_KEYS.get(column, column) for column in columns]
    for i, entry in enumerate(entries):
        at = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise DataFormatError(f"{at} must be an object")
        cells = list(inherited)
        for key in keys:
            if key in entry:
                cells.append(_json_cell(entry[key], key, at))
            elif key in _JSON_REQUIRED:
                raise DataFormatError(f"{at} must have {key!r}")
            else:
                cells.append("")
        if nested:
            if "generations" not in entry:
                raise DataFormatError(f"{at} must have 'generations'")
            rows = list(_json_rows(entry["generations"], f"{at}.generations", nested, (), tuple(cells)))
            # an empty list still names its course, as a row of None cells: a course with no records
            yield from rows or [(at, (*cells, *[None] * len(nested)))]
        else:
            yield at, tuple(cells)


@contextmanager
def _reading(
    path: str | Path, columns: Sequence[str], key: str | None, nested: Sequence[str] = ()
) -> Iterator[SimpleNamespace]:
    """A file's records as cell tuples, and the one place that names a failing record.

    ``file.rows`` yields (locator, cells) pairs: the CSV line number, or the
    path of the JSON entry in the ``key`` list (no JSON form when ``key`` is
    None), and the cells of ``columns`` then ``nested``, in that order. The
    loader keeps ``file.line`` current as it loops (``for file.line, (a, b) in
    file.rows``), and any package error raised inside ``with`` is prefixed with
    ``path:line:``. ``file.provenance`` is the path, or a JSON file's own
    ``provenance`` text.
    """
    file = SimpleNamespace(line=None, provenance=str(path), rows=())
    try:
        if key is not None and _is_json(path):
            payload = _load_json(path)
            if not isinstance(payload, dict):
                raise DataFormatError(f"expected an object with a '{key}' list")
            file.provenance = _json_cell(payload.get("provenance", ""), "provenance", "")
            file.rows = list(_json_rows(payload.get(key), key, columns, nested, ()))
        else:
            file.rows = _csv_rows(path, (*columns, *nested))
        yield file
    except CourseDifficultyError as exc:
        raise exc.locate(str(path), file.line)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

@contextmanager
def _writing(path: str | Path) -> Iterator[None]:
    """Turn an ``OSError`` raised inside ``with`` into a ``DataFormatError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise DataFormatError(f"cannot write file: {exc.strerror or exc}").locate(str(path)) from exc


@contextmanager
def _one_run() -> Iterator[list[tuple[str | Path, str | None, str | None]]]:
    """One run's outputs, landing together or not at all. It yields a list of (path, temp, target) entries:
    ``_write_text`` adds one for each file it writes to a temp file, to replace the resolved ``target``, and
    ``copy_fixtures`` a (directory, None, None) for each directory the run makes, outermost first. When the
    block returns, each temp replaces its target (``os.replace``), in the order begun; a replace that fails
    fails the run, and the targets replaced before it stay replaced. If anything raises, the temps that are
    left are removed, then each directory, deepest first, where it is empty, with no error reported in
    removing them: every target not yet replaced is left as it was. Entered while a run is open, it yields
    that run's list and leaves the landing to that run."""
    if (begun := _outputs.get()) is not None:
        yield begun
        return
    token = _outputs.set(begun := [])
    try:
        yield begun
        for path, temp, target in begun:
            if temp is not None:
                with _writing(path):
                    os.replace(temp, target)
    except BaseException:
        for path, temp, _ in begun:
            if temp is not None:
                with suppress(OSError):  # a temp that has replaced its target is gone
                    os.remove(temp)
        for path, temp, _ in reversed(begun):  # rmdir refuses a directory that still holds a file
            if temp is None:
                with suppress(OSError):
                    os.rmdir(path)
        raise
    finally:
        _outputs.reset(token)


def _write_text(path: str | Path, pieces: Iterable[str]) -> None:
    """Write the text ``pieces`` join to as UTF-8, with no newline translated, one slice at a time: no
    encoded copy of the whole text is ever made, nor the whole text where the pieces are made as they are
    written. The file is an output of the open run, or of its own (``_one_run``).

    A regular file, or one that does not exist yet, is written to a new temp file beside the file the path
    resolves to, with that file's permission bits, which replaces it once the run has succeeded; so its
    directory must be writable. Anything else, such as ``/dev/stdout`` or a FIFO, is written in place.
    """
    with _one_run() as begun, _writing(path):
        target = os.path.realpath(path) if os.path.islink(path) else path  # realpath costs ten islinks
        kept = None  # the mode of the file there before the run
        with suppress(FileNotFoundError):
            kept = os.stat(target).st_mode
        if kept is not None and not stat.S_ISREG(kept):
            file, kept = open(path, "wb"), None
        else:
            if kept is not None and not os.access(target, os.W_OK):  # a read-only file is not replaced
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            head, name = os.path.split(target)
            for n in count():  # 50 characters of the name, so that a name of up to 255 bytes still fits
                temp = os.path.join(head, f".{name[:50]}.{os.getpid()}-{n}.tmp")
                with suppress(FileExistsError):
                    file = open(temp, "xb")
                    break
            begun.append((path, temp, target))
        with file:
            if kept is not None:
                os.chmod(temp, stat.S_IMODE(kept))
            for text in pieces:
                for start in range(0, len(text), _SLICE):
                    file.write(text[start:start + _SLICE].encode("utf-8"))
            file.flush()  # so that the last slice fails here, not at close


def csv_text(columns: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The text ``csv.writer(lineterminator="\\n")`` writes for the header and the rows.

    The rows are joined in C; where the joined text shows a cell that might
    need quoting (README, "File formats"), ``csv.writer`` writes them instead.
    A carriage return counts: Python 3.13's writer quotes it, 3.10-3.12's do not.
    """
    rows = [columns, *rows]
    try:
        text = "\n".join(map(",".join, rows)) + "\n"
    except TypeError:  # a cell that is not a str
        text = None
    if (text is None or '"' in text or "\r" in text or "\n\n" in text or text[0] == "\n"
            or text.count(",") != sum(map(len, rows)) - len(rows) or text.count("\n") != len(rows)):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    return text


def csv_batches(columns: Sequence[str], rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """The text of ``csv_text(columns, rows)`` in pieces, each ``csv_text`` of the next batch of rows, the
    header first: the rows are drawn, and their text made, one batch at a time. A batch is ``_SLICE >> 7``
    rows, so that its text fits in one slice where rows are 128 characters or shorter."""
    rows = chain((columns,), rows)
    while batch := list(islice(rows, _SLICE >> 7 or 1)):
        yield csv_text(batch[0], batch[1:])


def json_text(payload: object) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _cell_text(value: object) -> object:
    if isinstance(value, dict):
        return "|".join(f"{k}:{v}" for k, v in value.items())
    return "|".join(map(str, value)) if isinstance(value, list) else value


def _write_records(
    path: str | Path, columns: Sequence[str], key: str, rows: Iterable[Sequence[object]],
    nested: Sequence[str] = (), head: Mapping[str, str] | None = None,
) -> None:
    """Write rows of cell values as CSV, or by extension as the JSON form ``_reading`` reads.

    In CSV a list value becomes one '|'-joined cell and a dict id:points pairs.
    """
    if not _is_json(path):
        _write_text(path, csv_batches((*columns, *nested), ([_cell_text(v) for v in row] for row in rows)))
        return
    entries: list[dict[str, object]] = []
    for row in rows:
        entry = dict(zip(columns, row))
        if not nested:
            entries.append(entry)
            continue
        if not entries or any(entries[-1][c] != entry[c] for c in columns):
            entries.append({**entry, "generations": []})
        entries[-1]["generations"].append({_JSON_KEYS.get(c, c): v for c, v in zip(nested, row[len(columns):])})
    _write_text(path, [json_text({**(head or {}), key: entries})])


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

def load_catalog(path: str | Path) -> CriterionCatalog:
    """Load a criterion catalog from CSV or JSON (chosen by file extension)."""
    from .taxonomy import AbetCriterion, CriterionCatalog, _levels

    with _reading(path, CATALOG_COLUMNS, "criteria") as file:
        def criteria() -> Iterator[AbetCriterion]:  # keeps file.line on the row that from_criteria checks
            for file.line, (cid, description, levels) in file.rows:
                cid = cid.strip()
                if not cid:
                    raise DataFormatError("criterion id is empty")
                yield AbetCriterion(id=cid, levels=_levels(levels, "criterion", cid), description=description)

        return CriterionCatalog.from_criteria(criteria(), file.provenance)


def write_catalog(catalog: CriterionCatalog, path: str | Path) -> None:
    rows = [(c.id, c.description, sorted(level.weight for level in c.levels)) for c in catalog.criteria.values()]
    _write_records(path, CATALOG_COLUMNS, "criteria", rows, head={"provenance": catalog.provenance})


# ---------------------------------------------------------------------------
# lexicons
# ---------------------------------------------------------------------------

def load_lexicon(path: str | Path) -> BloomLexicon:
    """Load an action-verb lexicon (verb -> level(s)) from CSV or JSON."""
    from .taxonomy import BloomLevel, BloomLexicon, _levels

    by_verb: dict[str, frozenset[BloomLevel]] = {}  # each verb as the lexicon normalises it
    with _reading(path, LEXICON_COLUMNS, "verbs") as file:
        for file.line, (verb, cell) in file.rows:
            name = verb.strip()
            if not name:
                raise DataFormatError("verb is empty")
            levels = _levels(cell, "verb", name)
            if not levels:
                raise ValidationError(f"verb {name!r} maps to no complexity levels")
            if name.lower() in by_verb:  # its rows would merge into one
                raise ValidationError(f"verb {name!r} is given more than once")
            by_verb[name.lower()] = levels
        file.line = None  # a level without verbs is the whole file's problem
        return BloomLexicon(entries={
            level: frozenset(verb for verb, levels in by_verb.items() if level in levels) for level in BloomLevel})


def write_lexicon(lexicon: BloomLexicon, path: str | Path) -> None:
    rows = [(verb, sorted(level.weight for level in levels)) for verb, levels in sorted(lexicon.levels_by_verb.items())]
    _write_records(path, LEXICON_COLUMNS, "verbs", rows)


@functools.cache
def default_lexicon() -> BloomLexicon:
    """The shipped verb list, loaded once per process and shared: it is read-only.
    It is illustrative data, not a normative standard."""
    return load_lexicon(fixture_path("default_lexicon.csv"))


# ---------------------------------------------------------------------------
# curricula
# ---------------------------------------------------------------------------

def _overrides(cell: str) -> Mapping[str, int]:
    if not cell:
        return NO_OVERRIDES
    overrides: dict[str, int] = {}
    for pair in (p for p in cell.split("|") if p.strip()):
        cid, sep, points = pair.partition(":")
        cid = cid.strip()
        if not sep or not cid:
            raise DataFormatError(f"override {pair!r} is not an id:points pair")
        if cid in overrides:
            raise DataFormatError(f"override {cid!r} is given twice")
        overrides[cid] = parse_int(points, "override points")
    return overrides


def load_curriculum(path: str | Path, catalog: CriterionCatalog) -> list[Course]:
    """Load courses and validate every referenced criterion against the catalog."""
    courses: dict[str, Course] = {}
    known = catalog.criteria
    with _reading(path, CURRICULUM_COLUMNS, "courses") as file:
        for file.line, (code, title, cell, overrides) in file.rows:
            code = code.strip()
            criteria = tuple(filter(None, map(str.strip, cell.split("|"))))
            course = Course(code, criteria, title or None, _overrides(overrides))
            if code in courses:
                raise ValidationError(f"duplicate course code {code!r}")
            for cid in criteria:
                if cid not in known:
                    raise UnresolvedCriterionError(cid, code)
            courses[code] = course
    return list(courses.values())


def write_curriculum(courses: Sequence[Course], path: str | Path) -> None:
    rows = [
        (c.code, c.title or "", list(c.criteria), {cid: c.cell_overrides[cid] for cid in sorted(c.cell_overrides)})
        for c in courses
    ]
    _write_records(path, CURRICULUM_COLUMNS, "courses", rows)


# ---------------------------------------------------------------------------
# grade histories
# ---------------------------------------------------------------------------

_KINDS = {kind.value: kind for kind in GradeKind}


def load_grades(path: str | Path) -> dict[str, GradeHistory]:
    """Load per-generation grade records grouped by course, preserving file order.

    Rows whose raw ``(generation, kind, value)`` cells have the same text share
    one ``GenerationRecord``, built through its constructor once; records whose
    value cells have the same text share one ``Fraction``, and those whose
    generation cells do, one stripped label. Each is a ``_Memo`` of its texts.
    """
    grouped: dict[str, tuple[int | str, list[GenerationRecord]]] = {}  # code -> (first row's line, records)
    histories: dict[str, GradeHistory] = {}
    values = _Memo(lambda text: parse_decimal(text, "grade value"))  # a malformed literal never enters
    labels = _Memo(str.strip)

    def build(cells: tuple[str, str, str]) -> GenerationRecord:
        label, kind_text, text = cells
        kind = _KINDS.get(kind_text.strip().lower())
        if kind is None:
            raise ValidationError(f"unknown kind {kind_text.strip()!r}; expected " + " or ".join(_KINDS))
        return GenerationRecord(labels[label], kind, values[text])  # checks the label, then the range

    shared = _Memo(build)  # raw cells -> their checked record
    # a JSON grade file lists each course's records under its "generations"
    with _reading(path, GRADES_COLUMNS[:1], "courses", GRADES_COLUMNS[1:]) as file:
        for file.line, (code, label, kind_text, text) in file.rows:
            code = code.strip()
            if (group := grouped.get(code)) is None:
                grouped[code] = group = (file.line, [])
            if label is not None:  # else a JSON course with no records, which its GradeHistory refuses below
                group[1].append(shared[label, kind_text, text])
        for code, (file.line, records) in grouped.items():  # a course's problem names its first row
            histories[code] = GradeHistory(code, records)
    return histories


def write_grades(grades: Mapping[str, GradeHistory], path: str | Path) -> None:
    rows = [
        (history.course_code, g.label, g.kind.value, decimal_text(g.value))
        for history in grades.values()
        for g in history.generations
    ]
    _write_records(path, GRADES_COLUMNS[:1], "courses", rows, nested=GRADES_COLUMNS[1:])


# ---------------------------------------------------------------------------
# outcome statements
# ---------------------------------------------------------------------------

def load_statements(path: str | Path) -> list[OutcomeStatement]:
    from .mapper import OutcomeStatement

    statements = []
    with _reading(path, STATEMENTS_COLUMNS, None) as file:
        for file.line, (cid, text) in file.rows:
            statements.append(OutcomeStatement(criterion_id=cid.strip(), text=text))
    return statements


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _entry_tail(key: tuple[int, int, int, int, int]) -> str:
    """A report entry's text from ``"actual_di"`` to its closing brace; each value is the ``repr`` of
    a correctly rounded int division, equal to ``float(Fraction(num, den))``."""
    a, e, den, final_num, final_den = key
    diff, estimated, final = abs(a - e), e / den, final_num / final_den
    e_text = repr(estimated)  # the final's too if equal, as under the default policy
    return (f'"actual_di": {a / den!r},\n      "estimated_di": {e_text},\n      "abs_error": {diff / den!r},\n'
            f'      "squared_error": {diff * diff / (den * den)!r},\n'
            f'      "final_di": {e_text if final == estimated else repr(final)}\n    }}')


def report_rows(report: ValidationReport) -> list[tuple[str, str, str, str]]:
    """The ``REPORT_COLUMNS`` cells: one row per course, then the AVERAGE row, 1-decimal values."""
    cells = _Memo(lambda pair: format_ratio(*pair))
    rows = [
        (c.course_code, cells[c.actual_num, c.den], cells[c.estimated_num, c.den],
         cells[abs(c.actual_num - c.estimated_num), c.den])
        for c in report.comparisons
    ]
    means = (report.mean_actual, report.mean_estimated, report.mean_abs_error)
    rows.append((AVERAGE_LABEL, *map(format_fixed, means)))
    return rows


def render_report_csv(report: ValidationReport) -> str:
    """Byte-stable CSV of ``report_rows``."""
    return csv_text(REPORT_COLUMNS, report_rows(report))


def render_report_json(payload: dict[str, object], report: ValidationReport, finals: Sequence[Fraction]) -> str:
    """``json_text(payload)`` with its top-level ``"courses": []`` holding one entry per comparison.

    Each entry is rendered from one fixed template, as the text
    ``json.dumps(indent=2)`` gives it there: the code through
    ``encode_basestring_ascii``, then its ``_entry_tail``, from one table.
    ``finals`` holds each course's final difficulty, in comparison order.
    The report holds at least one comparison, as ``summarize`` requires.
    """
    from json.encoder import encode_basestring_ascii

    tails = _Memo(_entry_tail)
    entries = [
        f'    {{\n      "course_code": {encode_basestring_ascii(c.course_code)},\n'
        f'      {tails[c.actual_num, c.estimated_num, c.den, final.numerator, final.denominator]}'
        for c, final in zip(report.comparisons, finals)
    ]
    del tails  # each entry copied its tail: free them before the join
    head, _, tail = json_text(payload).partition('\n  "courses": []')  # a top-level key: 2-space indent
    # folded into the first and last entries, so that the one join makes the only copy of the text
    entries[0] = f'{head}\n  "courses": [\n{entries[0]}'
    entries[-1] = f"{entries[-1]}\n  ]{tail}"
    return ",\n".join(entries)


def write_plot_data(report: ValidationReport, path: str | Path) -> None:
    """Two-series plot data: actual vs estimated difficulty per course."""
    cells = _Memo(lambda pair: format_ratio(*pair))
    rows = ((c.course_code, cells[c.actual_num, c.den], cells[c.estimated_num, c.den]) for c in report.comparisons)
    _write_text(path, csv_batches(PLOT_COLUMNS, rows))


# ---------------------------------------------------------------------------
# bundles and fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataBundle:
    """All loaded inputs plus provenance (path and content hash per file)."""

    catalog: CriterionCatalog
    courses: tuple[Course, ...]
    grades: Mapping[str, GradeHistory]
    provenance: tuple[tuple[str, str, str], ...]  # (role, path, SHA-256) per input file

    def courses_without_grades(self) -> tuple[str, ...]:
        return tuple(c.code for c in self.courses if c.code not in self.grades)

    def unmatched_grade_codes(self) -> tuple[str, ...]:
        known = {c.code for c in self.courses}
        return tuple(code for code in self.grades if code not in known)


def load_bundle(catalog_path: str | Path, curriculum_path: str | Path, grades_path: str | Path) -> DataBundle:
    """Load and cross-validate a full input set, hashing each file from the one read that parses it."""
    digests: list[str] = []  # one per file read, in order
    token = _digests.set(digests)
    try:
        catalog = load_catalog(catalog_path)
        courses = load_curriculum(curriculum_path, catalog)
        grades = load_grades(grades_path)
    finally:
        _digests.reset(token)
    paths = (("catalog", catalog_path), ("curriculum", curriculum_path), ("grades", grades_path))
    return DataBundle(
        catalog=catalog,
        courses=tuple(courses),
        grades=grades,
        provenance=tuple((role, str(path), digest) for (role, path), digest in zip(paths, digests)),
    )


def fixture_path(name: str) -> Path:
    """The path of a shipped fixture file."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return Path(__file__).with_name("fixtures") / name


def copy_fixtures(dest: str | Path) -> list[Path]:
    """Write all shipped fixture files into ``dest`` and return their paths.
    The set is one run (``_one_run``), with the directories it makes: a write that fails removes the files
    written before it, and the directories the run made."""
    dest_dir = Path(dest)
    written = [dest_dir / name for name in FIXTURE_NAMES]
    with _one_run() as begun:
        begun += [(path, None, None) for path in reversed((dest_dir, *dest_dir.parents)) if not os.path.lexists(path)]
        with _writing(dest_dir):
            dest_dir.mkdir(parents=True, exist_ok=True)
        for target in written:  # no newline is translated
            _write_text(target, [fixture_path(target.name).read_bytes().decode("utf-8")])
    return written
