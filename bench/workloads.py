"""Seeded inputs and CLI call lists for the benchmark's four workloads.

``prepare(name, seed, scale, workdir, fixtures_dir)`` writes the input files
a workload needs into ``workdir`` and returns a ``Workload``: the distinct
CLI calls, the order in which one child process runs them, the number of
work items one pass covers, the traced functions that must be called, and an
oracle check per distinct call. The same seed writes byte-identical files.
``scale`` shrinks the sizes for the self-test; the benchmark runs at 1.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
from oracle import AS_PRINTED, CANONICAL, CallOutput, CourseRec, GradeRec

NAMES = ("validate-20k", "estimate-50k", "grades-deep", "fixtures-sweep")

VALIDATE_COURSES = 20_000
ESTIMATE_COURSES = 50_000
DEEP_COURSES = 10_000
DEEP_GENERATIONS = 12
VALIDATE_GENERATIONS = 3
SWEEPS = 20

# The paper's Table 2/3 reference columns (as-printed curriculum, rounded).
PAPER_RAW_TOTALS = [96, 96, 111, 111, 96, 96, 96, 75, 38, 95, 18]
PAPER_ESTIMATED = ["3.8", "3.8", "4.4", "4.4", "3.8", "3.8", "3.8", "3.6", "2.3", "3.8", "1.1"]
PAPER_ACTUAL = ["4.0", "4.0", "4.1", "4.2", "4.0", "4.1", "3.6", "3.6", "2.4", "4.1", "1.4"]
PAPER_ERRORS = ["0.2", "0.2", "0.3", "0.2", "0.2", "0.3", "0.2", "0.0", "0.1", "0.3", "0.3"]
PAPER_AVERAGES = ["3.6", "3.5", "0.2"]


class BenchError(Exception):
    """The benchmark cannot run: bad inputs or fixtures that disagree with the paper."""


@dataclass
class Workload:
    calls: list[dict]  # {"argv": [...], "files": [output files to hash]} per distinct call
    order: list[int]  # indices into ``calls``, in the order one child runs them
    items: int  # work items one child pass covers
    traced: tuple[str, ...]  # traced functions that must make at least one call
    check: Callable[[int, CallOutput], list[str]]  # oracle errors for distinct call i


def _size(n: int, scale: float) -> int:
    return max(20, round(n * scale))


def _csv_bytes(header: tuple[str, ...], rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _write(path: Path, data: bytes) -> dict:
    path.write_bytes(data)
    return {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def catalog_bytes() -> bytes:
    criteria = [
        {"id": cid, "description": f"outcome {cid}", "levels": list(levels)}
        for cid, levels in oracle.CRITERIA.items()
    ]
    return (json.dumps({"provenance": "bench-table1", "criteria": criteria}, indent=2) + "\n").encode("utf-8")


def curriculum_bytes(courses: list[CourseRec]) -> bytes:
    rows = (
        (c.code, c.title, "|".join(c.criteria), "|".join(f"{cid}:{pts}" for cid, pts in c.overrides.items()))
        for c in courses
    )
    return _csv_bytes(("course_code", "title", "criteria", "overrides"), rows)


def grades_bytes(records: list[GradeRec]) -> bytes:
    rows = ((r.code, r.label, r.kind, oracle.tenths_text(r.tenths)) for r in records)
    return _csv_bytes(("course_code", "generation", "kind", "value"), rows)


def synth_courses(rng: random.Random, n: int) -> list[CourseRec]:
    """``n`` courses of 3-8 of the 13 criteria; exactly a tenth carry one override."""
    ids = list(oracle.CRITERIA)
    with_override = set(rng.sample(range(n), n // 10))
    courses = []
    for i in range(n):
        criteria = tuple(rng.sample(ids, rng.randint(3, 8)))
        overrides = {rng.choice(criteria): rng.randint(1, oracle.MAX_RUBRIC)} if i in with_override else {}
        courses.append(CourseRec(f"C{i:06d}", f"Synthetic course {i}", criteria, overrides))
    return courses


def synth_history(rng: random.Random, code: str, generations: int) -> list[GradeRec]:
    """One record per generation, each a coin flip between percent and di, on the 0.1 grid."""
    return [
        GradeRec(code, f"G{g}", "percent", rng.randint(300, 980))
        if rng.random() < 0.5
        else GradeRec(code, f"G{g}", "di", rng.randint(5, 48))
        for g in range(1, generations + 1)
    ]


def _one_call(argv: list[str], files: list[str], items: int, traced, check) -> Workload:
    return Workload(calls=[{"argv": argv, "files": files}], order=[0], items=items, traced=traced,
                    check=lambda i, out: check(out))


def _validate(rng: random.Random, scale: float, work: Path, fixtures_dir: Path) -> Workload:
    courses = synth_courses(rng, _size(VALIDATE_COURSES, scale))
    codes = [c.code for c in courses]
    ungraded = set(rng.sample(codes, len(codes) // 10))
    histories = [synth_history(rng, code, VALIDATE_GENERATIONS) for code in codes if code not in ungraded]
    histories += [synth_history(rng, f"X{i:06d}", VALIDATE_GENERATIONS) for i in range(len(histories) // 100)]
    rng.shuffle(histories)
    records = [rec for history in histories for rec in history]
    inputs = [
        {"role": "catalog", **_write(work / "catalog.json", catalog_bytes())},
        {"role": "curriculum", **_write(work / "curriculum.csv", curriculum_bytes(courses))},
        {"role": "grades", **_write(work / "grades.csv", grades_bytes(records))},
    ]
    report, plot = str(work / "report.json"), str(work / "plot.csv")
    argv = [
        "validate", "--catalog", inputs[0]["path"], "--curriculum", inputs[1]["path"],
        "--grades", inputs[2]["path"], "--mode", AS_PRINTED, "--format", "json",
        "--plot-data", plot, "--output", report,
    ]
    expect = oracle.validate_expect(courses, records, AS_PRINTED)

    def check(out: CallOutput) -> list[str]:
        errors = oracle.check_clean(out, expect.warnings())
        if errors:
            return errors
        json_out = out._replace(stdout=out.files[report].decode("utf-8"))
        errors = [] if out.stdout == "" else ["validate wrote to stdout despite --output"]
        return errors + oracle.check_validate(json_out, "json", expect, inputs, plot_path=plot)

    traced = (
        "cli.main", "data_io.load_bundle", "data_io.load_curriculum", "data_io.load_grades",
        "data_io.write_plot_data", "json.dumps", "engine.bloom_difficulty", "engine.grade_difficulty",
        "engine.final_difficulty", "validation.compare", "validation.summarize",
    )
    return _one_call(argv, [report, plot], len(courses), traced, check)


def _estimate(rng: random.Random, scale: float, work: Path, fixtures_dir: Path) -> Workload:
    courses = synth_courses(rng, _size(ESTIMATE_COURSES, scale))
    catalog = _write(work / "catalog.json", catalog_bytes())["path"]
    curriculum = _write(work / "curriculum.csv", curriculum_bytes(courses))["path"]
    output = str(work / "estimate.csv")
    argv = ["estimate", "--catalog", catalog, "--curriculum", curriculum,
            "--mode", CANONICAL, "--format", "csv", "--output", output]
    expected = oracle.estimate_rows(courses, CANONICAL)

    def check(out: CallOutput) -> list[str]:
        errors = oracle.check_clean(out)
        if errors:
            return errors
        csv_out = out._replace(stdout=out.files[output].decode("utf-8"))
        return oracle.check_estimate(csv_out, "csv", expected, CANONICAL)

    traced = (
        "cli.main", "data_io.load_curriculum", "data_io.csv_text", "engine.bloom_difficulty",
        "taxonomy.criterion_rubric", "rounding.round_half_away", "rounding.format_fixed",
    )
    return _one_call(argv, [output], len(courses), traced, check)


def _grades_deep(rng: random.Random, scale: float, work: Path, fixtures_dir: Path) -> Workload:
    codes = [f"C{i:06d}" for i in range(_size(DEEP_COURSES, scale))]
    histories = [synth_history(rng, code, DEEP_GENERATIONS) for code in codes]
    # Term-by-term export: every course's first generation, then every second, ...
    records = [history[g] for g in range(DEEP_GENERATIONS) for history in histories]
    grades = _write(work / "grades.csv", grades_bytes(records))["path"]
    output = str(work / "grades_out.csv")
    argv = ["grades", "--grades", grades, "--format", "csv", "--output", output]
    grouped = oracle.group_histories(records)

    def check(out: CallOutput) -> list[str]:
        errors = oracle.check_clean(out)
        if errors:
            return errors
        return oracle.check_grades(out._replace(stdout=out.files[output].decode("utf-8")), "csv", grouped)

    traced = (
        "cli.main", "data_io.load_grades", "engine.grade_difficulty",
        "rounding.round_half_away", "rounding.format_fixed",
    )
    return _one_call(argv, [output], len(records), traced, check)


def read_curriculum(path: Path) -> list[CourseRec]:
    courses = []
    for row in csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))):
        overrides = {}
        for pair in filter(None, row["overrides"].split("|")):
            cid, _, points = pair.partition(":")
            overrides[cid.strip()] = int(points)
        criteria = tuple(c.strip() for c in row["criteria"].split("|") if c.strip())
        courses.append(CourseRec(row["course_code"].strip(), row["title"], criteria, overrides))
    return courses


def read_grades(path: Path) -> list[GradeRec]:
    return [
        GradeRec(row["course_code"].strip(), row["generation"].strip(), row["kind"].strip(),
                 oracle.text_to_tenths(row["value"]))
        for row in csv.DictReader(io.StringIO(path.read_text(encoding="utf-8")))
    ]


def check_paper_reference(courses: list[CourseRec], records: list[GradeRec]) -> None:
    """Raise unless the oracle reproduces the paper's Table 2/3 columns on these inputs."""
    expect = oracle.validate_expect(courses, records, AS_PRINTED)
    got = (
        [oracle.raw_total(c, AS_PRINTED) for c in courses],
        [oracle.tenths_text(est) for _, _, est, _ in expect.rows],
        [oracle.tenths_text(act) for _, act, _, _ in expect.rows],
        [oracle.tenths_text(err) for _, _, _, err in expect.rows],
        [oracle.tenths_text(t) for t in (expect.mean_actual, expect.mean_estimated, expect.mean_abs_error)],
    )
    want = (PAPER_RAW_TOTALS, PAPER_ESTIMATED, PAPER_ACTUAL, PAPER_ERRORS, PAPER_AVERAGES)
    if got != want:
        raise BenchError(f"shipped fixtures disagree with the paper's tables: {got} != {want}")


def _fixtures(rng: random.Random, scale: float, work: Path, fixtures_dir: Path) -> Workload:
    for source in sorted(fixtures_dir.iterdir()):
        shutil.copyfile(source, work / source.name)
    catalog, curriculum, grades = (str(work / n) for n in ("table1.json", "table2_asprinted.csv", "table3_grades.csv"))
    statements_path = work / "outcome_statements.csv"
    courses = read_curriculum(work / "table2_asprinted.csv")
    records = read_grades(work / "table3_grades.csv")
    check_paper_reference(courses, records)
    histories = oracle.group_histories(records)
    inputs = [
        {"role": role, "path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
        for role, path in (("catalog", catalog), ("curriculum", curriculum), ("grades", grades))
    ]
    statements = [
        (row["criterion_id"].strip(), row["text"])
        for row in csv.DictReader(io.StringIO(statements_path.read_text(encoding="utf-8")))
    ]
    lexicon = oracle.parse_lexicon((work / "default_lexicon.csv").read_text(encoding="utf-8"))

    calls: list[dict] = []
    checks: list[Callable[[CallOutput], list[str]]] = []

    def add(argv: list[str], check: Callable[[CallOutput], list[str]]) -> None:
        calls.append({"argv": argv, "files": []})
        checks.append(lambda out: oracle.check_clean(out) or check(out))

    for fmt in ("table", "csv", "json"):
        for mode in (CANONICAL, AS_PRINTED):
            rows = oracle.estimate_rows(courses, mode)
            add(["estimate", "--catalog", catalog, "--curriculum", curriculum, "--mode", mode, "--format", fmt],
                lambda out, fmt=fmt, rows=rows, mode=mode: oracle.check_estimate(out, fmt, rows, mode))
            expect = oracle.validate_expect(courses, records, mode)
            add(["validate", "--catalog", catalog, "--curriculum", curriculum, "--grades", grades,
                 "--mode", mode, "--format", fmt],
                lambda out, fmt=fmt, expect=expect: oracle.check_validate(out, fmt, expect, inputs))
        add(["grades", "--grades", grades, "--format", fmt],
            lambda out, fmt=fmt: oracle.check_grades(out, fmt, histories))
        for suffix_rule in (False, True):
            rows = oracle.map_rows(statements, lexicon, suffix_rule)
            add(["map-outcomes", "--statements", str(statements_path), "--format", fmt]
                + (["--suffix-rule"] if suffix_rule else []),
                lambda out, fmt=fmt, rows=rows, s=suffix_rule: oracle.check_map(out, fmt, rows, s))

    order = []
    for _ in range(max(1, round(SWEEPS * scale))):
        sweep = list(range(len(calls)))
        rng.shuffle(sweep)
        order += sweep
    traced = ("cli.main", "data_io.default_lexicon", "mapper.map_outcome")
    return Workload(calls=calls, order=order, items=len(order), traced=traced,
                    check=lambda i, out: checks[i](out))


_PREPARERS = {
    "validate-20k": _validate,
    "estimate-50k": _estimate,
    "grades-deep": _grades_deep,
    "fixtures-sweep": _fixtures,
}


def prepare(name: str, seed: int, scale: float, work: Path, fixtures_dir: Path) -> Workload:
    """Write the workload's inputs into ``work`` (which must exist) and describe its calls."""
    rng = random.Random(f"{name}/{seed}")
    return _PREPARERS[name](rng, scale, work, fixtures_dir)
