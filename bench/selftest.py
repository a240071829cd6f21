"""Self-test of the benchmark at a tiny input size; takes seconds.

Usage (from the repository root):  python3 bench/selftest.py

Checks that the generator is deterministic in its seed, that the oracle
reproduces the paper's reference values and rejects a wrong output, that the
oracle agrees with the program on every workload, and that ``run.py`` prints
every metric named in ``BENCHMARK.json`` with its unit. Exits non-zero on the
first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import oracle
import run
import workloads

SCALE = 0.01
SYNTHETIC = ("validate-20k", "estimate-50k", "grades-deep")


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def _snapshot(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def _prepare(name: str, seed: int, work: Path) -> tuple[workloads.Workload, dict[str, bytes]]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.prepare(name, seed, SCALE, work.relative_to(run.ROOT), run.FIXTURES)
    return workload, _snapshot(work)


def test_generator_is_seeded(scratch: Path) -> None:
    for name in SYNTHETIC:
        first, files = _prepare(name, 7, scratch / "a")
        again, files_again = _prepare(name, 7, scratch / "b")
        expect(files == files_again, f"{name}: seed 7 wrote different bytes on a second run")
        expect(first.order == again.order and first.items == again.items, f"{name}: calls differ for one seed")
        _, other = _prepare(name, 8, scratch / "c")
        expect(files != other, f"{name}: seeds 7 and 8 wrote identical inputs")


def test_oracle_reproduces_paper(scratch: Path) -> None:
    courses = workloads.read_curriculum(run.FIXTURES / "table2_asprinted.csv")
    records = workloads.read_grades(run.FIXTURES / "table3_grades.csv")
    workloads.check_paper_reference(courses, records)
    expect(
        [oracle.RUBRIC[cid] for cid in "abcdefghijklm"] == [6, 21, 21, 6, 21, 3, 3, 6, 21, 1, 6, 21, 21]
        and sum(oracle.RUBRIC.values()) == 157,
        "oracle's Table 1 rubrics differ from the paper",
    )
    expect(oracle.half_away(50 * 39, 21 * 4) == 23, "worked example {a,h,k,l} should round to 2.3")
    expect(oracle.GradeRec("X", "G", "percent", 350).k() == 650, "percent 35 should convert to 3.25")


def test_oracle_rejects_wrong_output(scratch: Path) -> None:
    workload, _ = _prepare("estimate-50k", 7, scratch / "a")
    output = workload.calls[0]["files"][0]
    rows = oracle.estimate_rows(
        workloads.read_curriculum(run.ROOT / workload.calls[0]["argv"][4]), oracle.CANONICAL
    )
    good = workloads._csv_bytes(oracle.ESTIMATE_COLUMNS, ([r[c] for c in oracle.ESTIMATE_COLUMNS] for r in rows))
    expect(workload.check(0, oracle.CallOutput(0, "", "", {output: good})) == [], "oracle rejects a right output")
    bad = good.replace(b",canonical\n", b",as-printed\n", 1)
    expect(workload.check(0, oracle.CallOutput(0, "", "", {output: bad})) != [], "oracle accepts a wrong row")
    expect(workload.check(0, oracle.CallOutput(1, "", "boom", {output: good})) != [], "oracle accepts exit 1")


def test_runs_print_every_metric(scratch: Path) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES), "BENCHMARK.json workloads differ")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.NAMES:
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)],
                capture_output=True, text=True, timeout=170,
            )
            expect(proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-1500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {set(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: {result['failed']}/{result['attempted']} calls failed")
            got = {metric: value["unit"] for metric, value in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={trace}: metrics {got} != {wanted}")


def test_bare_directory_fails(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixtures-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and proc.stdout == "", "a checkout without sources must fail without a result")


def main() -> int:
    scratch = run.WORK_ROOT / "selftest"
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    failures = 0
    try:
        for test in tests:
            try:
                test(scratch)
            except SelfTestError as exc:
                failures += 1
                print(f"FAIL {test.__name__}: {exc}")
            else:
                print(f"PASS {test.__name__}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if run.WORK_ROOT.is_dir() and not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
