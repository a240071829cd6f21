"""Benchmark runner: one workload, measured for a fixed time, checked against an oracle.

Usage (from the repository root):

    python3 bench/run.py --workload validate-20k --seed 1 --seconds 25 --trace 0

The runner writes the workload's seeded inputs under ``.bench_work/``, then
starts fresh child interpreters (``bench/child.py``) one at a time, each
running one pass of the workload against ``src/course_difficulty``, until
``--seconds`` have passed. Every call's output is checked once against the
oracle (``oracle.py``), and every later call's output SHA-256 must equal the
first's. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a separately traced pass with
``--trace 1``. Every time a child measures is scaled to a reference machine
speed by the child's calibration loop (``CAL_REF_S``). The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from oracle import CallOutput

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = SRC / "course_difficulty" / "fixtures"
WORK_ROOT = ROOT / ".bench_work"

MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
CHILD_TIMEOUT_S = 150
# Reference time of the child's calibration loop. A child whose loop took
# ``cal_s`` has all its times scaled by CAL_REF_S / cal_s, so that a slower or
# busier machine does not read as a slower program.
CAL_REF_S = 0.40

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "success_rate": "ratio",
}

# per-layer metric -> (field of the traced stats, traced functions summed)
_SELF, _CALLS = 2, 0
PER_LAYER = {
    "cli.main.self_s": (_SELF, ("cli.main",)),
    "data_io.load_curriculum.self_s": (_SELF, ("data_io.load_curriculum",)),
    "data_io.load_grades.self_s": (_SELF, ("data_io.load_grades",)),
    "data_io.load_bundle.self_s": (_SELF, ("data_io.load_bundle",)),
    "data_io.render.self_s": (
        _SELF, ("data_io.csv_text", "data_io.render_report_csv", "data_io.write_plot_data", "json.dumps"),
    ),
    "data_io.default_lexicon.self_s": (_SELF, ("data_io.default_lexicon",)),
    "engine.bloom_difficulty.self_s": (_SELF, ("engine.bloom_difficulty",)),
    "engine.bloom_difficulty.calls": (_CALLS, ("engine.bloom_difficulty",)),
    "taxonomy.criterion_rubric.self_s": (_SELF, ("taxonomy.criterion_rubric",)),
    "taxonomy.criterion_rubric.calls": (_CALLS, ("taxonomy.criterion_rubric",)),
    "engine.grade_difficulty.self_s": (_SELF, ("engine.grade_difficulty",)),
    "engine.grade_difficulty.calls": (_CALLS, ("engine.grade_difficulty",)),
    "engine.final_difficulty.self_s": (_SELF, ("engine.final_difficulty",)),
    "validation.compare.self_s": (_SELF, ("validation.compare",)),
    "validation.summarize.self_s": (_SELF, ("validation.summarize",)),
    "rounding.round_half_away.self_s": (_SELF, ("rounding.round_half_away",)),
    "rounding.round_half_away.calls": (_CALLS, ("rounding.round_half_away",)),
    "rounding.format_fixed.self_s": (_SELF, ("rounding.format_fixed",)),
    "rounding.format_fixed.calls": (_CALLS, ("rounding.format_fixed",)),
    "mapper.map_outcome.self_s": (_SELF, ("mapper.map_outcome",)),
    "mapper.map_outcome.calls": (_CALLS, ("mapper.map_outcome",)),
}
PER_LAYER_UNITS = {name: ("count" if field == _CALLS else "s") for name, (field, _) in PER_LAYER.items()}
PER_LAYER_UNITS["trace.wall_s"] = "s"
PER_LAYER_UNITS["trace.overhead_s"] = "s"


class Run:
    """Counts and samples gathered over one invocation."""

    def __init__(self, workload: workloads.Workload, job: Path):
        self.workload = workload
        self.job = job
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[int, str] = {}  # call index -> SHA-256 of its first output
        self.oracle_failed: set[int] = set()
        self.setup: list[float] = []
        self.passes: list[dict] = []
        self.traced: list[dict] = []

    def child(self, mode: str, keep_text: bool = False) -> dict | None:
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(self.job), mode]
        if keep_text:
            cmd.append("--keep-text")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} child timed out after {CHILD_TIMEOUT_S} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(lines[-1])
        scale = CAL_REF_S / result["cal_s"]
        result["raw_wall_s"] = result.get("wall_s")
        for key in ("setup_s", "wall_s"):
            if key in result:
                result[key] *= scale
        for call in result.get("calls", ()):
            call[2] *= scale
        for record in result.get("trace", {}).values():
            record[1] *= scale
            record[2] *= scale
        self.setup.append(result["setup_s"])
        return result

    def measured_pass(self, mode: str) -> bool:
        """Run one pass, check its outputs and record it; False if the child failed."""
        first = not self.passes and not self.traced
        result = self.child(mode, keep_text=first)
        if result is None:
            self.attempted += len(self.workload.order)
            self.failed += len(self.workload.order)
            return False
        if first:
            self._check_oracle(result)
        for index, code, _, digest in result["calls"]:
            self.attempted += 1
            expected = self.reference.setdefault(index, digest)
            if code != 0 or digest != expected or index in self.oracle_failed:
                self.failed += 1
        (self.traced if mode == "trace" else self.passes).append(result)
        return True

    def _check_oracle(self, result: dict) -> None:
        codes = {index: code for index, code, _, _ in result["calls"]}
        for key, (stdout, stderr) in result["texts"].items():
            index = int(key)
            paths = self.workload.calls[index]["files"]
            files = {p: (ROOT / p).read_bytes() for p in paths}
            try:
                problems = self.workload.check(index, CallOutput(codes[index], stdout, stderr, files))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:  # unparsable output
                problems = [f"output does not parse: {exc!r}"]
            if problems:
                self.oracle_failed.add(index)
                argv = " ".join(self.workload.calls[index]["argv"])
                self.errors += [f"oracle: {argv}: {p}" for p in problems]


def _end_to_end(run: Run) -> dict[str, float]:
    wall = statistics.median(p["wall_s"] for p in run.passes)
    latencies = [seconds * 1000 for p in run.passes for _, _, seconds, _ in p["calls"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(run.setup),
        "wall_s": wall,
        "items_per_s": run.workload.items / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.passes),
        "call_p50_ms": statistics.median(latencies),
        "call_p90_ms": deciles[8],
        "success_rate": (run.attempted - run.failed) / run.attempted,
    }


def _per_layer(run: Run, name: str) -> dict[str, float]:
    metrics = {}
    for metric, (field, sources) in PER_LAYER.items():
        metrics[metric] = statistics.median(
            sum(t["trace"][src][field] for src in sources) for t in run.traced
        )
    traced_wall = statistics.median(t["wall_s"] for t in run.traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in run.passes)
    for t in run.traced:  # coverage guard: a renamed or bypassed layer must not read as zero
        for fn in run.workload.traced:
            if t["trace"][fn][_CALLS] == 0:
                run.errors.append(f"trace: {fn} made no calls on {name}")
    return metrics


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, Run]:
    workload = workloads.prepare(args.workload, args.seed, args.scale, work.relative_to(ROOT), FIXTURES)
    job = work / "job.json"
    job.write_text(json.dumps({"calls": workload.calls, "order": workload.order}), encoding="utf-8")
    run = Run(workload, job)

    run.child("setup")  # compiles bytecode and warms the file cache; not a sample
    run.setup.clear()

    start = perf_counter()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    while not run.errors and (len(run.passes) < MIN_PASSES or perf_counter() < untraced_until):
        if not run.measured_pass("run"):
            break
    if args.trace:
        while not run.errors and (not run.traced or perf_counter() < start + args.seconds):
            if not run.measured_pass("trace"):
                break

    if run.errors:
        return {}, run
    if args.trace:
        metrics = _per_layer(run, args.workload)
        units = PER_LAYER_UNITS
    else:
        metrics = _end_to_end(run)
        units = END_TO_END
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (self-test only)")
    args = parser.parse_args(argv)

    if not (SRC / "course_difficulty" / "cli.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no course_difficulty sources under {SRC}", file=sys.stderr)
        return 2

    os.chdir(ROOT)  # inputs are passed to the program as paths relative to the root
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, run = measure(args, work)
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    for message in run.errors[:20]:
        print(message, file=sys.stderr)
    for label, passes in (("untraced", run.passes), ("traced", run.traced)):
        if passes:
            walls = " ".join(f"{p['raw_wall_s']:.3f}" for p in passes)
            scaled = " ".join(f"{p['wall_s']:.3f}" for p in passes)
            print(f"{args.workload}: {len(passes)} {label} passes, measured wall_s {walls}, scaled wall_s {scaled}",
                  file=sys.stderr)
    correct = not run.errors and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
