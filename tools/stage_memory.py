"""Trace one benchmark workload's memory, stage by stage, in one process.

Usage (from anywhere in the repository):

    python3 tools/stage_memory.py --workload NAME --seed S [--scale 1.0]

The workload's seeded inputs are written with ``bench/workloads.prepare``
into a temporary directory, as ``bench/run.py`` writes them. Each distinct
CLI call of the workload then runs once through ``cli.main`` in this
process, under ``tracemalloc``, from this tree's ``src``. Each loader,
renderer and write (``STAGES``) is wrapped. Once the call returns, the
script prints a line per run of consecutive returns of one stage
(``estimate``'s CSV batches, say): its name, the traced memory still
allocated when it last returned, the traced peak since the line before,
both in MB, and how many times it returned. Each call ends with its exit
code and its whole peak. Memory allocated before a call starts is not
counted. Output the call writes to stdout or stderr is discarded. Tracing
slows the run, so no time is measured. Standard library only; nothing
under ``bench/`` changes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module of course_difficulty, function) pairs that load, render or write
STAGES = (
    ("data_io", "load_catalog"),
    ("data_io", "load_curriculum"),
    ("data_io", "load_grades"),
    ("data_io", "load_bundle"),
    ("data_io", "load_statements"),
    ("data_io", "load_lexicon"),
    ("data_io", "csv_text"),
    ("data_io", "json_text"),
    ("data_io", "render_report_csv"),
    ("data_io", "render_report_json"),
    ("data_io", "write_plot_data"),
    ("data_io", "_write_text"),
    ("cli", "_table"),
)

_MB = 1024 * 1024


def _wrap(stages: tuple[tuple[str, str], ...], report) -> list[tuple[object, str, object]]:
    """Replace each stage's module attribute by a wrapper that calls ``report(name)`` when it returns;
    return what to restore."""
    restore = []
    for mod, name in stages:
        module = importlib.import_module(f"course_difficulty.{mod}")
        original = getattr(module, name)

        @functools.wraps(original)
        def wrapper(*args, __fn=original, __name=f"{mod}.{name}", **kwargs):
            try:
                return __fn(*args, **kwargs)
            finally:
                report(__name)

        restore.append((module, name, original))
        setattr(module, name, wrapper)
    return restore


def trace_call(argv: list[str]) -> int:
    """Run ``cli.main(argv)`` under tracemalloc and print a line per run of one stage; return its exit code."""
    from course_difficulty import cli

    out = sys.stdout  # the call's own output goes to the null device
    whole = 0
    runs = []  # per run of consecutive returns of one stage: [name, last current, highest peak, returns]

    def report(name: str) -> None:
        nonlocal whole
        current, peak = tracemalloc.get_traced_memory()
        whole = max(whole, peak)
        if runs and runs[-1][0] == name:
            runs[-1][1:] = current, max(runs[-1][2], peak), runs[-1][3] + 1
        else:
            runs.append([name, current, peak, 1])
        tracemalloc.reset_peak()

    restore = _wrap(STAGES, report)
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            tracemalloc.start()
            try:
                code = cli.main(argv)
                whole = max(whole, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        for module, name, original in restore:
            setattr(module, name, original)
    out.write(f"  {'stage':<28} {'current_mb':>10} {'peak_mb':>10} {'calls':>6}\n")
    for name, current, peak, calls in runs:
        out.write(f"  {name:<28} {current / _MB:>10.2f} {peak / _MB:>10.2f} {calls:>6}\n")
    out.write(f"  exit {code}, whole call peak {whole / _MB:.2f} MB\n")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor, as bench/run.py's")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        workload = workloads.prepare(args.workload, args.seed, args.scale, Path(work),
                                     ROOT / "src" / "course_difficulty" / "fixtures")
        for index, call in enumerate(workload.calls):
            print(f"call {index}: {call['argv'][0]}", flush=True)
            failed += trace_call(list(call["argv"])) != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
