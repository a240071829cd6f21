"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/child.py JOB.json setup|run|trace [--keep-text]

The child first imports ``course_difficulty.cli`` and calls
``build_parser()``; that time is ``setup_s``. ``setup`` stops there. ``run``
then makes the job's CLI calls in order through ``cli.main(argv)``, one after
the other, and ``trace`` does the same with the package's public functions
wrapped from outside. The child prints one JSON line: ``setup_s``;
``wall_s``, from the first call to the return of the last; ``peak_rss_mb``;
per call its index, exit code, latency and the SHA-256 of everything it wrote;
with ``--keep-text`` the stdout and stderr of each distinct call; and in
``trace`` mode per wrapped function its call count, total and self time.
Each child also reports ``cal_s``, the time of a fixed pure-Python loop; in
``run`` and ``trace`` it is the mean of one loop before the calls and one
after. The runner scales the child's times by it.

The job file is JSON: ``{"calls": [{"argv": [...], "files": [...]}, ...],
"order": [call indices]}``. ``files`` are output files the call writes.
"""

import sys
from time import perf_counter

# Wrapped in ``trace`` mode: (module of course_difficulty, function). Every
# binding of the function in the package is replaced, so calls made through a
# ``from ... import`` name are counted too. ``json.dumps`` is wrapped as well.
TRACED = (
    ("cli", "main"),
    ("data_io", "load_catalog"),
    ("data_io", "load_curriculum"),
    ("data_io", "load_grades"),
    ("data_io", "load_bundle"),
    ("data_io", "load_statements"),
    ("data_io", "default_lexicon"),
    ("data_io", "csv_text"),
    ("data_io", "render_report_csv"),
    ("data_io", "write_plot_data"),
    ("engine", "bloom_difficulty"),
    ("engine", "grade_difficulty"),
    ("engine", "final_difficulty"),
    ("taxonomy", "criterion_rubric"),
    ("validation", "compare"),
    ("validation", "summarize"),
    ("rounding", "round_half_away"),
    ("rounding", "format_fixed"),
    ("mapper", "map_outcome"),
)


def _set_up():
    start = perf_counter()
    import course_difficulty.cli as cli

    cli.build_parser()
    return cli, perf_counter() - start


def calibrate() -> float:
    """Seconds for a fixed loop of dict, string and Fraction work.

    It touches nothing of the program, so it measures only how fast this
    machine runs Python code right now. Its table stays small (5,000 keys), so
    that it never sets the process's peak memory in place of the program.
    """
    from fractions import Fraction

    start = perf_counter()
    counts: dict[str, int] = {}
    total = Fraction(0)
    for i in range(120_000):
        key = f"k{i % 5000}"
        counts[key] = counts.get(key, 0) + i
        total += Fraction(i % 97, 7 + i % 13)
    ",".join(sorted(counts))
    return perf_counter() - start


def _peak_rss_mb() -> float:
    """This process's own resident-set high-water mark.

    On Linux, ``ru_maxrss`` of a freshly exec'ed child starts from the
    spawning process's mark, so the per-process ``VmHWM`` is read instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def install_trace(stats: dict) -> list:
    """Wrap every TRACED function and ``json.dumps``; return what to restore."""
    import functools
    import importlib
    import json

    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "course_difficulty"]
    targets = [(importlib.import_module(f"course_difficulty.{mod}"), mod, name) for mod, name in TRACED]
    targets.append((json, "json", "dumps"))
    stack = [0.0]  # time spent in wrapped children of each open frame
    restore = []
    for owner, mod, name in targets:
        original = getattr(owner, name)
        record = stats.setdefault(f"{mod}.{name}", [0, 0.0, 0.0])  # calls, total_s, self_s

        def wrapper(*args, __fn=original, __rec=record, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return __fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                __rec[0] += 1
                __rec[1] += elapsed
                __rec[2] += elapsed - children

        functools.update_wrapper(wrapper, original)
        for module in {id(m): m for m in package + [owner]}.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
    return restore


def main() -> int:
    cli, setup_s = _set_up()
    # Imported after set-up so that set-up time is the program's own imports.
    import contextlib
    import hashlib
    import io
    import json
    import traceback
    from pathlib import Path

    job_path, mode = sys.argv[1], sys.argv[2]
    keep_text = "--keep-text" in sys.argv[3:]
    result = {"setup_s": setup_s}
    if mode == "setup":
        result["cal_s"] = calibrate()
        print(json.dumps(result))
        return 0

    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    calls, order = job["calls"], job["order"]
    stats: dict = {}
    cal_before = calibrate()
    restore = install_trace(stats) if mode == "trace" else []

    outputs = []
    first = last = None
    for index in order:
        call = calls[index]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(list(call["argv"]))
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a bug in the program fails the call, not the run
                code = -1
                err.write(traceback.format_exc())
            end = perf_counter()
        first = start if first is None else first
        last = end
        files = [Path(p).read_bytes() if Path(p).exists() else b"" for p in call["files"]]
        outputs.append((index, code, end - start, out.getvalue(), err.getvalue(), files))

    for module, attr, value in restore:
        setattr(module, attr, value)

    peak_rss_mb = _peak_rss_mb()  # before the second loop, which must not count
    cal_s = (cal_before + calibrate()) / 2
    result.update(cal_s=cal_s, wall_s=last - first, peak_rss_mb=peak_rss_mb, calls=[], texts={})
    for index, code, seconds, stdout, stderr, files in outputs:
        digest = hashlib.sha256()
        for part in (stdout.encode("utf-8"), stderr.encode("utf-8"), *files):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
        result["calls"].append([index, code, seconds, digest.hexdigest()])
        if keep_text and str(index) not in result["texts"]:
            result["texts"][str(index)] = [stdout, stderr]
    if mode == "trace":
        result["trace"] = stats
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
