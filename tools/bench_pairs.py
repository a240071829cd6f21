"""Compare a base revision with the working tree on one benchmark workload, in alternating pairs.

Usage (from anywhere in the repository):

    python3 tools/bench_pairs.py --base REV --workload NAME [--pairs 10] [--record FILE]

The base revision is extracted with ``git archive`` into a temporary
directory, and the working tree's files (tracked, and untracked but not
ignored) are copied as they are at the start into another. Both sides thus
run from fresh trees that hold no compiled bytecode, and an edit made while
the script runs does not reach it. Pair ``k`` (from 1) then runs
``bench/run.py --trace 0`` once on each tree, both on seed ``k`` and for the
``run_seconds`` that ``BENCHMARK.json`` sets; odd-numbered pairs run the base
first and even-numbered ones the working tree, so that neither side always
runs first. The script prints, for each end-to-end metric in
``BENCHMARK.json``, the median over the base runs and over the working-tree
runs, the base runs' interquartile range, and in how many pairs the working
tree was better. It marks a metric whose working-tree median is worse than
the base median by more than the metric's ``bound`` (a fraction of the base
median) with ``BEYOND-BOUND``, and states whether the gain rule holds: the
working tree better in at least nine tenths of the pairs, ties counting for
neither side, and its median better than the base median by more than the
base IQR. With ``--record``, the summary goes into that JSON file
under ``"workloads"``, next to the entries other workloads wrote there.
A workload that ``BENCHMARK.json`` does not list, fewer than one pair or a
revision that names no commit exits 2 before any tree is written. A run
that exits non-zero or reports ``"correct": false`` stops the script.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def commit_of(rev: str) -> str | None:
    """The full id of the commit ``rev`` names, or None if it names none."""
    done = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def extract(commit: str, dest: Path) -> None:
    """Write the tree of ``commit`` (a full id, from ``commit_of``) into ``dest``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {commit} failed")


def snapshot(dest: Path) -> None:
    """Copy the working tree's tracked files, and its untracked ones that are not ignored, into ``dest``."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT,
                           check=True, capture_output=True).stdout.decode("utf-8").split("\0")
    for name in filter(None, names):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree stays deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One ``bench/run.py`` run in ``tree``; its end-to-end metric values by name."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} failed:\n{proc.stderr.strip()[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(pairs: list[tuple[dict[str, float], dict[str, float]]], metrics: list[dict]) -> dict[str, dict]:
    """Per metric of ``metrics`` (``BENCHMARK.json``'s ``end_to_end`` entries: a name, "lower" or "higher"
    ``better``, and a ``bound``): both sides' values and medians, the base's interquartile range, the
    number of pairs in which the working tree's value was the better one, whether the working-tree median
    is worse than the base median by more than ``bound`` times the base median, and whether the gain
    rule holds."""
    summary = {}
    for metric in metrics:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        sign = 1 if direction == "lower" else -1  # sign * (head - base) < 0: the working tree is better
        base = [b[name] for b, _ in pairs]
        head = [h[name] for _, h in pairs]
        wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else (base[0],) * 3
        base_median, head_median = statistics.median(base), statistics.median(head)
        summary[name] = {
            "better": direction,
            "bound": bound,
            "base": base,
            "head": head,
            "base_median": base_median,
            "head_median": head_median,
            "base_iqr": q3 - q1,
            "head_better_pairs": wins,
            "pairs": len(pairs),
            "beyond_bound": sign * (head_median - base_median) > bound * abs(base_median),
            "gain_rule": 10 * wins >= 9 * len(pairs) and sign * (base_median - head_median) > q3 - q1,
        }
    return summary


def report(workload: str, summary: dict[str, dict]) -> str:
    lines = [f"{workload}: metric, base median, working-tree median, change, base IQR, pairs better, gain rule"]
    for name, s in summary.items():
        change = s["head_median"] / s["base_median"] - 1 if s["base_median"] else float("nan")
        lines.append(f"  {name:14} {s['base_median']:12.4f} {s['head_median']:12.4f} {change:+8.2%}"
                     f" {s['base_iqr']:10.4f} {s['head_better_pairs']:3}/{s['pairs']}"
                     f" {'holds' if s['gain_rule'] else 'fails':5}"
                     + (f"  BEYOND-BOUND (worse by more than {s['bound']:.0%})" if s["beyond_bound"] else ""))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--record", type=Path, default=None, help="JSON file to add this workload's summary to")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        parser.error(f"--workload {args.workload!r} is not a workload of BENCHMARK.json")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commit = commit_of(args.base)
    if commit is None:
        parser.error(f"--base {args.base!r} names no commit")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree, head_tree = Path(tmp) / "base", Path(tmp) / "head"
        base_tree.mkdir()
        extract(commit, base_tree)
        snapshot(head_tree)
        pairs = []
        for i in range(args.pairs):
            trees = (base_tree, head_tree) if i % 2 == 0 else (head_tree, base_tree)
            results = {tree: run_bench(tree, args.workload, i + 1, spec["run_seconds"]) for tree in trees}
            base, head = results[base_tree], results[head_tree]
            pairs.append((base, head))
            print(f"pair {i + 1}/{args.pairs}: wall_s {base['wall_s']:.4f} -> {head['wall_s']:.4f}", file=sys.stderr)
    summary = summarize(pairs, spec["end_to_end"])
    print(report(args.workload, summary))
    if args.record is not None:
        record = json.loads(args.record.read_text(encoding="utf-8")) if args.record.exists() else {}
        entry = {"base": commit, "seconds": spec["run_seconds"], "metrics": summary}
        record.setdefault("workloads", {})[args.workload] = entry
        args.record.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
