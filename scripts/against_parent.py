#!/usr/bin/env python3
"""Time a change against its parent with the benchmark in ``perfbench/``.

    python scripts/against_parent.py bench --out BENCH_23.json
    python scripts/against_parent.py bench --dirs PARENT_DIR HEAD_DIR --out bench.json

``bench`` checks out the parent (``--parent``, default ``HEAD~1``) and HEAD
into a temporary directory with ``git worktree add``, so that both sides are
fresh checkouts, and removes them afterwards; ``--dirs`` names two source
trees instead and needs no git.  For each workload of ``BENCHMARK.json`` it
runs ``perfbench/run.py --trace 0`` at one seed in pairs, each side from its
own tree in its own process; the parent runs first in even pairs and HEAD
in odd ones, so that neither side always follows the other.  After the
pairs it runs each side once more with ``--trace 1 --seconds 0``.  The JSON
it writes holds both revisions, the machine, each side's first
``context:`` line, every run's metrics, and per end-to-end metric the
median and quartiles of each side and the number of pairs HEAD won (a
strictly better value); under ``trace``, each side's per-layer metrics from
its traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "head")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


@contextmanager
def worktrees(revisions: dict[str, str]):
    """Check each side's revision out into a temporary worktree."""
    tmp = Path(tempfile.mkdtemp(prefix="against_parent-"))
    added = []
    try:
        trees = {}
        for side, rev in revisions.items():
            trees[side] = tmp / side
            git("worktree", "add", "--detach", str(trees[side]), rev)
            added.append(trees[side])
        yield trees
    finally:
        for tree in added:
            git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(tmp, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its context and result
    objects."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited {done.returncode}: {done.stderr.strip()}")
    context = next(json.loads(line[len("context: "):]) for line in lines
                   if line.startswith("context: "))
    return {"context": context, "result": json.loads(lines[-1])}


def summary(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def bench(trees: dict[str, Path], revisions: dict[str, str] | None, workloads: list[str],
          metrics: list[dict], seed: int, pairs: int, seconds: float) -> dict:
    """Paired runs of every workload; without ``revisions``, each side's is
    the one its runs report."""
    report = {"seed": seed, "pairs": pairs, "seconds": seconds,
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
              "revisions": dict(revisions or {}), "workloads": {}}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i in range(pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_once(trees[side], workload, seed, seconds))
        traced = {side: run_once(trees[side], workload, seed, 0.0, trace=1) for side in SIDES}
        for side in SIDES:
            report["revisions"].setdefault(side, runs[side][0]["context"]["revision"])
        values = {side: {m["name"]: [r["result"]["metrics"][m["name"]]["value"]
                                     for r in runs[side]] for m in metrics}
                  for side in SIDES}
        won = {}
        for m in metrics:
            sign = -1.0 if m["better"] == "lower" else 1.0
            won[m["name"]] = sum(sign * (h - p) > 0 for p, h in
                                 zip(values["parent"][m["name"]], values["head"][m["name"]]))
        report["workloads"][workload] = {
            "correct": all(r["result"]["correct"]
                           for side in SIDES for r in runs[side] + [traced[side]]),
            "context": {side: runs[side][0]["context"] for side in SIDES},
            **{side: {name: summary(v) for name, v in values[side].items()} for side in SIDES},
            "head_won": won,
            "samples": values,
            "trace": {side: {name: m["value"] for name, m in
                             traced[side]["result"]["metrics"].items()} for side in SIDES},
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    cmd = sub.add_parser("bench", help="paired end-to-end timings")
    cmd.add_argument("--out", type=Path, required=True)
    cmd.add_argument("--parent", default="HEAD~1", help="parent revision (git mode)")
    cmd.add_argument("--dirs", nargs=2, type=Path, metavar=("PARENT_DIR", "HEAD_DIR"),
                     help="two source trees to compare instead of git revisions")
    cmd.add_argument("--workloads", nargs="+", help="default: every workload")
    cmd.add_argument("--pairs", type=int, default=10)
    cmd.add_argument("--seconds", type=float, default=4.0)
    cmd.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    measure = (args.seed, args.pairs, args.seconds)
    if args.dirs:
        report = bench(dict(zip(SIDES, args.dirs)), None, workloads, spec["end_to_end"],
                       *measure)
    else:
        revisions = {"parent": git("rev-parse", args.parent), "head": git("rev-parse", "HEAD")}
        with worktrees(revisions) as trees:
            report = bench(trees, revisions, workloads, spec["end_to_end"], *measure)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, result in report["workloads"].items():
        print(f"{workload}: correct {result['correct']}; " + "; ".join(
            f"{name} {result['parent'][name]['median']:.4g} -> {result['head'][name]['median']:.4g}"
            f" (HEAD won {won}/{args.pairs})" for name, won in result["head_won"].items()))
    return 0 if all(r["correct"] for r in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
