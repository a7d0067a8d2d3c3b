#!/usr/bin/env python3
"""Time a change against its parent with the benchmark in ``perfbench/``.

    python scripts/against_parent.py bench --out BENCH_23.json
    python scripts/against_parent.py bench --dirs PARENT_DIR HEAD_DIR --out bench.json
    python scripts/against_parent.py diff
    python scripts/against_parent.py diff --dirs PARENT_DIR HEAD_DIR
    python scripts/against_parent.py trajectory

``bench`` checks out the parent (``--parent``, default ``HEAD~1``) and HEAD
into a temporary directory with ``git worktree add``, so that both sides are
fresh checkouts, and removes them afterwards; ``--dirs`` names two source
trees instead, needs no git and records each side's ``src_sha256`` under
``trees``.  A third side, the control, is a copy of the parent's tree with
one trailing comment line (``CONTROL_LINE``) in each ``src/riskrank/*.py``:
a change that does nothing, whose pairs against the parent show how far
the layout of the code alone moves a metric.  Before any run, each side's
``src/`` and ``perfbench/`` are compiled once with ``compileall`` into a
bytecode cache of the side's own under a temporary directory, which every
child of that side reads as its ``PYTHONPYCACHEPREFIX``, so that no run
compiles the tree afresh and writes no bytecode into it; what the runs add
under a tree's ``OUTPUTS`` is removed after the last run.  For each workload
of ``BENCHMARK.json`` it runs ``perfbench/run.py --trace 0`` at one seed in
rounds of one run per side, each side from its own tree in its own
process; the order of the sides rotates by one each round, so that no side
always follows another.  After the rounds it runs each side once more with
``--trace 1 --seconds 0``.  The JSON it writes holds both revisions, the
machine, ``"compiled": true``, each side's first ``context:`` line, every
run's metrics, and per end-to-end metric the median and quartiles of each
side and the number of rounds in which HEAD, and the control, beat the
parent (a strictly better value); under ``trace``, each side's per-layer
metrics from its traced run.  Limits: compiling removes one known cause of
layout differences between trees, and others, such as the size of the
environment, may remain; the control measures what is left, so a gain
counts where HEAD beats the parent in more rounds, and by a larger median
gap, than the control does.

``diff`` takes the same two revisions and runs, on each side, the commands
of the CI "Installed entry point" step (``COMMANDS``) on that side's own
seed-7 synth output in a temporary directory: one child process per side
calls its tree's ``riskrank.cli.main(argv)`` for each command.  It prints
every command whose exit code, stdout, stderr or output-file sha256
differs between the sides, each side's temporary directory read as
``{s}``, then the count, and exits 1 if any command differs.

``trajectory`` reads every ``BENCH_*.json`` at the top of the repository,
in the order of their numbers, and prints one row per file and workload: the
HEAD/parent ratio of the medians of each end-to-end metric of
``BENCHMARK.json``, with the rounds HEAD won, and the control's ratio and
wins where the file has a control side.  A row is keyed by the revisions the
file compared; a file whose revisions are unknown by its trees' sha256s,
and one with neither by its name.  A file that lacks a field fails.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# the files a command writes, by the benchmark's own rule
sys.path.insert(0, str(ROOT / "perfbench"))
from run import outputs_of  # noqa: E402

SIDES = ("parent", "head")
CONTROL_LINE = b"# control: a trailing comment line that changes no behaviour\n"
# where perfbench/run.py writes its results and inputs, in the tree it runs from
OUTPUTS = ("perfbench/_results", "perfbench/_work")
# the CI "Installed entry point" step, in its order; {s} is the side's directory
COMMANDS = (
    "evaluate --table2-fixture",
    "synth --outdir {s} --seed 7 --entities 5",
    "validate --nodes {s}/nodes.csv --links {s}/links.csv",
    "backtest --indicators {s}/indicators.csv --events {s}/events.csv"
    " --out {s}/probabilities.csv",
    "evaluate {s}/probabilities.csv --events {s}/events.csv --out {s}/eval.csv",
    "riskrank --nodes {s}/nodes.csv --links {s}/links.csv"
    " --probabilities {s}/probabilities.csv --targets all --out {s}/riskrank.csv",
    "riskrank --nodes {s}/nodes.csv --links {s}/links.csv"
    " --targets E01,E04 --no-clamp --mode shapley --k 3 --out {s}/riskrank_options.csv",
    "evaluate {s}/probabilities.csv {s}/riskrank.csv --events {s}/events.csv"
    " --out {s}/eval_both.csv",
    "validate --nodes {s}/nodes.csv --links {s}/links.csv"
    " --indicators {s}/indicators.csv --events {s}/events.csv",
    "report --nodes {s}/nodes.csv --links {s}/links.csv"
    " --probabilities {s}/probabilities.csv --targets root --out {s}/report.csv",
    "shapley --measure {s}/measure.json",
    "backtest --config {s}/config.json --indicators {s}/indicators.csv"
    " --events {s}/events.csv --out {s}/probabilities_config.csv",
)
# the two JSON inputs the step writes with echo
INPUTS = {"measure.json": '{"n": 2, "mu": {"": 0, "1": 0.4, "2": 0.4, "1,2": 1}}\n',
          "config.json": '{"h1": 4, "h2": 12, "lag": 2}\n'}


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


def control_tree(parent: Path, dest: Path) -> Path:
    """A copy of ``parent`` at ``dest``, git metadata, bytecode and benchmark
    outputs left out, with ``CONTROL_LINE`` appended to each
    ``src/riskrank/*.py``."""
    shutil.copytree(parent, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "_work", "_results"))
    for module in sorted((dest / "src" / "riskrank").glob("*.py")):
        with open(module, "ab") as fh:
            fh.write(CONTROL_LINE)
    return dest


@contextmanager
def outputs_removed(trees):
    """Remove what the benchmark runs add under each tree's ``OUTPUTS``, so
    that a tree named by ``--dirs`` is left as it was found; what was there
    before stays."""
    def found():
        return {path for tree in trees for name in OUTPUTS
                for path in [tree / name, *(tree / name).rglob("*")] if path.exists()}

    before = found()
    try:
        yield
    finally:
        for path in sorted(found() - before, reverse=True):  # files before their directory
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink()


def src_sha256(tree: Path) -> str:
    """sha256 over the files under ``tree/src`` sorted by relative path:
    each one's path, then its bytes; bytecode caches are left out."""
    src = tree / "src"
    files = {path.relative_to(src).as_posix(): path for path in src.rglob("*")
             if path.is_file() and "__pycache__" not in path.parts}
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name].read_bytes())
    return digest.hexdigest()


class Side(NamedTuple):
    """A source tree, and the environment its benchmark runs get."""

    tree: Path
    env: dict[str, str]


def compiled(tree: Path, cache: Path) -> Side:
    """``tree`` with its ``src/`` and ``perfbench/`` compiled into ``cache``,
    which the side's runs read as their ``PYTHONPYCACHEPREFIX``.

    A cache prefix hides every other ``__pycache__`` too, so one import of
    what a run imports also writes the bytecode of the standard library and
    numpy into ``cache``; without it, a run under ``PYTHONDONTWRITEBYTECODE``
    would compile them afresh.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    writing = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
    for argv in (["-m", "compileall", "-q", "src", "perfbench"],
                 ["-c", "import sys; sys.path[:0] = ['perfbench']; "
                        "import run, tracer; run.load_cli()"]):
        subprocess.run([sys.executable, *argv], cwd=tree, env=writing, check=True,
                       capture_output=True)
    return Side(tree, env)


def run_once(side: Side, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run in the side's tree: its context and
    result objects."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side.tree, env=side.env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{side.tree}: perfbench exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    context = next(json.loads(line[len("context: "):]) for line in lines
                   if line.startswith("context: "))
    return {"context": context, "result": json.loads(lines[-1])}


def summary(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def bench(trees: dict[str, Side], revisions: dict[str, str] | None, workloads: list[str],
          metrics: list[dict], seed: int, pairs: int, seconds: float) -> dict:
    """Rounds of one run per side of ``trees`` for every workload, the
    parent's first; without ``revisions``, the parent's and HEAD's are the
    ones their runs report."""
    sides = list(trees)
    report = {"seed": seed, "pairs": pairs, "seconds": seconds,
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
              "revisions": dict(revisions or {}), "workloads": {}}
    for workload in workloads:
        runs = {side: [] for side in sides}
        for i in range(pairs):
            for side in sides[i % len(sides):] + sides[:i % len(sides)]:
                runs[side].append(run_once(trees[side], workload, seed, seconds))
        traced = {side: run_once(trees[side], workload, seed, 0.0, trace=1) for side in sides}
        for side in SIDES:
            report["revisions"].setdefault(side, runs[side][0]["context"]["revision"])
        values = {side: {m["name"]: [r["result"]["metrics"][m["name"]]["value"]
                                     for r in runs[side]] for m in metrics}
                  for side in sides}
        won = {side: {} for side in sides[1:]}
        for m in metrics:
            sign = -1.0 if m["better"] == "lower" else 1.0
            parent = values["parent"][m["name"]]
            for side in sides[1:]:
                won[side][m["name"]] = sum(sign * (h - p) > 0
                                           for p, h in zip(parent, values[side][m["name"]]))
        report["workloads"][workload] = {
            "correct": all(r["result"]["correct"]
                           for side in sides for r in runs[side] + [traced[side]]),
            "context": {side: runs[side][0]["context"] for side in sides},
            **{side: {name: summary(v) for name, v in values[side].items()} for side in sides},
            **{f"{side}_won": won[side] for side in sides[1:]},
            "samples": values,
            "trace": {side: {name: m["value"] for name, m in
                             traced[side]["result"]["metrics"].items()} for side in sides},
        }
    return report


def child() -> None:
    """Run the argv lists read from stdin through ``riskrank.cli.main`` from
    ``src/`` under the working directory; write per call its exit code,
    stdout, stderr and the sha256 of each file it writes, as JSON."""
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    from riskrank.cli import main as riskrank

    if src not in Path(sys.modules["riskrank"].__file__).resolve().parents:
        raise RuntimeError(f"riskrank imported from {sys.modules['riskrank'].__file__}")
    calls = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = riskrank(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        calls.append({"exit code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                      **{path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                         if path.is_file() else None for path in outputs_of(argv)}})
    json.dump(calls, sys.stdout)


def run_commands(tree: Path, tmp: Path) -> list[dict]:
    """``COMMANDS`` on ``tmp`` in one child process in ``tree``; ``tmp`` and
    ``tree`` read as ``{s}`` and ``{tree}`` in what the calls print."""
    for name, text in INPUTS.items():
        (tmp / name).write_text(text, encoding="utf-8")
    argvs = [[arg.format(s=tmp) for arg in command.split()] for command in COMMANDS]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import against_parent; against_parent.child()", str(Path(__file__).resolve().parent)],
        cwd=tree, env=env, input=json.dumps(argvs), capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: the commands' process exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    calls = json.loads(done.stdout)
    for call in calls:
        for stream in ("stdout", "stderr"):
            call[stream] = call[stream].replace(str(tmp), "{s}").replace(str(tree), "{tree}")
    return calls


def diff(trees: dict[str, Path]) -> list[tuple[str, list[str]]]:
    """Each command of ``COMMANDS`` that differs between the sides, with what
    differs: its exit code, stdout, stderr or an output file's name."""
    with tempfile.TemporaryDirectory(prefix="against_parent-") as tmp:
        calls = {}
        for side in SIDES:
            (Path(tmp) / side).mkdir()
            calls[side] = run_commands(trees[side].resolve(), Path(tmp) / side)
    return [(command, [key for key in parent if parent[key] != head.get(key)])
            for command, parent, head in zip(COMMANDS, calls["parent"], calls["head"])
            if parent != head]


def bench_key(path: Path, report: dict) -> str:
    """The parent and HEAD a bench file compared: their revisions, else the
    sha256 prefixes of their trees, else the file's name."""
    revisions = report["revisions"]
    if "unknown" not in (revisions["parent"], revisions["head"]):
        return f"{revisions['parent'][:7]}..{revisions['head'][:7]}"
    if "trees" in report:
        return f"trees {report['trees']['parent'][:8]}..{report['trees']['head'][:8]}"
    return path.name


def trajectory(paths, metrics: list[str]) -> list[str]:
    """One row per bench file of ``paths`` and workload: per metric of
    ``metrics``, HEAD's median over the parent's and the rounds HEAD won,
    and the control's where the file has one."""
    rows = []
    for path in paths:
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
            key, pairs = bench_key(path, report), report["pairs"]
            for workload, result in report["workloads"].items():
                cells = []
                for name in metrics:
                    parent = result["parent"][name]["median"]
                    cell = (f"{name} {result['head'][name]['median'] / parent:.3f}"
                            f" won {result['head_won'][name]}/{pairs}")
                    if "control" in result:
                        cell += (f" (control {result['control'][name]['median'] / parent:.3f}"
                                 f" won {result['control_won'][name]}/{pairs})")
                    cells.append(cell)
                rows.append(f"{path.name} {key} {workload}: " + "; ".join(cells))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{path.name}: not a bench file: {exc!r}") from exc
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sides = argparse.ArgumentParser(add_help=False)
    sides.add_argument("--parent", default="HEAD~1", help="parent revision (git mode)")
    sides.add_argument("--dirs", nargs=2, type=Path, metavar=("PARENT_DIR", "HEAD_DIR"),
                       help="two source trees to compare instead of git revisions")
    sub = parser.add_subparsers(dest="mode", required=True)
    cmd = sub.add_parser("bench", parents=[sides], help="paired end-to-end timings")
    cmd.add_argument("--out", type=Path, required=True)
    cmd.add_argument("--workloads", nargs="+", help="default: every workload")
    cmd.add_argument("--pairs", type=int, default=10)
    cmd.add_argument("--seconds", type=float, default=4.0)
    cmd.add_argument("--seed", type=int, default=7)
    sub.add_parser("diff", parents=[sides], help="the CI step's commands, byte for byte")
    sub.add_parser("trajectory", help="HEAD/parent ratios of every BENCH_*.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.mode == "trajectory":
        files = sorted(ROOT.glob("BENCH_*.json"),
                       key=lambda path: int(path.stem.removeprefix("BENCH_")))
        for row in trajectory(files, [m["name"] for m in spec["end_to_end"]]):
            print(row)
        return 0
    revisions = None if args.dirs else {"parent": git("rev-parse", args.parent),
                                        "head": git("rev-parse", "HEAD")}
    checkout = worktrees(revisions) if revisions else nullcontext(dict(zip(SIDES, args.dirs)))
    with checkout as trees:
        if args.mode == "diff":
            differing = diff(trees)
            for command, what in differing:
                print(f"differs: riskrank {command}: {', '.join(what)}")
            print(f"{len(differing)} of {len(COMMANDS)} commands differ")
            return 1 if differing else 0
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        with (tempfile.TemporaryDirectory(prefix="against_parent-") as cache,
              outputs_removed([tree.resolve() for tree in trees.values()])):
            trees = {**trees, "control": control_tree(trees["parent"].resolve(),
                                                      Path(cache) / "control-tree")}
            sides = {side: compiled(tree.resolve(), Path(cache) / side)
                     for side, tree in trees.items()}
            report = bench(sides, revisions, workloads, spec["end_to_end"], args.seed,
                           args.pairs, args.seconds)
            if args.dirs:
                report["trees"] = {side: src_sha256(tree) for side, tree in trees.items()}
        report["compiled"] = True
        report["control"] = {"of": "parent", "line": CONTROL_LINE.decode(),
                             "appended to": "src/riskrank/*.py"}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, result in report["workloads"].items():
        print(f"{workload}: correct {result['correct']}; " + "; ".join(
            f"{name} {result['parent'][name]['median']:.4g} -> {result['head'][name]['median']:.4g}"
            f" (HEAD won {won}/{args.pairs}; control {result['control'][name]['median']:.4g},"
            f" won {result['control_won'][name]}/{args.pairs})"
            for name, won in result["head_won"].items()))
    return 0 if all(r["correct"] for r in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
