"""The scripts in ``scripts/`` that compare the package with a reference."""

import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import against_parent  # noqa: E402
import check_guards  # noqa: E402

COPIED = shutil.ignore_patterns("__pycache__", "_work", "_results")


def test_against_parent_bench_pairs_two_source_trees(tmp_path, capsys, monkeypatch):
    # two copies of this tree, one round at --seconds 0: every metric is
    # summarised for every side, each round is won by a side or not, and
    # each side's traced run reports its per-layer metrics
    for side in ("a", "b"):
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, tmp_path / side / part, ignore=COPIED)
    # every benchmark run reads a bytecode cache of its side's own, which
    # holds the side's compiled src/ when the run starts; bytecode writing is
    # allowed, so a run without a cache would write __pycache__ into its tree
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    caches, run, order = {}, subprocess.run, []
    a, b = ((tmp_path / side).resolve() for side in ("a", "b"))
    # each side runs from a copy: of a, of b, and the control's of a
    sources = iter([(a, b""), (b, b""), (a, against_parent.CONTROL_LINE)])

    def spy(argv, **kwargs):
        if argv[1:2] == ["perfbench/run.py"]:
            cache, tree = kwargs["env"]["PYTHONPYCACHEPREFIX"], Path(kwargs["cwd"])
            if tree not in caches:
                assert tmp_path not in tree.parents
                assert_is_copy_of(tree, *next(sources))
            caches.setdefault(tree, set()).add(cache)
            order.append(tree)
            source = tree / "src" / "riskrank" / "io.py"
            assert Path(cache, *source.parent.parts[1:],
                        f"io.{sys.implementation.cache_tag}.pyc").is_file()
        return run(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    out = tmp_path / "bench.json"
    code = against_parent.main(["bench", "--dirs", str(tmp_path / "a"), str(tmp_path / "b"),
                                "--workloads", "paths-k3", "--pairs", "1", "--seconds", "0",
                                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["revisions"] == {"parent": "unknown", "head": "unknown"}
    assert report["compiled"] is True
    assert len(caches) == 3 and all(len(cache) == 1 for cache in caches.values())
    assert len({cache for tree in caches.values() for cache in tree}) == 3
    # the parent, HEAD and the control, each untraced, then traced
    assert order == order[:3] * 2
    assert not list(tmp_path.rglob("__pycache__"))
    # the runs' results and inputs are not left in the trees named by --dirs
    assert not [path for path in tmp_path.rglob("*") if {"_results", "_work"} & set(path.parts)]
    result = report["workloads"]["paths-k3"]
    assert result["correct"] is True
    names = ["run_s", "setup_s", "peak_rss_mb"]
    for side in ("parent", "head", "control"):
        assert sorted(result[side]) == sorted(names)
        for name in names:
            stats = result[side][name]
            assert stats["q1"] == stats["median"] == stats["q3"] == result["samples"][side][name][0]
        assert result["trace"][side]["engine.decompositions"] > 0
    for side in ("head", "control"):
        assert sorted(result[f"{side}_won"]) == sorted(names)
        assert all(won in (0, 1) for won in result[f"{side}_won"].values())
    assert capsys.readouterr().out.startswith("paths-k3: correct True; run_s ")
    # the copies' src/ hash alike, the control's apart, and one byte
    # appended to a file in one copy tells them apart
    assert report["trees"]["parent"] == report["trees"]["head"] != report["trees"]["control"]
    assert report["trees"]["parent"] == against_parent.src_sha256(tmp_path / "a")
    with open(tmp_path / "b" / "src" / "riskrank" / "engine.py", "ab") as edited:
        edited.write(b" ")
    assert against_parent.src_sha256(tmp_path / "b") != report["trees"]["parent"]


def assert_is_copy_of(copy: Path, tree: Path, line: bytes = b""):
    """``copy`` holds the files of ``tree``, bytecode and benchmark outputs
    left out, and each differs only by ``line`` at the end of every
    src/riskrank/*.py."""
    def files(tree):
        return {path.relative_to(tree): path for path in tree.rglob("*")
                if path.is_file() and not {"__pycache__", "_work", "_results"} & set(path.parts)}

    ours, theirs = files(copy), files(tree)
    assert sorted(ours) == sorted(theirs)
    modules = {name for name in theirs if name.parts[:2] == ("src", "riskrank")
               and name.suffix == ".py"}
    assert modules
    for name, path in theirs.items():
        extra = line if name in modules else b""
        assert ours[name].read_bytes() == path.read_bytes() + extra, name


def test_against_parent_bench_alternates_which_side_runs_first(monkeypatch):
    order = []

    def run_once(tree, workload, seed, seconds, trace=0):
        if not trace:
            order.append(tree)
        metrics = {"run_s": {"value": float(len(order))}}
        return {"context": {"revision": tree}, "result": {"correct": True, "metrics": metrics}}

    monkeypatch.setattr(against_parent, "run_once", run_once)
    report = against_parent.bench({"parent": "p", "head": "h"}, None, ["w"],
                                  [{"name": "run_s", "better": "lower"}], 7, 4, 0.0)
    assert order == ["p", "h", "h", "p", "p", "h", "h", "p"]
    # HEAD ran second (slower, in this fake) in even pairs, first in odd ones
    assert report["workloads"]["w"]["head_won"] == {"run_s": 2}


def test_against_parent_bench_rotates_three_sides(monkeypatch):
    order = []

    def run_once(tree, workload, seed, seconds, trace=0):
        if not trace:
            order.append(tree)
        metrics = {"run_s": {"value": float(len(order))}}
        return {"context": {"revision": tree}, "result": {"correct": True, "metrics": metrics}}

    monkeypatch.setattr(against_parent, "run_once", run_once)
    report = against_parent.bench({"parent": "p", "head": "h", "control": "c"}, None, ["w"],
                                  [{"name": "run_s", "better": "lower"}], 7, 3, 0.0)
    assert order == ["p", "h", "c", "h", "c", "p", "c", "p", "h"]
    result = report["workloads"]["w"]
    # a side that ran before the parent (faster, in this fake) won the round
    assert result["head_won"] == {"run_s": 1} and result["control_won"] == {"run_s": 2}
    assert report["revisions"] == {"parent": "p", "head": "h"}


def test_against_parent_diff_reports_a_one_byte_change_in_a_writer(tmp_path, capsys):
    # two copies of src/ run the CI step's commands alike; one byte appended
    # to the line end of write_probabilities in the second copy shows in the
    # probabilities.csv that backtest writes
    for side in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / side / "src", ignore=COPIED)
    dirs = ["diff", "--dirs", str(tmp_path / "a"), str(tmp_path / "b")]
    assert against_parent.main(dirs) == 0
    assert capsys.readouterr().out == f"0 of {len(against_parent.COMMANDS)} commands differ\n"
    io_py = tmp_path / "b" / "src" / "riskrank" / "io.py"
    text = io_py.read_text()
    at = text.index('\\r\\n"', text.index("def write_probabilities"))
    io_py.write_text(text[:at] + " " + text[at:])
    assert against_parent.main(dirs) == 1
    out = capsys.readouterr().out.splitlines()
    assert ("differs: riskrank backtest --indicators {s}/indicators.csv --events "
            "{s}/events.csv --out {s}/probabilities.csv: probabilities.csv") in out
    assert out[-1] == f"{len(out) - 1} of {len(against_parent.COMMANDS)} commands differ"


def test_against_parent_diff_runs_the_ci_steps_commands():
    # the "Installed entry point" step of the workflow, read as text: its
    # continued lines joined, each riskrank line split as the shell would,
    # "$s" read as {s}; echo lines write the JSON inputs, with echo's newline
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = text.split("- name: Installed entry point\n", 1)[1].split("\n      - name:", 1)[0]
    commands, inputs = [], []
    for line in step.split("run: |\n", 1)[1].replace("\\\n", " ").splitlines():
        words = [word.replace("$s", "{s}") for word in shlex.split(line)]
        if words[:1] == ["riskrank"]:
            commands.append(words[1:])
        elif words[:1] == ["echo"]:
            assert words[2] == ">" and len(words) == 4, line
            inputs.append((words[3].removeprefix("{s}/"), words[1] + "\n"))
    assert commands == [command.split() for command in against_parent.COMMANDS]
    assert inputs == list(against_parent.INPUTS.items())


def test_check_guards_passes_on_one_seed(capsys):
    # the CI guard check at one seed: no file differs, and the totals count
    # that seed's 107 backtest quarters, its warm fits' log-likelihoods, 16
    # files read, 20636 cells scored at k = 2 and 5360 at k = 3
    assert check_guards.main(range(7, 8)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert re.fullmatch(r"seed 7: \d+ of 107 quarters refit cold, 16 of 16 files read plain, "
                        r"\d+ of 20636 cells rescored, \d+ would differ unguarded", lines[0])
    assert re.fullmatch(r"\d+ of 107 quarters refit cold over seeds 7-7", lines[1])
    assert re.fullmatch(r"\d+ of [1-9]\d* warm-fit log-likelihoods differ from np.logaddexp's, "
                        r"by at most \S+; \d+ accept/halve decisions would flip", lines[2])
    assert lines[3] == "16 of 16 files took the plain route"
    assert re.fullmatch(r"\d+ of 20636 cells would differ in their text unguarded", lines[4])
    assert re.fullmatch(r"\d+ of 20636 cells rescored; 0 differing files", lines[5])
    assert re.fullmatch(r"at k = 3: \d+ of 5360 cells would differ in their text unguarded, "
                        r"\d+ rescored; 0 differing files", lines[6])


def bench_file(path, revisions, medians, won, control=None, **more):
    """A bench file of one workload and metric, ``run_s``: the parent's and
    HEAD's medians, the rounds HEAD won, and the control's pair if given."""
    result = {"parent": {"run_s": {"median": medians[0]}},
              "head": {"run_s": {"median": medians[1]}}, "head_won": {"run_s": won}}
    if control:
        result.update(control={"run_s": {"median": control[0]}},
                      control_won={"run_s": control[1]})
    path.write_text(json.dumps({"pairs": 10, "revisions": revisions,
                                "workloads": {"tiny": result}, **more}))
    return path


def test_against_parent_trajectory_reads_each_bench_file(tmp_path, capsys):
    # one row per file and workload, keyed by revisions, trees or name; the
    # control's ratio and wins where the file has a control side
    known = bench_file(tmp_path / "BENCH_1.json", {"parent": "a" * 40, "head": "b" * 40},
                       (0.2, 0.1), 9)
    trees = bench_file(tmp_path / "BENCH_2.json", {"parent": "unknown", "head": "c" * 40},
                       (0.1, 0.125), 2, control=(0.11, 4),
                       trees={"parent": "d" * 64, "head": "e" * 64, "control": "f" * 64})
    named = bench_file(tmp_path / "BENCH_3.json", {"parent": "unknown", "head": "unknown"},
                       (0.5, 0.5), 0)
    assert against_parent.trajectory([known, trees, named], ["run_s"]) == [
        "BENCH_1.json aaaaaaa..bbbbbbb tiny: run_s 0.500 won 9/10",
        "BENCH_2.json trees dddddddd..eeeeeeee tiny: run_s 1.250 won 2/10"
        " (control 1.100 won 4/10)",
        "BENCH_3.json BENCH_3.json tiny: run_s 1.000 won 0/10",
    ]
    with pytest.raises(ValueError, match="BENCH_1.json: not a bench file: KeyError"):
        against_parent.trajectory([known], ["peak_rss_mb"])
    # and the repository's own files, as CI runs it
    assert against_parent.main(["trajectory"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert {row.split()[0] for row in rows} == {path.name for path in ROOT.glob("BENCH_*.json")}
