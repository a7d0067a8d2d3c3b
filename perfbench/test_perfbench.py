"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import WRAPPED_MARK, Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SEED = 3
# Every stage kind on a small fixture, so that every metric is produced.
TINY = run.Workload(
    "tiny",
    setup=(run._synth("--entities", "5", "--start-quarter", "2004-Q1",
                      "--end-quarter", "2012-Q4"), run.SETUP_BACKTEST),
    stages=(
        ("validate", ("validate", "--nodes", "{data}/nodes.csv",
                      "--links", "{data}/links.csv")),
        ("riskrank", ("riskrank", *run.NETWORK, "--targets", "all",
                      "--out", "{out}/riskrank.csv")),
        ("report", ("report", *run.NETWORK, "--k", "3", "--targets", "root",
                    "--out", "{out}/report.csv")),
        ("backtest", ("backtest", *run.BACKTEST_INPUTS, "--out", "{out}/probabilities.csv")),
        ("evaluate", ("evaluate", "{out}/probabilities.csv", "--events", "{data}/events.csv",
                      "--out", "{out}/eval_report.csv")),
    ),
)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One untraced and one traced run of the tiny workload."""
    return {
        trace: run.run(TINY, TINY_SEED, 0.0, trace, None, tmp_path_factory.mktemp(f"t{trace}"))
        for trace in (False, True)
    }


def test_benchmark_json_names_the_runner_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_workload_runs_and_emits_every_metric(reports, trace, section):
    report = reports[trace]
    assert report["correct"], report["mismatches"]
    assert report["failed"] == 0 and report["attempted"] > 0
    line = json.loads(run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_traced_run_counts_repeat_and_cover_every_layer(reports):
    metrics = reports[True]["metrics"]
    for name in ("network.build_capacity_calls", "network.k_paths_calls",
                 "evaluation.contingency_calls", "early_warning.fits",
                 "engine.decompositions", "io.rows_read", "io.rows_written"):
        assert metrics[name] > 0, name
    assert metrics["synth.generate_synthetic_s"] > 0


def test_child_self_times_never_exceed_their_parent_span(reports):
    trace = reports[True]["last_trace"]
    assert len(trace) > 100
    assert trace.nesting_ok()
    dur = trace.durations
    for child, parent in enumerate(trace.parents.tolist()):
        if parent >= 0:
            assert trace.self_times()[child] <= dur[parent]


def test_self_time_subtracts_direct_children_only():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):          # 0 .. 7
        with tracer.span("middle"):     # 1 .. 6
            with tracer.span("inner"):  # 2 .. 3
                pass
            with tracer.span("inner"):  # 4 .. 5
                pass
    trace = tracer.uninstall()
    assert trace.total_time("outer") == 7.0
    assert trace.self_time("outer") == 2.0
    assert trace.self_time("middle") == 3.0
    assert trace.total_time("inner") == 2.0 and trace.calls("inner") == 2


def test_uninstall_removes_every_wrapper():
    cli = run.load_cli()
    original = cli.build_capacity
    tracer = Tracer()
    tracer.install()
    try:
        assert hasattr(cli.build_capacity, WRAPPED_MARK)
        assert tracer.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert cli.build_capacity is original
    assert tracer.leftover_wrappers() == []


def test_corrupted_output_counts_as_failure(tmp_path):
    cli = run.load_cli()
    bench = run.Bench(cli, TINY, TINY_SEED, tmp_path, expected=None)
    bench.setup()
    bench.run_pass()
    assert bench.failed == 0

    class Corrupting:
        """The real CLI, but one output file gains a byte after it is written."""

        @staticmethod
        def main(argv):
            rc = cli.main(argv)
            if argv[-1].endswith("riskrank.csv"):
                with open(argv[-1], "a", encoding="utf-8") as fh:
                    fh.write("\n")
            return rc

    bench.cli = Corrupting
    attempted = bench.attempted
    bench.run_pass()
    assert bench.attempted == attempted + len(TINY.stages)
    assert bench.failed == 1
    assert bench.mismatches == ["stage1/riskrank.csv"]


def test_recorded_digests_cover_every_workload():
    recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    assert recorded["seed"] == run.DIGEST_SEED
    assert sorted(recorded["workloads"]) == sorted(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "network-k2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
