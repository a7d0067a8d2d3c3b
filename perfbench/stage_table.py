#!/usr/bin/env python3
"""Re-measure the ROADMAP stage table (seed 7, density 0.6, 2000-Q1..2018-Q4).

Run from the repository root:

    python3 perfbench/stage_table.py

Each size runs the steps of ``scripts/run_pipeline.py`` (synth, validate,
backtest, riskrank k=2 and k=3 over all targets, evaluate) as CLI calls in
this process, REPS times, and prints the median seconds of each step with
its spread, (max - min) / median.  riskrank k=3 at 40 entities (about six
minutes a call) is skipped.  Outputs must agree byte for byte across reps.
"""

import shutil
import statistics
import sys

import run

SIZES = (8, 20, 40)
REPS = 3
STEPS = ("synth", "validate", "backtest", "riskrank k=2", "riskrank k=3", "evaluate")
SKIP = {(40, "riskrank k=3")}


def pipeline(entities: int) -> run.Workload:
    net = ("--nodes", "{data}/nodes.csv", "--links", "{data}/links.csv",
           "--probabilities", "{out}/probabilities.csv", "--targets", "all")
    calls = {
        "synth": ("synth", "--outdir", "{data}", "--seed", "{seed}",
                  "--entities", str(entities)),
        "validate": ("validate", "--nodes", "{data}/nodes.csv", "--links", "{data}/links.csv",
                     *run.BACKTEST_INPUTS),
        "backtest": ("backtest", *run.BACKTEST_INPUTS, "--out", "{out}/probabilities.csv"),
        "riskrank k=2": ("riskrank", *net, "--out", "{out}/riskrank.csv"),
        "riskrank k=3": ("riskrank", *net, "--k", "3", "--out", "{out}/riskrank_k3.csv"),
        "evaluate": ("evaluate", "{out}/probabilities.csv", "{out}/riskrank.csv",
                     "--events", "{data}/events.csv", "--out", "{out}/eval_report.csv"),
    }
    stages = tuple((step, calls[step]) for step in STEPS if (entities, step) not in SKIP)
    return run.Workload(f"roadmap-{entities}", setup=(), stages=stages)


def main() -> int:
    cli = run.load_cli()
    print("| entities | " + " | ".join(STEPS) + " |")
    print("|---" * (len(STEPS) + 1) + "|")
    failed = 0
    for entities in SIZES:
        workload = pipeline(entities)
        workdir = run.WORK / workload.name
        try:
            bench = run.Bench(cli, workload, run.DIGEST_SEED, workdir, expected=None)
            samples = [bench.run_pass() for _ in range(REPS)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failed += bench.failed
        cells = {}
        for i, (step, _) in enumerate(workload.stages):
            values = [s[i] for s in samples]
            mid = statistics.median(values)
            cells[step] = f"{mid:.2f} s ±{(max(values) - min(values)) / mid:.0%}"
        print(f"| {entities} | " + " | ".join(cells.get(s, "skipped") for s in STEPS) + " |")
    if failed:
        print(f"{failed} calls failed or changed their output", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
