#!/usr/bin/env python3
"""Check the k = 2 sums against the path engine, byte for byte.

For each of seeds 1-20, generates the synthetic inputs of three networks
(``SPECS``: the benchmark's network-k2 spec, complete on 26 entities, one
on 40 entities at density 0.6, and a sparse one on 8, where some targets
have no two-step path of any value and the sums must cancel to 0), runs
the backtest for the probabilities that ``riskrank --probabilities``
scores with, and scores the series at k = 2 in unit and shapley mode, with
clamping on and off, at ``--targets all`` and ``root``: once by
``riskrank_sums`` and once by ``riskrank_series``, the path engine.  Each
pair of ``decompositions`` files written must be the same bytes, and
where the path engine fails, the sums must fail with its error.
Prints one line per seed with the cells the guard sent back to the path
engine and the cells whose text would differ with the guard off (nothing
rescored), then the totals; exits 1 if any file differs.

    PYTHONPATH=src python scripts/check_sums_guard.py
"""

import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from riskrank import engine
from riskrank.early_warning import recursive_backtest
from riskrank.errors import RiskRankError
from riskrank.io import (RunConfig, read_events, read_indicators, read_nodes_links,
                         write_decompositions)
from riskrank.synth import SynthSpec, generate_synthetic

SPECS = {
    "complete-26": SynthSpec(entities=26, network_density=1.0, start="2000-Q1", end="2018-Q4"),
    "dense-40": SynthSpec(entities=40, network_density=0.6, start="2000-Q1", end="2018-Q4"),
    "sparse-8": SynthSpec(entities=8, network_density=0.3, start="2000-Q1", end="2018-Q4"),
}
SEEDS = range(1, 21)
CONFIGS = [engine.RiskRankConfig(mode, clamp, 2)
           for mode, clamp in product(("unit", "shapley"), (True, False))]


def probabilities(paths):
    """The backtest's (entity, quarter, p) cells, as ``read_series`` gives them."""
    result = recursive_backtest(read_indicators(paths["indicators"]),
                                read_events(paths["events"]),
                                RunConfig.h1, RunConfig.h2, RunConfig.lag)
    return [(entity, quarter, p)
            for entity, row in zip(result.entities, result.probabilities.tolist())
            for quarter, p in zip(result.quarters, row) if p == p]


@contextmanager
def guard_off():
    """``riskrank_sums`` keeps every cell's sums, whatever their text."""
    same_text = engine._same_text
    engine._same_text = lambda value, radius: np.ones(value.shape, dtype=bool)
    try:
        yield
    finally:
        engine._same_text = same_text


def texts(rows) -> list[str]:
    """The "%.10g" text of each part of each row."""
    return ["%.10g" % value for row in rows for value in row.decomposition[1:]]


def scored(score, series, targets, cfg, path):
    """The rows ``score`` gives, written to ``path``, or its error's type and
    text."""
    try:
        rows = score(series, targets, cfg)
    except (RiskRankError, ValueError) as exc:
        return type(exc), str(exc)
    write_decompositions(path, rows)
    return path.read_bytes(), texts(rows)


def main() -> int:
    differing, rescored, unguarded, cells = [], 0, 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for seed in SEEDS:
            seed_rescored = seed_unguarded = seed_cells = 0
            for name, spec in SPECS.items():
                paths = generate_synthetic(replace(spec, seed=seed), tmp / name)
                series = read_nodes_links(paths["nodes"], paths["links"])
                series = series.with_probabilities(probabilities(paths))
                selections = {
                    "all": [nid for nid, level in zip(series.node_ids, series.levels) if level],
                    "root": [series.root()],
                }
                for cfg, (selector, targets) in product(CONFIGS, selections.items()):
                    sums = engine._sums(series, targets, cfg)
                    if sums is None:  # scored whole by paths: every cell rescored
                        seed_rescored += len(series) * len(targets)
                    else:
                        seed_rescored += int(sums[1].sum())
                    seed_cells += len(series) * len(targets)
                    by_paths = scored(engine.riskrank_series, series, targets, cfg,
                                      tmp / "paths.csv")
                    if scored(engine.riskrank_sums, series, targets, cfg,
                              tmp / "sums.csv")[0] != by_paths[0]:
                        differing.append(f"seed {seed} {name} {cfg} --targets {selector}")
                    with guard_off():
                        bare = scored(engine.riskrank_sums, series, targets, cfg,
                                      tmp / "bare.csv")
                    if isinstance(by_paths[0], bytes):  # rows, not an error
                        seed_unguarded += len({i // 5 for i, (a, b) in
                                               enumerate(zip(bare[1], by_paths[1])) if a != b})
            print(f"seed {seed}: {seed_rescored} of {seed_cells} cells rescored, "
                  f"{seed_unguarded} would differ unguarded")
            rescored, cells = rescored + seed_rescored, cells + seed_cells
            unguarded += seed_unguarded
    for case in differing:
        print(f"DIFFERS: {case}")
    print(f"{unguarded} of {cells} cells would differ in their text unguarded")
    print(f"{rescored} of {cells} cells rescored; {len(differing)} differing files")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
