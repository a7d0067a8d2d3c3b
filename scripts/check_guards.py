#!/usr/bin/env python3
"""Check the package's guarded fast paths against their exact routes, byte
for byte.

For each of seeds 1-20, synthesizes the inputs of five specs once each:
the three workloads of ``perfbench/run.py`` (``SPECS``), and two more
networks (``MORE_NETWORKS``: 40 entities at density 0.6, and a sparse one
on 8, where some targets have no two-step path of any value and the sums
must cancel to 0).  Each spec's backtest runs once, and three checks read
what they need of it:

* backtest, on the early-warning spec: the warm-started backtest's
  ``probabilities.csv`` against that of the cold backtest kept in
  ``tests/oracle.py``;
* readers, on ``SPECS``: the plain route of ``riskrank.io``'s readers
  against the row route.  Synth holds its weights over time, so every date
  block of its ``links.csv`` repeats the one before; for the two network
  specs the series is also written with the weights of a seeded half of
  the dates scaled (``links_scaled.csv``) and read with ``nodes.csv``, so
  that blocks change too.  The backtest's ``probabilities.csv`` is read as
  a series (decomposition series have no plain route).  A file that the
  plain route reads must give the very series or panel of the row route,
  arrays compared byte for byte;
* sums, on network-k2 and ``MORE_NETWORKS``: the series under the
  backtest's probabilities is scored at k = 2 in unit and shapley mode,
  with clamping on and off, at ``--targets all`` and ``root``, once by
  ``riskrank_series``, the scorer, which runs the k = 2 sums under their
  text guard, and once by ``engine._by_paths``, the path engine alone.
  Each pair of ``decompositions`` files must be the same bytes, and where
  the path engine fails, the scorer must fail with its error.

Prints one line per seed, then four totals: the quarters refit cold, the
files the plain route read, the cells whose text would differ with the
sums' guard off (nothing rescored), and the cells the guard sent back to
the path engine, with the count of differing files; exits 1 if any file
differs.

    PYTHONPATH=src python scripts/check_guards.py
"""

import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import oracle  # noqa: E402
from riskrank import engine, io  # noqa: E402
from riskrank.early_warning import recursive_backtest  # noqa: E402
from riskrank.errors import RiskRankError  # noqa: E402
from riskrank.synth import SynthSpec, generate_synthetic  # noqa: E402

# the synth flags of perfbench/run.py's workloads, one spec each
SPECS = {
    "network-k2": SynthSpec(entities=26, network_density=1.0, start="2000-Q1", end="2018-Q4"),
    "paths-k3": SynthSpec(entities=10, network_density=1.0, start="2000-Q1", end="2018-Q4"),
    "early-warning": SynthSpec(entities=40, start="1990-Q1", end="2018-Q4", indicators=14),
}
MORE_NETWORKS = {
    "dense-40": SynthSpec(entities=40, network_density=0.6, start="2000-Q1", end="2018-Q4"),
    "sparse-8": SynthSpec(entities=8, network_density=0.3, start="2000-Q1", end="2018-Q4"),
}
SEEDS = range(1, 21)
READ_NETWORKS = ("network-k2", "paths-k3")
SUMS_NETWORKS = ("network-k2", *MORE_NETWORKS)
# (plain route, row route, the files each reads)
READERS = (
    (io._plain_nodes_links, io._read_nodes_links_rows, ("nodes", "links")),
    (io._plain_nodes_links, io._read_nodes_links_rows, ("nodes", "links_scaled")),
    (io._plain_indicators, io._read_indicators_rows, ("indicators",)),
    (io._plain_series, io._read_series_rows, ("probabilities",)),
)
CONFIGS = [engine.RiskRankConfig(mode, clamp, 2)
           for mode, clamp in product(("unit", "shapley"), (True, False))]
H1, H2, LAG = io.RunConfig.h1, io.RunConfig.h2, io.RunConfig.lag


def entities(series) -> list[str]:
    """``--targets all``: every node but the root."""
    return [nid for nid, level in zip(series.node_ids, series.levels) if level]


def write_scaled_links(paths, seed: int) -> None:
    """``links.csv`` again as ``links_scaled.csv``, the weights of a seeded
    half of the dates each scaled by a factor in [0.5, 2)."""
    series = io._read_nodes_links_rows(paths["nodes"], paths["links"])
    rng = np.random.default_rng(seed)
    dates = rng.permutation(len(series.dates))[:len(series.dates) // 2]
    W = series.W.copy()
    W[dates] *= rng.uniform(0.5, 2.0, (len(dates), 1))
    paths["links_scaled"] = paths["links"].with_name("links_scaled.csv")
    io.write_links_csv(paths["links_scaled"], replace(series, W=W))


def contents(result) -> dict:
    """The fields of a series or panel, arrays as their dtype, shape and bytes."""
    return {
        f.name: (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value := getattr(result, f.name), np.ndarray) else value
        for f in fields(result)
    }


def outcome(read, *paths):
    """The ``contents`` of what ``read`` returns, or the type, text and line
    of the error it raises."""
    try:
        return contents(read(*paths))
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc), str(exc), getattr(exc, "line", None)


def read_routes(paths, counts: Counter) -> list[str]:
    """The readers of ``READERS`` whose two routes differ on ``paths``; the
    files they read, and those the plain route read, added to ``counts``."""
    differing = []
    for fast, rows, kinds in READERS:
        if not set(kinds) <= set(paths):
            continue
        named = [paths[kind] for kind in kinds]
        counts["files"] += len(named)
        read = io._plain_route(fast, *named)
        if read is None:
            continue
        counts["plain"] += len(named)
        if contents(read) != outcome(rows, *named):
            differing.append("+".join(kinds))
    return differing


@contextmanager
def guard_off():
    """``riskrank_series`` keeps every cell's sums, whatever their text."""
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
    io.write_decompositions(path, rows)
    return path.read_bytes(), texts(rows)


def check_sums(series, tmp: Path, counts: Counter) -> list[str]:
    """The cases of ``CONFIGS`` and both target selections whose files differ
    from the path engine's; the cells scored, those rescored by paths and
    those whose text would differ unguarded added to ``counts``."""
    differing = []
    selections = {"all": entities(series), "root": [series.root()]}
    for cfg, (selector, targets) in product(CONFIGS, selections.items()):
        sums = engine._sums(series, targets, cfg)
        cells = len(series) * len(targets)
        counts["cells"] += cells
        # scored whole by paths where the sums do not apply: every cell rescored
        counts["rescored"] += cells if sums is None else int(sums[1].sum())
        by_paths = scored(engine._by_paths, series, targets, cfg, tmp / "paths.csv")
        if scored(engine.riskrank_series, series, targets, cfg, tmp / "sums.csv")[0] != by_paths[0]:
            differing.append(f"{cfg} --targets {selector}")
        with guard_off():
            bare = scored(engine.riskrank_series, series, targets, cfg, tmp / "bare.csv")
        if isinstance(by_paths[0], bytes):  # rows, not an error
            counts["unguarded"] += len({i // 5 for i, (a, b) in
                                        enumerate(zip(bare[1], by_paths[1])) if a != b})
    return differing


def check_spec(name: str, paths, seed: int, tmp: Path, counts: Counter) -> list[str]:
    """The checks that read spec ``name``'s inputs ``paths``, its counts
    added to ``counts``; the cases that differ."""
    panel, events = io.read_indicators(paths["indicators"]), io.read_events(paths["events"])
    result = recursive_backtest(panel, events, H1, H2, LAG)
    paths["probabilities"] = paths["indicators"].with_name("probabilities.csv")
    io.write_probabilities(paths["probabilities"], result)
    differing = []
    if name == "early-warning":
        io.write_probabilities(tmp / "cold.csv",
                               oracle.recursive_backtest(panel, events, H1, H2, LAG))
        if (tmp / "cold.csv").read_bytes() != paths["probabilities"].read_bytes():
            differing.append("backtest probabilities.csv")
        counts.update(refit=len(result.refit), fitted=len(result.training_end))
    if name in SUMS_NETWORKS:
        series = io.read_nodes_links(paths["nodes"], paths["links"]).with_probabilities(
            result.entities, result.quarters, result.probabilities)
        differing += [f"sums {case}" for case in check_sums(series, tmp, counts)]
    if name in READ_NETWORKS:
        write_scaled_links(paths, seed)
    if name in SPECS:
        differing += [f"read {case}" for case in read_routes(paths, counts)]
    return differing


def main(seeds=SEEDS) -> int:
    totals, differing = Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for seed in seeds:
            counts = Counter()
            for name, spec in {**SPECS, **MORE_NETWORKS}.items():
                paths = generate_synthetic(replace(spec, seed=seed), tmp / name)
                differing += [f"seed {seed} {name} {case}"
                              for case in check_spec(name, paths, seed, tmp, counts)]
            print(f"seed {seed}: {counts['refit']} of {counts['fitted']} quarters refit cold, "
                  f"{counts['plain']} of {counts['files']} files read plain, "
                  f"{counts['rescored']} of {counts['cells']} cells rescored, "
                  f"{counts['unguarded']} would differ unguarded")
            totals.update(counts)
    for case in differing:
        print(f"DIFFERS: {case}")
    print(f"{totals['refit']} of {totals['fitted']} quarters refit cold over seeds "
          f"{seeds[0]}-{seeds[-1]}")
    print(f"{totals['plain']} of {totals['files']} files took the plain route")
    print(f"{totals['unguarded']} of {totals['cells']} cells would differ in their text "
          f"unguarded")
    print(f"{totals['rescored']} of {totals['cells']} cells rescored; "
          f"{len(differing)} differing files")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
