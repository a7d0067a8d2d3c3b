#!/usr/bin/env python3
"""Check the plain route of the readers against the row route.

For each of seeds 1-20, generates the synthetic inputs of the benchmark's
three workload specs (``SPECS``), and reads ``nodes.csv`` with ``links.csv``,
and ``indicators.csv``, through the plain route and through the row route
of ``riskrank.io``.  Synth holds its weights over time, so every date block
of its ``links.csv`` repeats the one before; for the two network specs the
series is also written with the weights of a seeded half of the dates
scaled (``links_scaled.csv``) and read with ``nodes.csv``, so that blocks
change too.  Each spec's backtest writes ``probabilities.csv``, and for the
network specs the k = 2 scores of every entity under those probabilities
are written as ``decompositions.csv``; both are read as series.  A file
that the plain route reads must give the very series or panel of the row
route, arrays compared byte for byte.  Prints one line per seed with the
files the plain route read, then the totals; exits 1 if any read differs.

    PYTHONPATH=src python scripts/check_reader_routes.py
"""

import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from riskrank import io
from riskrank.early_warning import recursive_backtest
from riskrank.engine import riskrank_sums
from riskrank.synth import SynthSpec, generate_synthetic

# the synth flags of perfbench/run.py's workloads, one spec each
SPECS = {
    "network-k2": SynthSpec(entities=26, network_density=1.0, start="2000-Q1", end="2018-Q4"),
    "paths-k3": SynthSpec(entities=10, network_density=1.0, start="2000-Q1", end="2018-Q4"),
    "early-warning": SynthSpec(entities=40, start="1990-Q1", end="2018-Q4", indicators=14),
}
SEEDS = range(1, 21)
NETWORKS = ("network-k2", "paths-k3")
# (plain route, row route, the files each reads)
READERS = (
    (io._plain_nodes_links, io._read_nodes_links_rows, ("nodes", "links")),
    (io._plain_nodes_links, io._read_nodes_links_rows, ("nodes", "links_scaled")),
    (io._plain_indicators, io._read_indicators_rows, ("indicators",)),
    (io._plain_series, io._read_series_rows, ("probabilities",)),
    (io._plain_series, io._read_series_rows, ("decompositions",)),
)


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


def write_scores(paths, network: bool) -> None:
    """The backtest's ``probabilities.csv``, and for a network the scores of
    every entity under them as ``decompositions.csv``."""
    cfg = io.RunConfig()
    result = recursive_backtest(io.read_indicators(paths["indicators"]),
                                io.read_events(paths["events"]), cfg.h1, cfg.h2, cfg.lag)
    paths["probabilities"] = paths["indicators"].with_name("probabilities.csv")
    io.write_probabilities(paths["probabilities"], result)
    if network:
        series = io.read_nodes_links(paths["nodes"], paths["links"]).with_probabilities(
            io.read_series(paths["probabilities"]).cells)
        paths["decompositions"] = paths["indicators"].with_name("decompositions.csv")
        targets = [nid for nid, level in zip(series.node_ids, series.levels) if level]
        io.write_decompositions(paths["decompositions"], riskrank_sums(series, targets, cfg))


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


def main() -> int:
    total = plain = 0
    differing = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            seed_files = seed_plain = 0
            for name, spec in SPECS.items():
                paths = generate_synthetic(replace(spec, seed=seed), Path(tmp) / name)
                if name in NETWORKS:
                    write_scaled_links(paths, seed)
                write_scores(paths, name in NETWORKS)
                for fast, rows, kinds in READERS:
                    if not set(kinds) <= set(paths):
                        continue
                    files = [paths[kind] for kind in kinds]
                    seed_files += len(files)
                    read = io._plain_route(fast, *files)
                    if read is None:
                        continue
                    seed_plain += len(files)
                    if contents(read) != outcome(rows, *files):
                        differing.append(f"seed {seed} {name} {'+'.join(kinds)}")
            print(f"seed {seed}: {seed_plain} of {seed_files} files took the plain route")
            total, plain = total + seed_files, plain + seed_plain
    for case in differing:
        print(f"DIFFERS: {case}")
    print(f"{plain} of {total} files took the plain route; {len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
