#!/usr/bin/env python3
"""Horizon sensitivity on synthetic data.

Backtests the same panel under three pre-crisis horizons and prints AUC and
relative usefulness for the standalone probabilities and for the
network-aggregated score, one block per horizon.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from riskrank.early_warning import label_cells, recursive_backtest
from riskrank.engine import RiskRankConfig, riskrank_series
from riskrank.evaluation import evaluate_series
from riskrank.io import read_events, read_indicators, read_nodes_links
from riskrank.synth import SynthSpec, generate_synthetic

HORIZONS = ((5, 8), (5, 12), (5, 16))
MU_GRID = (0.3, 0.5, 0.7, 0.9)


def series_cells(result):
    cells, probs = [], []
    for ei, entity in enumerate(result.entities):
        for qi, quarter in enumerate(result.quarters):
            p = result.probabilities[ei, qi]
            if not np.isnan(p):
                cells.append((entity, quarter))
                probs.append(float(p))
    return cells, np.array(probs)


def aggregated_cells(series, result):
    individual, individual_probs = series_cells(result)
    usable = series.with_probabilities([
        (entity, quarter, p) for (entity, quarter), p in zip(individual, individual_probs)
    ])
    targets = sorted(
        nid for nid, level in zip(usable.node_ids, usable.levels) if level > 0
    )
    cells, probs = [], []
    for row in riskrank_series(usable, targets, RiskRankConfig(central_weight_mode="unit")):
        cells.append((row.target, row.date))
        probs.append(row.decomposition.total)
    return cells, np.array(probs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--entities", type=int, default=8)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        paths = generate_synthetic(
            SynthSpec(entities=args.entities, seed=args.seed), Path(tmp)
        )
        panel = read_indicators(paths["indicators"])
        events = read_events(paths["events"])
        series = read_nodes_links(paths["nodes"], paths["links"])

        for h1, h2 in HORIZONS:
            result = recursive_backtest(panel, events, h1, h2, lag=1,
                                        start=panel.quarters[24])
            print(f"\nhorizon {h1}-{h2} quarters")
            for name, (cells, probs) in (
                ("individual", series_cells(result)),
                ("aggregated", aggregated_cells(series, result)),
            ):
                labels, excluded = label_cells(events, cells, h1, h2)
                report = evaluate_series(probs, labels, MU_GRID, name,
                                         mask=excluded)
                urs = " ".join(
                    f"U_r({row.mu_pref:.1f})={row.u_r * 100:5.1f}%"
                    for row in report.rows
                )
                print(f"  {name:<11} AUC={report.auc:.3f}  {urs}")


if __name__ == "__main__":
    main()
