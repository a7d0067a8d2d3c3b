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

from riskrank.early_warning import label_precrisis, recursive_backtest
from riskrank.engine import RiskRankConfig, riskrank_series
from riskrank.evaluation import evaluate_series
from riskrank.io import read_events, read_indicators, read_nodes_links
from riskrank.synth import SynthSpec, generate_synthetic

HORIZONS = ((5, 8), (5, 12), (5, 16))
MU_GRID = (0.3, 0.5, 0.7, 0.9)


def aggregated(series, result):
    """The network-aggregated totals of every non-root node under the
    backtest's probabilities, as (targets, dates, targets x dates grid)."""
    usable = series.with_probabilities(result.entities, result.quarters, result.probabilities)
    targets = [nid for nid, level in zip(usable.node_ids, usable.levels) if level > 0]
    rows = riskrank_series(usable, targets, RiskRankConfig(central_weight_mode="unit"))
    totals = np.array([row.decomposition.total for row in rows]).reshape(len(usable), -1)
    return targets, usable.dates, totals.T


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
            for name, (entities, quarters, probs) in (
                ("individual", (result.entities, result.quarters, result.probabilities)),
                ("aggregated", aggregated(series, result)),
            ):
                labels, excluded = label_precrisis(events, entities, quarters, h1, h2)
                report = evaluate_series(probs.ravel(), labels.ravel(), MU_GRID, name,
                                         mask=(excluded | np.isnan(probs)).ravel())
                urs = " ".join(
                    f"U_r({row.mu_pref:.1f})={row.u_r * 100:5.1f}%"
                    for row in report.rows
                )
                print(f"  {name:<11} AUC={report.auc:.3f}  {urs}")


if __name__ == "__main__":
    main()
