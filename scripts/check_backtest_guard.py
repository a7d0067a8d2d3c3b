#!/usr/bin/env python3
"""Check the warm-started backtest against the cold one, byte for byte.

For each of seeds 1-20, generates the synthetic inputs of the benchmark's
early-warning workload (40 entities, 1990-Q1 to 2018-Q4, 14 indicators),
runs the package's guarded backtest and the cold backtest kept in
``tests/oracle.py``, and compares the two ``probabilities.csv`` files.
Prints one line per seed with the quarters refit cold, then the totals;
exits 1 if any file differs.

    PYTHONPATH=src python scripts/check_backtest_guard.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import oracle  # noqa: E402
from riskrank.early_warning import recursive_backtest  # noqa: E402
from riskrank.io import RunConfig, read_events, read_indicators, write_probabilities  # noqa: E402
from riskrank.synth import SynthSpec, generate_synthetic  # noqa: E402

H1, H2, LAG = RunConfig.h1, RunConfig.h2, RunConfig.lag
SEEDS = range(1, 21)


def main() -> int:
    differing, refit, fitted = [], 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for seed in SEEDS:
            spec = SynthSpec(entities=40, start="1990-Q1", end="2018-Q4", indicators=14,
                             seed=seed)
            paths = generate_synthetic(spec, tmp / "data")
            panel, events = read_indicators(paths["indicators"]), read_events(paths["events"])
            guarded = recursive_backtest(panel, events, H1, H2, LAG)
            write_probabilities(tmp / "guarded.csv", guarded)
            write_probabilities(tmp / "cold.csv",
                                oracle.recursive_backtest(panel, events, H1, H2, LAG))
            same = (tmp / "guarded.csv").read_bytes() == (tmp / "cold.csv").read_bytes()
            refit += len(guarded.refit)
            fitted += len(guarded.training_end)
            print(f"seed {seed}: {len(guarded.refit)} of {len(guarded.training_end)} quarters "
                  f"refit cold, probabilities.csv {'identical' if same else 'DIFFERS'}")
            if not same:
                differing.append(seed)
    print(f"{refit} of {fitted} quarters refit cold over seeds "
          f"{SEEDS.start}-{SEEDS.stop - 1}; {len(differing)} differing files")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
