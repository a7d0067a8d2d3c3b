"""Deterministic synthetic fixtures: indicators, crises, and a country network.

Crisis episodes are drawn first; indicators then carry a drift term over
``label_precrisis``'s 5-12 quarter pre-crisis window, so that a logistic
early-warning fit has genuine signal to find.  Episodes of one entity start
at least MIN_CRISIS_GAP quarters apart, so no pre-crisis quarter lies inside
an episode.  The network is a root with the entities as a complete level-1
sibling group: every entity links to the root, sibling links are kept with
the configured density, and weights stay constant over time.  So the
network is built once, and the series over it sets each quarter's entity
risk levels.  Everything is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .early_warning import CrisisEvent, CrisisEvents, IndicatorPanel, label_precrisis
from .io import write_events, write_indicators, write_links_csv, write_nodes_csv
from .network import NetworkSeries
from .quarters import quarter_index

ROOT_ID = "SYS"
SIGNAL_PATTERN = (1.2, -1.0, 0.8, -0.6, 0.5)
MIN_CRISIS_GAP = 20


@dataclass(frozen=True)
class SynthSpec:
    entities: int = 8
    start: str = "2000-Q1"
    end: str = "2018-Q4"
    indicators: int = 14
    crisis_intensity: float = 1.5
    network_density: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.entities < 1 or self.indicators < 1:
            raise ValueError("entity and indicator counts must be positive")
        if not 0.0 <= self.crisis_intensity < np.inf or not 0.0 <= self.network_density <= 1.0:
            raise ValueError("bad crisis intensity or network density")
        if quarter_index(self.end) <= quarter_index(self.start):
            raise ValueError("end quarter must come after start quarter")


def _draw_crises(rng, quarters, intensity) -> list[tuple[int, int]]:
    """Episode (start, end) pairs, well separated and clear of the edges."""
    lo, hi = quarters[0] + 16, quarters[-1] - 4
    if hi <= lo or intensity <= 0.0:
        return []
    count = min(int(rng.poisson(intensity)), 3)
    candidates = sorted(rng.choice(np.arange(lo, hi), size=min(count * 4, hi - lo),
                                   replace=False).tolist()) if count else []
    starts: list[int] = []
    for q in candidates:
        if len(starts) == count:
            break
        if not starts or q - starts[-1] >= MIN_CRISIS_GAP:
            starts.append(int(q))
    return [
        (s, min(s + int(rng.integers(3, 6)), quarters[-1])) for s in starts
    ]


def generate_synthetic(spec: SynthSpec, outdir) -> dict[str, Path]:
    """Write indicators.csv, events.csv, nodes.csv, links.csv under outdir."""
    rng = np.random.default_rng(spec.seed)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    q0, q1 = quarter_index(spec.start), quarter_index(spec.end)
    quarters = tuple(range(q0, q1 + 1))
    entities = tuple(f"E{i + 1:02d}" for i in range(spec.entities))

    events = CrisisEvents(tuple(
        CrisisEvent(entity, start, end)
        for entity in entities
        for start, end in _draw_crises(rng, quarters, spec.crisis_intensity)
    ))
    precrisis, _ = label_precrisis(events, entities, quarters, 5, 12)

    signal = np.zeros(spec.indicators)
    usable = min(len(SIGNAL_PATTERN), spec.indicators)
    signal[:usable] = SIGNAL_PATTERN[:usable]
    noise = rng.standard_normal((len(entities), len(quarters), spec.indicators))
    values = precrisis[:, :, None] * signal[None, None, :] + noise
    panel = IndicatorPanel(
        entities, quarters, values,
        tuple(f"ind_{k + 1}" for k in range(spec.indicators)),
    )

    risk = np.clip(
        0.1 + 0.65 * precrisis + 0.1 * rng.standard_normal(precrisis.shape),
        0.0, 1.0,
    )

    to_root = rng.uniform(0.5, 1.5, size=len(entities))
    links = {}
    for entity, weight in zip(entities, to_root.tolist()):
        links[entity, ROOT_ID] = weight
        for other in entities:
            if other != entity and rng.random() < spec.network_density:
                links[entity, other] = rng.uniform(0.05, 1.0)
    nodes = {ROOT_ID: (0, None, None, None), **dict.fromkeys(entities, (1, ROOT_ID, None, None))}
    # one structure on every quarter, then the entities' levels
    series = NetworkSeries.from_dates((q, nodes, links) for q in quarters).with_probabilities(
        (entity, quarter, level)
        for entity, row in zip(entities, risk.tolist())
        for quarter, level in zip(quarters, row)
    )

    paths = {
        "indicators": outdir / "indicators.csv",
        "events": outdir / "events.csv",
        "nodes": outdir / "nodes.csv",
        "links": outdir / "links.csv",
    }
    write_indicators(paths["indicators"], panel)
    write_events(paths["events"], events)
    write_nodes_csv(paths["nodes"], series)
    write_links_csv(paths["links"], series)
    return paths
