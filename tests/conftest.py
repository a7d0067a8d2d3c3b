"""Shared random-instance builders, seeded so bulk checks are reproducible."""

import numpy as np

from riskrank.capacity import FuzzyMeasure, TwoAdditiveCapacity
from riskrank.network import NetworkSnapshot, Node, RiskNetwork


def random_measure(rng: np.random.Generator, n: int) -> FuzzyMeasure:
    """Random valid capacity: monotone cascade over uniform draws, top = 1."""
    raw = rng.uniform(size=2**n)
    mu = raw.copy()
    mu[0] = 0.0
    for mask in range(1, 2**n):
        floor = 0.0
        for i in range(n):
            if mask >> i & 1:
                floor = max(floor, mu[mask & ~(1 << i)])
        mu[mask] = max(floor, raw[mask])
    top = mu[-1]
    if top <= 0.0:
        return FuzzyMeasure.additive(np.full(n, 1.0 / n))
    return FuzzyMeasure(mu / top)


def random_capacity(rng: np.random.Generator, n: int,
                    signed: bool = False) -> TwoAdditiveCapacity:
    """Random normalized 2-additive capacity, monotone by construction."""
    pairs = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            lo = -1.0 if signed else 0.0
            pairs[i, j] = pairs[j, i] = rng.uniform(lo, 1.0)
    negative_load = -np.minimum(pairs, 0.0).sum(axis=1)
    singles = negative_load + rng.uniform(0.05, 1.0, size=n)
    return TwoAdditiveCapacity(singles, pairs, normalized=False).normalize()


def random_snapshot(rng: np.random.Generator, max_children: int = 8,
                    two_level: bool = False, density: float = 0.5) -> NetworkSnapshot:
    """Root plus a random sibling group, optionally with a second level."""
    n = int(rng.integers(2, max_children + 1))
    children = [f"C{i}" for i in range(n)]
    nodes = [Node("ROOT", 0)]
    links = []
    for child in children:
        nodes.append(Node(child, 1, "ROOT", float(rng.uniform())))
        links.append((child, "ROOT", float(rng.uniform(0.1, 1.0))))
    for a in children:
        for b in children:
            if a != b and rng.random() < density:
                links.append((a, b, float(rng.uniform(0.0, 1.0))))
    if two_level:
        host = children[0]
        grandchildren = [f"G{i}" for i in range(int(rng.integers(1, 4)))]
        for g in grandchildren:
            nodes.append(Node(g, 2, host, float(rng.uniform())))
            links.append((g, host, float(rng.uniform(0.1, 1.0))))
        for a in grandchildren:
            for b in grandchildren:
                if a != b and rng.random() < density:
                    links.append((a, b, float(rng.uniform(0.0, 1.0))))
    return NetworkSnapshot(0, RiskNetwork.build(nodes, links))


def with_self_links(rng, net):
    """``net`` with a self-link of random weight on about half of its nodes,
    the root included."""
    looped = [nid for nid in sorted(net.nodes) if rng.random() < 0.5]
    return RiskNetwork.build(
        net.nodes.values(),
        [(s, t, w) for (s, t), w in net.links.items()]
        + [(nid, nid, float(rng.uniform(0.1, 1.0))) for nid in looped],
    )
