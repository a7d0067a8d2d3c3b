"""Hierarchy validation, capacity construction and path enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrank.errors import NoCapacityError, RiskRankError, StructuralDriftError
from riskrank.network import (
    PATH_PAD,
    NetworkSeries,
    NetworkSnapshot,
    Node,
    RiskNetwork,
    build_capacity,
    k_paths,
    validate_hierarchy,
)
from riskrank.quarters import quarter_index, quarter_label

import oracle
from conftest import random_snapshot, with_self_links


def paths_by_bruteforce(net, target, k):
    """Independent recursive enumeration over outgoing adjacency."""
    out_adj = {}
    for (source, dst), weight in net.links.items():
        out_adj.setdefault(source, []).append((dst, weight))
    found = []

    def walk(node, visited, product, trail):
        for dst, weight in out_adj.get(node, []):
            if dst in visited:
                continue
            if dst == target:
                found.append((tuple(trail + [dst]), product * weight))
            elif len(trail) < k:
                walk(dst, visited | {dst}, product * weight, trail + [dst])

    for start in net.nodes:
        if start != target:
            walk(start, {start}, 1.0, [start])
    return {nodes: w for nodes, w in found if len(nodes) - 1 <= k}


def complete_three_siblings():
    children = ["A", "B", "C"]
    nodes = [Node("S", 0)] + [Node(c, 1, "S", 0.5) for c in children]
    links = [(c, "S", 1.0) for c in children]
    links += [
        (a, b, 0.3) for a in children for b in children if a != b
    ]
    return RiskNetwork.build(nodes, links)


# ----------------------------------------------------------- validation

def one_date(net):
    return NetworkSeries.from_snapshots([NetworkSnapshot(quarter_index("2005-Q1"), net)])


def test_complete_sibling_group_is_valid():
    assert validate_hierarchy(one_date(complete_three_siblings())).ok


def test_two_roots_are_reported():
    net = RiskNetwork.build(
        [Node("S1", 0), Node("S2", 0), Node("A", 1, "S1", 0.5)],
        [("A", "S1", 1.0)],
    )
    report = validate_hierarchy(one_date(net))
    assert any("level-0" in v for v in report.violations)


def test_out_of_range_risk_is_reported():
    # the reader refuses such a value, so only the per-snapshot oracle checks it
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 1.2)], [("A", "S", 1.0)]
    )
    report = oracle.validate_hierarchy(net)
    assert any(v.startswith("range") and "1.2" in v for v in report.violations)


def test_structural_problems_are_reported():
    net = RiskNetwork.build(
        [
            Node("S", 0),
            Node("A", 1, "S", 0.5),
            Node("B", 1, "S", 0.5),
            Node("G", 2, "A", 0.5),
        ],
        [("A", "S", 1.0), ("B", "S", 1.0), ("G", "A", 1.0), ("G", "B", 0.5)],
    )
    report = validate_hierarchy(one_date(net))
    assert any("leaves its sibling group" in v for v in report.violations)


def test_missing_parent_and_level_gap_reported():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, None, 0.5), Node("G", 2, "S", 0.5)], []
    )
    report = validate_hierarchy(one_date(net))
    assert any("has no parent" in v for v in report.violations)
    assert any("at level" in v for v in report.violations)


def broken_hierarchy_series(rng):
    """A multi-date series over one random tree, broken at random: extra
    roots, a root with a parent, missing, unknown and wrong-level parents,
    self-links, links that leave their group, levels missing on some dates
    and a root that carries one on some dates.  Values stay in range."""
    ids = [f"N{i}" for i in range(int(rng.integers(1, 8)))]
    rng.shuffle(ids)  # the root need not sort first
    level, parent = {ids[0]: 0}, {ids[0]: None}
    for i, nid in enumerate(ids[1:], 1):
        host = ids[int(rng.integers(0, i))]
        level[nid], parent[nid] = level[host] + 1, host
    for nid in ids[1:]:
        r = rng.random()
        if r < 0.08:
            level[nid] = 0  # a second root, which keeps its parent
        elif r < 0.14:
            parent[nid] = None
        elif r < 0.2:
            parent[nid] = "X"
        elif r < 0.26:
            level[nid] += 1
    if rng.random() < 0.1:
        parent[ids[0]] = ids[-1]
    density = rng.uniform(0.0, 0.6)
    keys = [(a, b) for a in ids for b in ids if rng.random() < (density / 4 if a == b else density)]
    known = {0: rng.uniform(0.0, 0.3), 1: rng.uniform(0.7, 1.0)}
    start = quarter_index("2001-Q1") + int(rng.integers(0, 40))
    snaps = []
    for d in range(int(rng.integers(1, 5))):
        nodes = [
            Node(nid, level[nid], parent[nid],
                 float(rng.uniform()) if rng.random() < known[min(level[nid], 1)] else None,
                 float(rng.uniform()) if rng.random() < 0.3 else None)
            for nid in ids
        ]
        links = [(a, b, float(rng.uniform())) for a, b in keys]
        snaps.append(NetworkSnapshot(start + d, RiskNetwork.build(nodes, links)))
    return snaps


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_series_check_matches_the_per_snapshot_oracle(seed):
    snaps = broken_hierarchy_series(np.random.default_rng(seed))
    expected = tuple(
        f"{quarter_label(snap.date)}: {line}"
        for snap in snaps for line in oracle.validate_hierarchy(snap.network).violations
    )
    assert validate_hierarchy(NetworkSeries.from_snapshots(snaps)).violations == expected


def test_broken_hierarchy_series_reach_every_rule():
    """The generator above produces every line the series check makes, and
    valid series too."""
    kinds = {"level-0 nodes", "must not carry", "must not have a parent", "lacks a risk",
             "has no parent", "unknown", "has parent", "self-link", "leaves its sibling"}
    seen, valid = set(), 0
    rng = np.random.default_rng(5)
    for _ in range(300):
        lines = validate_hierarchy(NetworkSeries.from_snapshots(broken_hierarchy_series(rng)))
        valid += lines.ok
        seen |= {kind for kind in kinds for line in lines.violations if kind in line}
    assert seen == kinds and valid > 0


# ------------------------------------------------------ build_capacity

def test_star_network_has_pure_singletons():
    nodes = [Node("S", 0)] + [Node(c, 1, "S", 0.5) for c in "ABC"]
    links = [("A", "S", 0.5), ("B", "S", 0.3), ("C", "S", 0.2)]
    build = build_capacity(RiskNetwork.build(nodes, links), "S")
    assert build.elements == ("A", "B", "C")
    assert np.allclose(build.capacity.singleton, [0.5, 0.3, 0.2])
    assert np.allclose(build.capacity.pairs, 0.0)


def test_two_child_hand_example():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.8), Node("B", 1, "S", 0.5)],
        [("A", "S", 0.6), ("B", "S", 0.4), ("B", "A", 0.5)],
    )
    build = build_capacity(net, "S")
    assert build.raw_mass == pytest.approx(1.3, abs=1e-12)
    i_a, i_b = build.elements.index("A"), build.elements.index("B")
    assert build.capacity.singleton[i_a] == pytest.approx(0.6 / 1.3, abs=1e-12)
    assert build.capacity.singleton[i_b] == pytest.approx(0.4 / 1.3, abs=1e-12)
    assert build.capacity.pairs[i_a, i_b] == pytest.approx(0.3 / 1.3, abs=1e-12)
    v = build.capacity.shapley_values()
    assert v[i_a] == pytest.approx(0.75 / 1.3, abs=1e-12)
    assert v.sum() == pytest.approx(1.0, abs=1e-12)


def test_symmetric_children_get_equal_shapley():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.2), Node("B", 1, "S", 0.9)],
        [("A", "S", 0.7), ("B", "S", 0.7), ("A", "B", 0.4), ("B", "A", 0.4)],
    )
    build = build_capacity(net, "S")
    v = build.capacity.shapley_values()
    assert v[0] == pytest.approx(v[1], abs=1e-12)


def test_two_path_only_node_joins_ground_set():
    # chain C -> B -> A -> S: B reaches S through A only
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.4),
         Node("B", 2, "A", 0.7), Node("C", 3, "B", 0.5)],
        [("A", "S", 0.6), ("B", "A", 0.8), ("C", "B", 0.9)],
    )
    build = build_capacity(net, "S")
    assert build.elements == ("A", "B")
    i_a, i_b = 0, 1
    assert build.raw_mass == pytest.approx(0.6 + 0.48, abs=1e-12)
    assert build.capacity.singleton[i_b] == 0.0
    assert build.capacity.pairs[i_a, i_b] == pytest.approx(0.48 / 1.08, abs=1e-12)


def test_isolated_root_target_raises():
    net = RiskNetwork.build([Node("S", 0), Node("A", 1, "S", 0.5)], [])
    with pytest.raises(NoCapacityError):
        build_capacity(net, "S")
    with pytest.raises(NoCapacityError):
        build_capacity(
            RiskNetwork.build(
                [Node("S", 0), Node("A", 1, "S", 0.5)], [("A", "S", 0.0)]
            ),
            "S",
        )


def test_central_mode_self_loop():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.8), Node("B", 1, "S", 0.5)],
        [("A", "S", 0.6), ("B", "S", 0.4), ("B", "A", 0.5)],
    )
    build = oracle.build_capacity(net, "A", mode="central")
    assert build.elements[-1] == "A"
    self_idx = build.index_of("A")
    # default exposure: incoming weight total capped at 1
    assert build.capacity.singleton[self_idx] == pytest.approx(0.5)
    assert np.all(build.capacity.pairs[self_idx, :] == 0.0)
    assert not build.capacity.normalized


def test_central_mode_honors_explicit_exposure():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.8, self_exposure=0.25),
         Node("B", 1, "S", 0.5)],
        [("A", "S", 0.6), ("B", "S", 0.4), ("B", "A", 0.5)],
    )
    assert oracle.default_self_exposure(net, "A") == 0.25
    build = oracle.build_capacity(net, "A", mode="central")
    assert build.capacity.singleton[build.index_of("A")] == 0.25


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_root_capacity_is_always_valid(seed):
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng, two_level=bool(rng.integers(2)))
    build = build_capacity(snap.network, "ROOT")
    cap = build.capacity
    assert cap.total_mass == pytest.approx(1.0, abs=1e-9)
    assert cap.is_monotone()
    assert np.all(cap.singleton >= 0.0) and np.all(cap.pairs >= 0.0)
    assert cap.shapley_values().sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_scaling_direct_links_leaves_capacity_unchanged(seed):
    # each pair mass carries exactly one in-link factor, so scaling the
    # links into the target rescales every mass by the same factor
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng)
    lam = float(rng.uniform(0.2, 5.0))
    scaled_links = {
        key: (w * lam if key[1] == "ROOT" else w)
        for key, w in snap.network.links.items()
    }
    scaled = RiskNetwork(dict(snap.network.nodes), scaled_links)
    base = build_capacity(snap.network, "ROOT")
    after = build_capacity(scaled, "ROOT")
    assert np.allclose(base.capacity.singleton, after.capacity.singleton, atol=1e-12)
    assert np.allclose(base.capacity.pairs, after.capacity.pairs, atol=1e-12)


def test_scaling_everything_is_invariant_on_star_networks():
    nodes = [Node("S", 0)] + [Node(c, 1, "S", 0.5) for c in "ABC"]
    links = [("A", "S", 0.5), ("B", "S", 0.3), ("C", "S", 0.2)]
    net = RiskNetwork.build(nodes, links)
    scaled = RiskNetwork(
        dict(net.nodes), {k: w * 7.5 for k, w in net.links.items()}
    )
    assert np.allclose(
        build_capacity(net, "S").capacity.singleton,
        build_capacity(scaled, "S").capacity.singleton,
        atol=1e-12,
    )


# ------------------------------------------------------------- k_paths

def test_k1_paths_are_exactly_incoming_links():
    net = complete_three_siblings()
    hits = oracle.k_paths(net, "S", 1)
    assert {(h.nodes, h.weight) for h in hits} == {
        (("A", "S"), 1.0), (("B", "S"), 1.0), (("C", "S"), 1.0)
    }


def test_chain_path_value_is_weight_product():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.4),
         Node("B", 2, "A", 0.7), Node("C", 3, "B", 0.5)],
        [("A", "S", 0.6), ("B", "A", 0.8), ("C", "B", 0.9)],
    )
    hits = {h.nodes: h.weight for h in oracle.k_paths(net, "S", 3)}
    assert hits[("C", "B", "A", "S")] == pytest.approx(0.9 * 0.8 * 0.6, abs=1e-15)
    assert set(hits) == {("A", "S"), ("B", "A", "S"), ("C", "B", "A", "S")}


def test_complete_group_path_count_matches_bruteforce():
    net = complete_three_siblings()
    hits = oracle.k_paths(net, "S", 2)
    expected = paths_by_bruteforce(net, "S", 2)
    assert {h.nodes: h.weight for h in hits} == pytest.approx(expected)
    # 3 direct + 3*2 two-step paths through one sibling each
    assert len(hits) == 9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_paths_match_bruteforce_and_are_simple(seed, k):
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng, max_children=5, two_level=True)
    hits = oracle.k_paths(snap.network, "ROOT", k)
    expected = paths_by_bruteforce(snap.network, "ROOT", k)
    assert {h.nodes: h.weight for h in hits} == pytest.approx(expected)
    for hit in hits:
        assert len(set(hit.nodes)) == len(hit.nodes)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_two_step_paths_reproduce_capacity_masses(seed):
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng, two_level=bool(rng.integers(2)))
    build = build_capacity(snap.network, "ROOT")
    hits = oracle.k_paths(snap.network, "ROOT", 2)
    singles = np.zeros(len(build.elements))
    pairs = np.zeros((len(build.elements), len(build.elements)))
    index = {nid: i for i, nid in enumerate(build.elements)}
    for hit in hits:
        if hit.length == 1:
            singles[index[hit.nodes[0]]] += hit.weight
        else:
            i, j = index[hit.nodes[0]], index[hit.nodes[1]]
            pairs[i, j] += hit.weight
            pairs[j, i] += hit.weight
    z = build.raw_mass
    assert np.allclose(singles / z, build.capacity.singleton, atol=1e-12)
    assert np.allclose(pairs / z, build.capacity.pairs, atol=1e-12)


def node_sequences(net, rows):
    """Node ids of each k_paths row, from the path start to the target."""
    ids = sorted(net.nodes)
    return [tuple(ids[i] for i in row[::-1] if i != PATH_PAD) for row in rows.tolist()]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_path_rows_match_oracle_paths(seed):
    rng = np.random.default_rng(seed)
    net = random_snapshot(rng, max_children=5, two_level=bool(rng.integers(2)),
                          density=float(rng.uniform(0.2, 1.0))).network
    links = {key: 0.0 if rng.random() < 0.2 else w for key, w in net.links.items()}
    for nid in net.nodes:
        if rng.random() < 0.3:
            links[nid, nid] = float(rng.uniform())
    net = RiskNetwork(net.nodes, links)
    for k in (1, 2, 3):
        for target in net.nodes:
            rows = k_paths(net, target, k)
            assert rows.shape[1] == k + 1
            assert node_sequences(net, rows) == [
                hit.nodes for hit in oracle.k_paths(net, target, k)
            ]


def test_path_rows_layout():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.4),
         Node("B", 2, "A", 0.7), Node("C", 3, "B", 0.5)],
        [("A", "S", 0.6), ("B", "A", 0.8), ("C", "B", 0.9), ("B", "B", 0.1)],
    )
    # positions in sorted ids: A 0, B 1, C 2, S 3; the self-link gives no path
    chain = [[3, 0, PATH_PAD, PATH_PAD], [3, 0, 1, PATH_PAD], [3, 0, 1, 2]]
    assert k_paths(net, "S", 3).tolist() == chain
    # a k above the longest simple path only widens the padding
    assert k_paths(net, "S", 5).tolist() == [row + [PATH_PAD] * 2 for row in chain]
    # C has no in-links: no rows, but still k + 1 columns; every result is
    # an index array, empty or not
    for k in (1, 2, 3, 5):
        assert k_paths(net, "C", k).shape == (0, k + 1)
        for target in ("S", "A", "B", "C"):
            assert k_paths(net, target, k).dtype == np.intp


def test_k_must_be_positive():
    with pytest.raises(ValueError, match="path length bound k must be >= 1"):
        k_paths(complete_three_siblings(), "S", 0)
    with pytest.raises(ValueError, match="unknown node 'X'"):
        k_paths(complete_three_siblings(), "X", 2)


# ----------------------------------------------------------- snapshots

def two_level_network(nodes=None, links=None) -> RiskNetwork:
    """Root S over siblings A and B, with G below A; ``nodes`` and ``links``
    replace entries by key, and a None value removes one."""
    base_nodes = {
        "S": Node("S", 0),
        "A": Node("A", 1, "S", 0.5),
        "B": Node("B", 1, "S", 0.4, self_exposure=0.2),
        "G": Node("G", 2, "A", 0.3),
    }
    base_links = {("A", "S"): 0.6, ("B", "S"): 0.4, ("A", "B"): 0.3, ("G", "A"): 1.0}
    return RiskNetwork(
        {nid: n for nid, n in {**base_nodes, **(nodes or {})}.items() if n is not None},
        {key: w for key, w in {**base_links, **(links or {})}.items() if w is not None},
    )


DRIFTS = {
    "changed-level": {"nodes": {"G": Node("G", 3, "A", 0.3)}},
    "changed-parent": {"nodes": {"G": Node("G", 2, "B", 0.3)}},
    "added-link": {"links": {("B", "A"): 0.1}},
    "removed-link": {"links": {("A", "B"): None}},
    "added-node": {"nodes": {"D": Node("D", 1, "S", 0.5)}},
    "removed-node": {"nodes": {"G": None}, "links": {("G", "A"): None}},
}


def test_structural_drift_is_detected():
    for drift, changes in DRIFTS.items():
        snaps = [NetworkSnapshot(d, two_level_network()) for d in (4, 5)]
        snaps.append(NetworkSnapshot(6, two_level_network(**changes)))
        with pytest.raises(StructuralDriftError, match="snapshot 0001-Q3 does not share"):
            NetworkSeries.from_snapshots(snaps)
            pytest.fail(f"{drift} was not caught")


def test_series_from_shared_dicts_equals_one_from_copies():
    # dates that hand over the first date's own dicts are checked and read
    # as any other; the series is the one built from copies
    net = two_level_network()
    nodes = {nid: (n.level, n.parent_id, n.risk_value, n.self_exposure)
             for nid, n in net.nodes.items()}
    shared = NetworkSeries.from_dates((d, nodes, net.links) for d in range(4))
    copied = NetworkSeries.from_dates((d, dict(nodes), dict(net.links)) for d in range(4))
    for field in ("dates", "node_ids", "levels", "parents", "link_keys"):
        assert getattr(shared, field) == getattr(copied, field)
    for field in ("W", "X", "exposure"):
        assert np.array_equal(getattr(shared, field), getattr(copied, field), equal_nan=True)
    # a drifted date among shared ones still fails with the same line
    drifted = dict(net.links)
    del drifted["A", "B"]
    entries = [(d, nodes, net.links) for d in (4, 5)] + [(6, nodes, drifted), (7, nodes, net.links)]
    with pytest.raises(StructuralDriftError) as err:
        NetworkSeries.from_dates(entries)
    assert str(err.value) == "snapshot 0001-Q3 does not share the series structure"
    # a revalued date among shared ones keeps its own values
    revalued = {**net.links, ("A", "S"): 0.1}
    series = NetworkSeries.from_dates([(0, nodes, net.links), (1, nodes, revalued),
                                       (2, nodes, net.links)])
    column = series.link_keys.index(("A", "S"))
    assert series.W[:, column].tolist() == [0.6, 0.1, 0.6]


def test_value_changes_are_not_drift():
    base = two_level_network()
    revalued = two_level_network(
        nodes={"A": Node("A", 1, "S", 0.9, self_exposure=0.7),
               "B": Node("B", 1, "S", 0.1)},
        links={("A", "S"): 0.0, ("G", "A"): 0.25},
    )
    reordered = RiskNetwork(
        dict(reversed(base.nodes.items())), dict(reversed(base.links.items()))
    )
    NetworkSeries.from_snapshots([NetworkSnapshot(d, net) for d, net in
                                  enumerate((base, revalued, reordered,
                                             base.with_risk_values({"A": 0.9})))])


def test_series_holds_the_structure_once_and_the_values_per_date():
    base = two_level_network()
    revalued = two_level_network(nodes={"A": Node("A", 1, "S", None, self_exposure=0.7)},
                                 links={("G", "A"): 0.25})
    snaps = [NetworkSnapshot(8021, base), NetworkSnapshot(8022, revalued)]
    series = NetworkSeries.from_snapshots(snaps)
    assert series.dates == (8021, 8022)
    assert series.node_ids == ("A", "B", "G", "S")
    assert series.levels == (1, 1, 2, 0)
    assert series.parents == ("S", "S", "A", None)
    assert series.link_keys == (("A", "B"), ("A", "S"), ("B", "S"), ("G", "A"))
    assert np.array_equal(series.W, [[0.3, 0.6, 0.4, 1.0], [0.3, 0.6, 0.4, 0.25]])
    assert np.array_equal(series.X, [[0.5, 0.4, 0.3, np.nan], [np.nan, 0.4, 0.3, np.nan]],
                          equal_nan=True)
    assert np.array_equal(series.exposure, [[np.nan, 0.2, np.nan, np.nan],
                                            [0.7, 0.2, np.nan, np.nan]], equal_nan=True)
    assert series.known.tolist() == [[True, True, True, False], [False, True, True, False]]
    assert len(series) == 2 and list(series) == snaps and series[-1] == snaps[1]
    with pytest.raises(ValueError, match="at least one snapshot"):
        NetworkSeries.from_snapshots([])


def test_probability_override_assigns_levels_and_drops_uncovered_dates():
    series = NetworkSeries.from_snapshots(
        NetworkSnapshot(d, two_level_network()) for d in (4, 5, 6)
    )
    nan = np.nan  # entities A, B, G, S, X by quarters 4, 5, 6
    grid = [[0.9, 0.1, 0.25], [0.8, 0.2, 0.5], [0.7, nan, 0.5], [0.6, nan, nan], [nan, nan, 0.5]]
    overridden = series.with_probabilities("ABGSX", (4, 5, 6), grid)
    assert overridden.dates == (4, 6)
    # the root keeps its missing level
    assert np.array_equal(overridden.X, [[0.9, 0.8, 0.7, np.nan], [0.25, 0.5, 0.5, np.nan]],
                          equal_nan=True)
    assert np.array_equal(overridden.W, series.W[[0, 2]])
    assert np.array_equal(series.X[:, 0], [0.5, 0.5, 0.5])  # the source is untouched
    # snapshots of a derived series come from its arrays, in sorted order
    snap = overridden[1]
    assert snap.date == 6
    assert list(snap.network.nodes) == ["A", "B", "G", "S"]
    assert snap.network == two_level_network(nodes={
        "A": Node("A", 1, "S", 0.25), "B": Node("B", 1, "S", 0.5, self_exposure=0.2),
        "G": Node("G", 2, "A", 0.5),
    })
    with pytest.raises(RiskRankError, match="no snapshot date is fully covered"):
        series.with_probabilities("ABG", (5, 7), [[0.1, nan], [0.2, nan], [nan, 0.3]])


def test_in_links_returns_a_copy_of_the_index():
    net = complete_three_siblings()
    found = net.in_links("S")
    assert found == [("A", 1.0), ("B", 1.0), ("C", 1.0)]
    found.clear()
    assert net.in_links("S") == [("A", 1.0), ("B", 1.0), ("C", 1.0)]
    assert net.in_links("nobody") == []


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_capacity_and_in_links_from_the_link_table_equal_the_oracle_bit_for_bit(seed):
    """The package skips self-links, the oracle takes one on the target into
    the ground set, so the oracle reads the network without them."""
    rng = np.random.default_rng(seed)
    net = random_snapshot(rng, two_level=bool(rng.integers(2)),
                          density=float(rng.uniform())).network
    if rng.random() < 0.5:
        net = with_self_links(rng, net)
    if rng.random() < 0.3:  # zero-weight links, and targets without in-mass
        net = RiskNetwork(net.nodes, {key: 0.0 if rng.random() < 0.5 else w
                                      for key, w in net.links.items()})
    plain = RiskNetwork(net.nodes, {(s, t): w for (s, t), w in net.links.items() if s != t})
    for target in sorted(net.nodes):
        try:
            want = oracle.build_capacity(plain, target, "root")
        except NoCapacityError:
            with pytest.raises(NoCapacityError):
                build_capacity(net, target)
            continue
        got = build_capacity(net, target)
        assert got.elements == want.elements
        assert got.raw_mass == want.raw_mass
        assert np.array_equal(got.capacity.singleton, want.capacity.singleton)
        assert np.array_equal(got.capacity.pairs, want.capacity.pairs)
    scan = oracle.ScanNetwork(net.nodes, net.links)
    for node_id in [*sorted(net.nodes), "nobody"]:
        assert net.in_links(node_id) == scan.in_links(node_id)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_views_share_the_series_structure_and_build_the_same_capacities(seed):
    """Every view of a series reads the series' ids, link keys and link
    table; its capacities equal those of a fresh copy of its nodes and links,
    which builds its own, bit for bit."""
    rng = np.random.default_rng(seed)
    net = random_snapshot(rng, two_level=bool(rng.integers(2)),
                          density=float(rng.uniform())).network
    if rng.random() < 0.5:
        net = with_self_links(rng, net)
    # new weights per date, some zero, so that some targets have no in-mass
    series = NetworkSeries.from_snapshots(
        NetworkSnapshot(date, RiskNetwork(net.nodes, {
            key: 0.0 if rng.random() < 0.3 else float(rng.uniform()) for key in net.links}))
        for date in range(int(rng.integers(1, 4)))
    )
    for view in series:
        shared = view.network
        copy = RiskNetwork(dict(shared.nodes), dict(shared.links))
        assert shared.link_table is series.link_table
        assert shared.node_ids == series.node_ids == copy.node_ids
        assert shared.link_keys == series.link_keys == copy.link_keys
        assert list(shared.nodes) == list(copy.node_ids)
        assert list(shared.links) == list(copy.link_keys)
        assert np.array_equal(shared.link_table, copy.link_table)
        for target in series.node_ids:
            try:
                want = build_capacity(copy, target)
            except NoCapacityError as exc:
                with pytest.raises(NoCapacityError) as err:
                    build_capacity(shared, target)
                assert str(err.value) == str(exc)
                continue
            got = build_capacity(shared, target)
            assert got.elements == want.elements
            assert got.raw_mass == want.raw_mass
            assert np.array_equal(got.capacity.singleton, want.capacity.singleton)
            assert np.array_equal(got.capacity.pairs, want.capacity.pairs)
