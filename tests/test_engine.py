"""Score computation: hand cases, the Moebius identity, and path variants."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrank import engine
from riskrank.engine import RiskRankConfig, riskrank_for, riskrank_series
from riskrank.errors import NoCapacityError, RiskRankError, StructuralDriftError
from riskrank.network import NetworkSeries, NetworkSnapshot, Node, RiskNetwork, build_capacity

from conftest import random_snapshot, with_self_links
from oracle import oracle_for, risk_of, riskrank_kpath, riskrank_node, riskrank_root

UNIT = RiskRankConfig(central_weight_mode="unit")
SHAPLEY = RiskRankConfig(central_weight_mode="shapley")


def mobius_score(net, target):
    """Independent evaluation: normalized masses dotted with value products."""
    build = build_capacity(net, target)
    x = np.array([risk_of(net, nid) for nid in build.elements])
    singles = build.capacity.singleton
    pairs = build.capacity.pairs
    total = float(singles @ x)
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            total += pairs[i, j] * x[i] * x[j]
    return total


def two_child_snapshot(x_a=0.8, x_b=0.5):
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", x_a), Node("B", 1, "S", x_b)],
        [("A", "S", 0.6), ("B", "S", 0.4), ("B", "A", 0.5)],
    )
    return NetworkSnapshot(0, net)


# ------------------------------------------------------------ root mode

def test_zero_risks_give_zero_total():
    dec = riskrank_root(two_child_snapshot(0.0, 0.0))
    assert dec.total == pytest.approx(0.0, abs=1e-12)
    assert dec.individual == 0.0


def test_no_interactions_reduce_to_weighted_mean():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.9), Node("B", 1, "S", 0.1)],
        [("A", "S", 0.75), ("B", "S", 0.25)],
    )
    dec = riskrank_root(NetworkSnapshot(0, net))
    assert dec.indirect == pytest.approx(0.0, abs=1e-12)
    assert dec.total == pytest.approx(0.75 * 0.9 + 0.25 * 0.1, abs=1e-12)


def test_worked_two_child_example():
    dec = riskrank_root(two_child_snapshot())
    assert dec.total == pytest.approx(0.8 / 1.3, abs=1e-12)
    assert dec.direct == pytest.approx(0.68 / 1.3, abs=1e-12)
    assert dec.indirect == pytest.approx(0.12 / 1.3, abs=1e-12)
    assert dec.individual == 0.0
    assert dec.total_raw == pytest.approx(dec.individual + dec.direct + dec.indirect,
                                          abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_root_score_equals_mobius_form(seed):
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng, two_level=bool(rng.integers(2)))
    dec = riskrank_root(snap)
    assert dec.total_raw == pytest.approx(mobius_score(snap.network, "ROOT"),
                                          abs=1e-12)
    assert dec.individual + dec.direct + dec.indirect == pytest.approx(
        dec.total_raw, abs=1e-12
    )
    assert 0.0 <= dec.total <= 1.0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_k2_score_equals_capacity_masses_with_self_links(seed):
    # the engine skips self-links, so the capacity must skip them too for
    # its masses to stay those of the k = 2 paths
    rng = np.random.default_rng(seed)
    net = with_self_links(rng, random_snapshot(rng, two_level=bool(rng.integers(2))).network)
    snap = NetworkSnapshot(0, net)
    for target, node in sorted(net.nodes.items()):
        try:
            masses = mobius_score(net, target)
        except NoCapacityError:
            continue
        own = 0.0 if node.level == 0 else node.risk_value
        dec = riskrank_for(snap, target, RiskRankConfig(clamp=False))
        assert dec.total_raw == pytest.approx(own + masses, abs=1e-12)


def series_or_failure(net, targets, cfg):
    try:
        return riskrank_series(NetworkSeries.from_snapshots([NetworkSnapshot(0, net)]),
                               targets, cfg)
    except (RiskRankError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([1, 2, 3]),
       st.sampled_from(["unit", "shapley"]))
def test_self_links_change_no_score(seed, k, mode):
    # a self-link is never an in-link: no path takes it, and neither does the
    # shapley fallback self exposure
    rng = np.random.default_rng(seed)
    net = random_snapshot(rng, two_level=bool(rng.integers(2))).network
    targets = sorted(net.nodes)
    cfg = RiskRankConfig(mode, max_path_length=k)
    assert series_or_failure(with_self_links(rng, net), targets, cfg) == \
        series_or_failure(net, targets, cfg)


def test_self_link_leaves_shapley_fallback_alone():
    nodes = [Node("S", 0), Node("A", 1, "S", 0.8), Node("B", 1, "S", 0.5)]
    links = [("A", "S", 0.6), ("B", "S", 0.4), ("B", "A", 0.3)]
    for loop in ([], [("A", "A", 0.5)]):
        snap = NetworkSnapshot(0, RiskNetwork.build(nodes, links + loop))
        dec = riskrank_for(snap, "A", SHAPLEY)
        # z = 0.3 + min(0.3, 1): the weight of B -> A, twice
        assert dec.individual == pytest.approx(0.40, abs=1e-12)
        assert dec.total == pytest.approx(0.65, abs=1e-12)


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    namespace = {}
    exec(block, namespace)
    assert namespace["dec"].total == pytest.approx(0.8 / 1.3, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_root_monotone_in_any_risk_value(seed):
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng, two_level=bool(rng.integers(2)))
    before = riskrank_root(snap).total
    non_root = [nid for nid, n in snap.network.nodes.items() if n.level > 0]
    victim = non_root[int(rng.integers(len(non_root)))]
    bumped = min(risk_of(snap.network, victim) + float(rng.uniform(0, 0.5)), 1.0)
    after = riskrank_root(
        NetworkSnapshot(0, snap.network.with_risk_values({victim: bumped}))
    ).total
    assert after >= before - 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_indirect_never_exceeds_min_form(seed):
    # with x in [0,1], x_i * x_j <= min(x_i, x_j), so the product-form
    # indirect sum is dominated by the min-form one
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng)
    build = build_capacity(snap.network, "ROOT")
    x = np.array([risk_of(snap.network, nid) for nid in build.elements])
    dec = riskrank_root(snap)
    min_form = sum(
        build.capacity.pairs[i, j] * min(x[i], x[j])
        for i in range(len(x)) for j in range(i + 1, len(x))
    )
    assert dec.indirect <= min_form + 1e-12


def test_root_bounds_and_corners():
    snap = two_child_snapshot(1.0, 1.0)
    assert riskrank_root(snap).total == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_snapshot(rng)
        dec = riskrank_root(s)
        xs = [n.risk_value for n in s.network.nodes.values() if n.level > 0]
        assert dec.total <= max(xs) + 1e-12
        assert 0.0 <= dec.total <= 1.0


def test_pair_free_network_is_idempotent():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.37), Node("B", 1, "S", 0.37)],
        [("A", "S", 0.6), ("B", "S", 0.4)],
    )
    assert riskrank_root(NetworkSnapshot(0, net)).total == pytest.approx(0.37, abs=1e-12)


# ------------------------------------------------------------ node mode

def test_isolated_node_unit_mode():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.7), Node("B", 1, "S", 0.2)],
        [("A", "S", 1.0), ("B", "S", 1.0)],
    )
    dec = riskrank_node(NetworkSnapshot(0, net), "A", UNIT)
    assert (dec.individual, dec.direct, dec.indirect) == (0.7, 0.0, 0.0)
    assert dec.total == 0.7


def test_unit_mode_clamps_at_one():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.9), Node("B", 1, "S", 0.3)],
        [("A", "S", 1.0), ("B", "S", 1.0), ("B", "A", 1.0)],
    )
    dec = riskrank_node(NetworkSnapshot(0, net), "A", UNIT)
    assert dec.individual == pytest.approx(0.9)
    assert dec.direct == pytest.approx(0.3, abs=1e-12)
    assert dec.total_raw == pytest.approx(1.2, abs=1e-12)
    assert dec.total == 1.0
    unclamped = riskrank_node(
        NetworkSnapshot(0, net), "A", RiskRankConfig("unit", clamp=False)
    )
    assert unclamped.total == pytest.approx(1.2, abs=1e-12)


def shapley_mode_fixture():
    net = RiskNetwork.build(
        [Node("S", 0), Node("T", 1, "S", 0.5, self_exposure=0.6),
         Node("A", 1, "S", 0.9), Node("B", 1, "S", 0.2)],
        [("T", "S", 1.0), ("A", "S", 1.0), ("B", "S", 1.0),
         ("A", "T", 0.5), ("B", "T", 0.3), ("B", "A", 0.4)],
    )
    return NetworkSnapshot(0, net)


def test_shapley_mode_three_node_case():
    # masses at T: a_A=0.5, a_B=0.3, a_AB=0.4*0.5=0.2, self=0.6, Z=1.6
    dec = riskrank_node(shapley_mode_fixture(), "T", SHAPLEY)
    assert dec.individual == pytest.approx(0.6 * 0.5 / 1.6, abs=1e-12)
    assert dec.direct == pytest.approx((0.5 * 0.9 + 0.3 * 0.2) / 1.6, abs=1e-12)
    assert dec.indirect == pytest.approx(0.2 * 0.9 * 0.2 / 1.6, abs=1e-12)
    # Moebius form with the self-loop as a pure singleton
    expected = (0.6 * 0.5 + 0.5 * 0.9 + 0.3 * 0.2 + 0.2 * 0.9 * 0.2) / 1.6
    assert dec.total == pytest.approx(expected, abs=1e-12)
    assert dec.total == pytest.approx(0.52875, abs=1e-12)


def test_node_requires_risk_value_and_non_root():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", None)], [("A", "S", 1.0)]
    )
    snap = NetworkSnapshot(0, net)
    with pytest.raises(ValueError, match="risk value"):
        riskrank_node(snap, "A", UNIT)
    with pytest.raises(ValueError, match="root"):
        riskrank_node(snap, "S", UNIT)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_node_modes_monotone_in_risk_values(seed):
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng)
    target = "C0"
    non_root = [nid for nid, n in snap.network.nodes.items() if n.level > 0]
    victim = non_root[int(rng.integers(len(non_root)))]
    bumped = min(risk_of(snap.network, victim) + 0.3, 1.0)
    bumped_snap = NetworkSnapshot(
        0, snap.network.with_risk_values({victim: bumped})
    )
    for cfg in (UNIT, SHAPLEY):
        try:
            before = riskrank_node(snap, target, cfg).total
        except NoCapacityError:
            continue  # no in-links and zero exposure: outside the precondition
        after = riskrank_node(bumped_snap, target, cfg).total
        assert after >= before - 1e-12


# ------------------------------------------------------------ k > 2

def chain_snapshot():
    net = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.4),
         Node("B", 2, "A", 0.7), Node("C", 3, "B", 0.5)],
        [("A", "S", 0.6), ("B", "A", 0.8), ("C", "B", 0.9)],
    )
    return NetworkSnapshot(0, net)


def test_kpath_chain_hand_case():
    # masses: 0.6 (A), 0.48 (B->A->S), 0.432 (C->B->A->S); Z = 1.512
    cfg = RiskRankConfig(max_path_length=3)
    dec = riskrank_kpath(chain_snapshot(), "S", cfg)
    z = 0.6 + 0.48 + 0.432
    assert dec.direct == pytest.approx(0.6 * 0.4 / z, abs=1e-12)
    assert dec.indirect == pytest.approx(
        (0.48 * 0.7 * 0.4 + 0.432 * 0.5 * 0.7 * 0.4) / z, abs=1e-12
    )
    assert dec.total == pytest.approx(0.43488 / 1.512, abs=1e-12)


def test_kpath_k1_keeps_direct_only():
    dec = riskrank_kpath(chain_snapshot(), "S", RiskRankConfig(max_path_length=1))
    assert dec.indirect == 0.0
    assert dec.direct == pytest.approx(0.4, abs=1e-12)  # single in-link, normalized


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_kpath_k2_equals_base_operators(seed):
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng, two_level=True)
    base = riskrank_root(snap)
    via_paths = riskrank_kpath(snap, "ROOT", RiskRankConfig(max_path_length=2))
    for field in ("individual", "direct", "indirect", "total_raw", "total"):
        assert getattr(via_paths, field) == pytest.approx(
            getattr(base, field), abs=1e-12
        )
    for cfg in (UNIT, SHAPLEY):
        cfg2 = RiskRankConfig(cfg.central_weight_mode, cfg.clamp, 2)
        node_base = riskrank_node(snap, "C0", cfg)
        node_paths = riskrank_kpath(snap, "C0", cfg2)
        for field in ("individual", "direct", "indirect", "total_raw", "total"):
            assert getattr(node_paths, field) == pytest.approx(
                getattr(node_base, field), abs=1e-12
            )


def test_kpath_rejects_bad_k():
    with pytest.raises(ValueError):
        RiskRankConfig(max_path_length=0)


# ------------------------------------------------------------- series

def test_single_snapshot_series_matches_node_call():
    snap = two_child_snapshot()
    rows = riskrank_series(NetworkSeries.from_snapshots([snap]), ["A"], UNIT)
    assert len(rows) == 1
    assert rows[0].decomposition == riskrank_node(snap, "A", UNIT)


def test_constant_snapshots_give_constant_series():
    snap = two_child_snapshot()
    series = [NetworkSnapshot(q, snap.network) for q in range(4)]
    rows = riskrank_series(NetworkSeries.from_snapshots(series), ["S", "A"], UNIT)
    totals = {target: {r.decomposition.total for r in rows if r.target == target}
              for target in ("S", "A")}
    assert all(len(v) == 1 for v in totals.values())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_randomized_series_equals_per_snapshot_calls(seed):
    rng = np.random.default_rng(seed)
    base = random_snapshot(rng)
    snaps = []
    for q in range(3):
        values = {
            nid: float(rng.uniform())
            for nid, node in base.network.nodes.items() if node.level > 0
        }
        snaps.append(NetworkSnapshot(q, base.network.with_risk_values(values)))
    rows = riskrank_series(NetworkSeries.from_snapshots(snaps), ["ROOT", "C0"], UNIT)
    for row in rows:
        snap = snaps[row.date]
        assert row.decomposition == riskrank_for(snap, row.target, UNIT)


def changing_series(rng, dates):
    """One random structure whose link weights, risk levels and self
    exposures are all redrawn per date; exposures are left empty on some
    dates, weights are sometimes zero and a risk level is sometimes missing."""
    base = random_snapshot(rng, two_level=bool(rng.integers(2))).network
    non_root = [nid for nid, n in base.nodes.items() if n.level > 0]
    hole = (int(rng.integers(dates)), str(rng.choice(non_root)))
    if rng.random() < 0.8:
        hole = None
    snaps = []
    for q in range(dates):
        nodes = [
            n if n.level == 0 else Node(
                n.id, n.level, n.parent_id,
                None if (q, n.id) == hole else float(rng.uniform()),
                float(rng.uniform()) if rng.random() < 0.5 else None,
            )
            for n in base.nodes.values()
        ]
        links = [
            (s, t, 0.0 if rng.random() < 0.1 else float(rng.uniform()))
            for s, t in base.links
        ]
        snaps.append(NetworkSnapshot(q, RiskNetwork.build(nodes, links)))
    return snaps


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([1, 2, 3]),
       st.sampled_from(["unit", "shapley"]), st.booleans())
def test_series_matches_oracle_on_changing_series(seed, k, mode, clamp):
    rng = np.random.default_rng(seed)
    snaps = changing_series(rng, int(rng.integers(2, 5)))
    ids = sorted(snaps[0].network.nodes)
    targets = [str(t) for t in rng.permutation(ids)[: int(rng.integers(1, len(ids) + 1))]]
    cfg = RiskRankConfig(mode, clamp, k)
    expected, error = [], None
    try:
        for snap in snaps:
            for target in targets:
                riskrank_kpath(snap, target, cfg)  # the failure oracle at every k
                expected.append(oracle_for(snap, target, cfg))
    except (RiskRankError, ValueError) as exc:
        error = exc
    if error is not None:
        # the first failing (date, target) pair is reported, as the path operator does
        with pytest.raises((RiskRankError, ValueError)) as raised:
            riskrank_series(NetworkSeries.from_snapshots(snaps), targets, cfg)
        assert type(raised.value) is type(error)
        assert str(raised.value) == str(error)
        return
    rows = riskrank_series(NetworkSeries.from_snapshots(snaps), targets, cfg)
    assert [(r.date, r.target) for r in rows] == [
        (snap.date, target) for snap in snaps for target in targets
    ]
    for row, want in zip(rows, expected):
        for field in ("individual", "direct", "indirect", "total_raw", "total"):
            assert getattr(row.decomposition, field) == pytest.approx(
                getattr(want, field), abs=1e-12
            )


def relabeled(snap, names):
    """The snapshot with every node id replaced through ``names``."""
    net = snap.network
    nodes = [Node(names[n.id], n.level, names.get(n.parent_id), n.risk_value,
                  n.self_exposure) for n in net.nodes.values()]
    links = [(names[s], names[t], w) for (s, t), w in net.links.items()]
    return NetworkSnapshot(snap.date, RiskNetwork.build(nodes, links))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([1, 2, 3]),
       st.sampled_from(["unit", "shapley"]), st.booleans())
def test_series_equals_path_oracle_exactly(seed, k, mode, clamp):
    """The path engine runs products and sums in the path operator's order,
    so the two agree bit for bit.  Ids are shuffled so that any node, not
    only the root, may sort last and sit next to the padding."""
    rng = np.random.default_rng(seed)
    snaps = changing_series(rng, int(rng.integers(1, 4)))
    ids = sorted(snaps[0].network.nodes)
    names = dict(zip(ids, (f"N{i:02d}" for i in rng.permutation(len(ids)))))
    snaps = [relabeled(snap, names) for snap in snaps]
    targets = sorted(snaps[0].network.nodes)
    cfg = RiskRankConfig(mode, clamp, k)
    try:
        expected = [riskrank_kpath(snap, t, cfg) for snap in snaps for t in targets]
    except (RiskRankError, ValueError):
        return  # failures are compared by the test above
    rows = engine._by_paths(NetworkSeries.from_snapshots(snaps), targets, cfg)
    assert [row.decomposition for row in rows] == expected


@pytest.mark.parametrize("mode", ["unit", "shapley"])
def test_scores_do_not_depend_on_the_date_count(mode):
    """Each date scored alone gives the rows it gets inside a 3-date series.
    Twelve entities linked both ways at k = 3 give every target over 128
    paths, past the block size of numpy's pairwise sums, and eleven in-links
    each, small enough that their shapley fallback total stays below its cap
    of one.  LONE has no in-links: no paths, and a self exposure instead."""
    rng = np.random.default_rng(12)
    entities = [f"E{i:02d}" for i in range(12)]
    snaps = []
    for q in range(3):
        nodes = [Node("ROOT", 0), Node("LONE", 1, "ROOT", float(rng.uniform()), 0.5)]
        nodes += [Node(e, 1, "ROOT", float(rng.uniform())) for e in entities]
        links = [(e, "ROOT", float(rng.uniform(0.1, 1.0))) for e in entities + ["LONE"]]
        links += [(a, b, float(rng.uniform(0.0, 0.09)))
                  for a in entities for b in entities if a != b]
        snaps.append(NetworkSnapshot(q, RiskNetwork.build(nodes, links)))
    targets = ["ROOT", "E00", "E07", "LONE"]
    cfg = RiskRankConfig(mode, False, 3)
    together = riskrank_series(NetworkSeries.from_snapshots(snaps), targets, cfg)
    for snap in snaps:
        alone = riskrank_series(NetworkSeries.from_snapshots([snap]), targets, cfg)
        assert [row.decomposition for row in alone] == [
            row.decomposition for row in together if row.date == snap.date
        ]


def test_series_rejects_structural_drift():
    snap = two_child_snapshot()
    other = RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.8)], [("A", "S", 0.6)]
    )
    with pytest.raises(StructuralDriftError):
        riskrank_series(
            NetworkSeries.from_snapshots([snap, NetworkSnapshot(1, other)]), ["S"], UNIT
        )


# ------------------------------------------------------------- k = 2 sums

PARTS = ("individual", "direct", "indirect", "total_raw", "total")


def looped(rng, snaps):
    """The snapshots with self-links on a random half of their nodes, the
    root's too, weights drawn per date."""
    nodes = [nid for nid in sorted(snaps[0].network.nodes) if rng.random() < 0.5]
    return [NetworkSnapshot(snap.date, RiskNetwork.build(
        snap.network.nodes.values(),
        [(s, t, w) for (s, t), w in snap.network.links.items()]
        + [(nid, nid, float(rng.uniform(0.1, 1.0))) for nid in nodes])) for snap in snaps]


def texts(rows):
    """(date, target, each part's "%.10g" text) per row."""
    return [(row.date, row.target, *("%.10g" % getattr(row.decomposition, part)
                                     for part in PARTS)) for row in rows]


def scored(score, series, targets, cfg):
    try:
        return texts(score(series, targets, cfg))
    except (RiskRankError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["unit", "shapley"]), st.booleans())
def test_sums_give_the_path_engines_text(seed, mode, clamp):
    """Self-links, zero weights, missing levels and shuffled ids: the same
    rows in the same order with the same text, or the same error."""
    rng = np.random.default_rng(seed)
    snaps = changing_series(rng, int(rng.integers(1, 5)))
    if rng.random() < 0.5:
        snaps = looped(rng, snaps)
    ids = sorted(snaps[0].network.nodes)
    names = dict(zip(ids, (f"N{i:02d}" for i in rng.permutation(len(ids)))))
    series = NetworkSeries.from_snapshots([relabeled(snap, names) for snap in snaps])
    chosen = rng.permutation(series.node_ids)[:int(rng.integers(1, len(ids) + 1))]
    targets = [str(t) for t in chosen]
    cfg = RiskRankConfig(mode, clamp, 2)
    assert scored(riskrank_series, series, targets, cfg) == \
        scored(engine._by_paths, series, targets, cfg)


def sums_series(seed):
    """A 4-date changing series the sums score without the path engine."""
    rng = np.random.default_rng(seed)
    while True:
        series = NetworkSeries.from_snapshots(looped(rng, changing_series(rng, 4)))
        if engine._sums(series, series.node_ids, SHAPLEY) is not None:
            return series


@pytest.mark.parametrize("cfg", [UNIT, SHAPLEY, RiskRankConfig("unit", False)])
@pytest.mark.parametrize("seed", range(4))
def test_sums_rescore_every_flagged_cell_by_paths(monkeypatch, seed, cfg):
    """With every radius scaled up, and widened past one text, every cell is
    flagged, and the rows are the path engine's, bit for bit."""
    series = sums_series(seed)
    targets = list(series.node_ids)
    same_text = engine._same_text
    monkeypatch.setattr(engine, "_same_text",
                        lambda value, radius: same_text(value, radius * 1e6 + 1.0))
    assert engine._sums(series, targets, cfg)[1].all()

    def bits(rows):
        return [(row.date, row.target, *map(float.hex, row.decomposition[1:])) for row in rows]
    assert bits(riskrank_series(series, targets, cfg)) == bits(engine._by_paths(series, targets, cfg))


def test_sums_fall_back_where_a_target_could_fail():
    series = sums_series(0)
    targets = list(series.node_ids)
    assert engine._sums(series, targets, UNIT) is not None
    child = next(nid for nid, level in zip(series.node_ids, series.levels) if level)
    X, W = series.X.copy(), series.W.copy()
    X[1, series.node_ids.index(child)] = np.nan
    W[0, 0] = 2.0 ** -130
    assert engine._sums(replace(series, X=X), targets, UNIT) is None  # a missing level
    assert engine._sums(replace(series, W=W), targets, UNIT) is None  # underflow
    assert engine._sums(replace(series, W=-W), targets, UNIT) is None
    assert engine._sums(series, targets + ["GHOST"], UNIT) is None
    assert engine._sums(series, targets, RiskRankConfig(max_path_length=3)) is None
    with pytest.raises(ValueError, match="unknown node 'GHOST'"):
        riskrank_series(series, ["GHOST"], UNIT)
    # the root's level is read on a path from it
    looped_root = NetworkSeries.from_snapshots([NetworkSnapshot(0, RiskNetwork.build(
        [Node("S", 0), Node("A", 1, "S", 0.5)], [("A", "S", 0.5), ("S", "A", 0.5)]))])
    assert engine._sums(looped_root, ["A"], UNIT) is None
    with pytest.raises(ValueError, match="node 'S' carries no risk value"):
        riskrank_series(looped_root, ["A"], UNIT)


def test_text_check_at_powers_of_ten_one_zero_and_tiny_values():
    cases = [
        # (value, radius, one text throughout)
        (1.0, 1e-15, True),  # a clamped total
        (1.0, 0.0, True),
        (1.0, 6e-11, False),  # 0.99999999994 reads 0.9999999999
        (1000.0, 1e-12, True),
        (1e-5, 1e-22, True),  # where %g turns to an exponent
        (9.9999999995, 1e-15, False),  # 9.999999999 or 10
        (9.99999999949, 1e-15, True),
        (0.12345678905, 1e-13, False),
        (0.123456789, 1e-18, True),
        (0.0, 0.0, True),
        (0.0, 1e-300, False),  # -1e-300 and 1e-300
        (5e-324, 0.0, True),
        (1e-300, 1e-320, True),
        (2.5e-310, 5e-324, True),  # one subnormal step
        (math.nan, 0.0, False),
        (0.5, math.inf, False),
        (0.5, math.nan, False),
    ]
    values, radii, want = map(np.array, zip(*cases))
    assert engine._same_text(values, radii).tolist() == want.tolist()


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1e6), st.floats(0.0, 1e-6))
def test_text_check_keeps_only_one_text(value, radius):
    kept = bool(engine._same_text(np.array([value]), np.array([radius]))[0])
    ends = {"%.10g" % (value - radius), "%.10g" % value, "%.10g" % (value + radius)}
    if kept:
        assert len(ends) == 1
    elif radius == 0.0:
        raise AssertionError("an exact value is always kept")
