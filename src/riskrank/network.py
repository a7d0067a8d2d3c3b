"""Hierarchical risk networks and the capacity built from their link weights.

The system is a directed graph arranged in levels: a single root at level 0,
whose children form a complete sub-network among themselves and each link to
the root; every deeper node belongs to exactly one such sibling group under
its parent.  Node values are risk levels in [0,1] (the root carries none),
link weights are nonnegative impact measures.

For a target node, the aggregation capacity is assembled from paths of length
at most two ending at the target: a direct link i -> target contributes the
singleton mass a_i = l(i, target), and each directed two-step path j -> i ->
target contributes l(j, i) * l(i, target) to the pair mass a_ij (both
directions are summed).  Nodes that only reach the target through such a
two-step path therefore enter the ground set with zero singleton mass and one
pair term.  Self-links are skipped, as ``k_paths`` skips them, so the masses
are exactly those of the k = 2 paths into the target, normalized to total
one.  The root capacity is the one ``validate`` checks.  Paths, capacities,
in-links and the engine's link columns all read one cached adjacency per
network, ``RiskNetwork.link_table``.

A quarterly series observes one structure on every date, so a
``NetworkSeries`` keeps the structure once and the values as dates x columns
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress

import numpy as np

from .capacity import TwoAdditiveCapacity, ValidationReport
from .errors import NoCapacityError, RiskRankError, StructuralDriftError
from .quarters import quarter_label


@dataclass(frozen=True)
class Node:
    id: str
    level: int
    parent_id: str | None = None
    risk_value: float | None = None
    self_exposure: float | None = None


@dataclass(frozen=True)
class RiskNetwork:
    """Immutable-by-convention container of nodes and directed weighted links."""

    nodes: dict[str, Node]
    links: dict[tuple[str, str], float]

    @classmethod
    def build(cls, nodes, links) -> "RiskNetwork":
        """Assemble from Node iterables and (source, target, weight) triples.

        Duplicate ids/links and links touching unknown nodes are hard errors;
        semantic problems (extra roots, bad ranges...) are left for
        validate_hierarchy so they can be reported rather than raised.
        """
        node_map: dict[str, Node] = {}
        for node in nodes:
            if node.id in node_map:
                raise ValueError(f"duplicate node id {node.id!r}")
            node_map[node.id] = node
        link_map: dict[tuple[str, str], float] = {}
        for source, target, weight in links:
            key = (source, target)
            if key in link_map:
                raise ValueError(f"duplicate link {source!r} -> {target!r}")
            if source not in node_map or target not in node_map:
                raise ValueError(f"link {source!r} -> {target!r} references unknown node")
            link_map[key] = float(weight)
        return cls(node_map, link_map)

    def root(self) -> Node:
        roots = [n for n in self.nodes.values() if n.level == 0]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one level-0 node, found {len(roots)}")
        return roots[0]

    def weight(self, source: str, target: str) -> float:
        return self.links.get((source, target), 0.0)

    @cached_property
    def link_table(self) -> np.ndarray:
        """``[s, t]``: the index in ``sorted(links)`` of the link from node s
        to node t, by position in ``sorted(nodes)``, else ``len(links)``, as on
        the extra last row and column that ``PATH_PAD`` picks.  Built once, on
        first use, so ``links`` must not change afterwards."""
        position = {nid: i for i, nid in enumerate(sorted(self.nodes))}
        table = np.full((len(position) + 1,) * 2, len(self.links))
        for index, (source, target) in enumerate(sorted(self.links)):
            table[position[source], position[target]] = index
        table.flags.writeable = False  # every caller shares the cached table
        return table

    def in_links(self, node_id: str) -> list[tuple[str, float]]:
        """Incoming links sorted by source id, zero-weight and self-links
        included, from the node's ``link_table`` column; a new list, [] if unknown."""
        if node_id not in self.nodes:
            return []
        ids = sorted(self.nodes)
        column = self.link_table[:-1, ids.index(node_id)]
        return [(ids[s], self.links[ids[s], node_id])
                for s in np.flatnonzero(column < len(self.links)).tolist()]

    def risk_of(self, node_id: str) -> float:
        value = self.nodes[node_id].risk_value
        if value is None:
            raise ValueError(f"node {node_id!r} carries no risk value")
        return value

    def with_risk_values(self, values: dict[str, float]) -> "RiskNetwork":
        """Copy of the network with risk values replaced where given."""
        replaced = {
            nid: (
                Node(n.id, n.level, n.parent_id, float(values[nid]), n.self_exposure)
                if nid in values
                else n
            )
            for nid, n in self.nodes.items()
        }
        return RiskNetwork(replaced, dict(self.links))


@dataclass(frozen=True)
class NetworkSnapshot:
    """A network observed at one quarter; a series shares one structure."""

    date: int
    network: RiskNetwork


def _none_if_nan(x: float) -> float | None:
    """A level or exposure read back from an array, where NaN marks none."""
    return None if x != x else x


@dataclass(frozen=True, eq=False)
class NetworkSeries:
    """A snapshot series over one fixed structure, held as arrays.

    The structure is kept once: node ids in sorted order with their levels
    and parents, and the sorted (source, target) link keys.  Per date there
    are the link weights ``W`` (dates x links), and the risk levels ``X`` and
    self exposures (dates x nodes, NaN where a node has none).

    Indexing and iterating build each ``NetworkSnapshot`` anew from the
    arrays, nodes and links in sorted order.
    """

    dates: tuple[int, ...]
    node_ids: tuple[str, ...]
    levels: tuple[int, ...]
    parents: tuple[str | None, ...]
    link_keys: tuple[tuple[str, str], ...]
    W: np.ndarray
    X: np.ndarray
    exposure: np.ndarray

    @classmethod
    def from_snapshots(cls, snapshots) -> "NetworkSeries":
        """The series of a non-empty snapshot list, dates in list order.

        Raises StructuralDriftError, naming the quarter of the first snapshot
        whose node ids, levels, parents or link keys differ from the first's.
        """
        snaps = tuple(snapshots)
        if not snaps:
            raise ValueError("a series needs at least one snapshot")
        first = snaps[0].network
        shape = {nid: (n.level, n.parent_id) for nid, n in first.nodes.items()}
        for snap in snaps[1:]:
            net = snap.network
            if (net.links.keys() != first.links.keys()
                    or {nid: (n.level, n.parent_id) for nid, n in net.nodes.items()} != shape):
                raise StructuralDriftError(
                    f"snapshot {quarter_label(snap.date)} does not share the series structure"
                )
        node_ids, link_keys = tuple(sorted(first.nodes)), tuple(sorted(first.links))
        nodes = [list(map(s.network.nodes.__getitem__, node_ids)) for s in snaps]

        def table(rows, width):  # dates x width; None becomes NaN
            return np.array(rows, dtype=float).reshape(len(snaps), width)

        return cls(
            dates=tuple(s.date for s in snaps),
            node_ids=node_ids,
            levels=tuple(first.nodes[nid].level for nid in node_ids),
            parents=tuple(first.nodes[nid].parent_id for nid in node_ids),
            link_keys=link_keys,
            W=table([list(map(s.network.links.__getitem__, link_keys)) for s in snaps],
                    len(link_keys)),
            X=table([[n.risk_value for n in row] for row in nodes], len(node_ids)),
            exposure=table([[n.self_exposure for n in row] for row in nodes], len(node_ids)),
        )

    @cached_property
    def known(self) -> np.ndarray:
        """Dates x nodes: whether the node carries a risk level."""
        return ~np.isnan(self.X)

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, index: int) -> NetworkSnapshot:
        d = range(len(self.dates))[index]
        nodes = {
            nid: Node(nid, level, parent, _none_if_nan(risk), _none_if_nan(exposure))
            for nid, level, parent, risk, exposure in zip(
                self.node_ids, self.levels, self.parents,
                self.X[d].tolist(), self.exposure[d].tolist(),
            )
        }
        links = dict(zip(self.link_keys, self.W[d].tolist()))
        return NetworkSnapshot(self.dates[d], RiskNetwork(nodes, links))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.dates)))

    def with_probabilities(self, cells) -> "NetworkSeries":
        """Risk levels of the non-root nodes replaced by ``(entity, quarter,
        p)`` cells; dates missing a probability for any such node are dropped."""
        row = {date: d for d, date in enumerate(self.dates)}
        valued = [i for i, level in enumerate(self.levels) if level > 0]
        col = {self.node_ids[i]: j for j, i in enumerate(valued)}
        probs = np.zeros((len(self.dates), len(valued)))
        given = np.zeros(probs.shape, dtype=bool)
        dated = np.zeros(len(self.dates), dtype=bool)
        for entity, quarter, p in cells:
            d = row.get(quarter)
            if d is None:
                continue
            dated[d] = True
            j = col.get(entity)
            if j is not None:
                probs[d, j] = p
                given[d, j] = True
        keep = dated & given.all(axis=1)
        if not keep.any():
            raise RiskRankError("no snapshot date is fully covered by the probability series")
        X = self.X[keep]
        X[:, valued] = probs[keep]
        return replace(
            self, dates=tuple(compress(self.dates, keep.tolist())), W=self.W[keep], X=X,
            exposure=self.exposure[keep],
        )


def validate_hierarchy(net: RiskNetwork) -> ValidationReport:
    """Report root uniqueness, level/parent consistency, value ranges and
    links that escape their sibling group."""
    violations: list[str] = []
    roots = [n for n in net.nodes.values() if n.level == 0]
    if len(roots) != 1:
        violations.append(f"hierarchy: found {len(roots)} level-0 nodes, expected 1")
    for node in sorted(net.nodes.values(), key=lambda n: n.id):
        if node.level < 0:
            violations.append(f"hierarchy: node {node.id} has negative level")
        if node.level == 0:
            if node.risk_value is not None:
                violations.append(f"hierarchy: root {node.id} must not carry a risk value")
            if node.parent_id is not None:
                violations.append(f"hierarchy: root {node.id} must not have a parent")
            continue
        if node.risk_value is None:
            violations.append(f"range: node {node.id} lacks a risk value")
        elif not 0.0 <= node.risk_value <= 1.0:
            violations.append(
                f"range: node {node.id} risk value {node.risk_value:.6g} outside [0,1]"
            )
        if node.self_exposure is not None and node.self_exposure < 0.0:
            violations.append(f"range: node {node.id} self exposure negative")
        if node.parent_id is None:
            violations.append(f"hierarchy: node {node.id} at level {node.level} has no parent")
        elif node.parent_id not in net.nodes:
            violations.append(f"hierarchy: node {node.id} parent {node.parent_id} unknown")
        elif net.nodes[node.parent_id].level != node.level - 1:
            violations.append(
                f"hierarchy: node {node.id} at level {node.level} has parent "
                f"{node.parent_id} at level {net.nodes[node.parent_id].level}"
            )
    for (source, target), weight in sorted(net.links.items()):
        if weight < 0.0:
            violations.append(f"range: link {source} -> {target} weight negative")
        if source == target:
            violations.append(
                f"structure: self-link on {source}; self-exposure belongs on the node"
            )
            continue
        src, dst = net.nodes[source], net.nodes[target]
        is_parent_link = src.parent_id == target
        is_sibling_link = (
            src.parent_id is not None
            and src.parent_id == dst.parent_id
            and src.level == dst.level
        )
        if not (is_parent_link or is_sibling_link):
            violations.append(
                f"structure: link {source} -> {target} leaves its sibling group"
            )
    return ValidationReport(tuple(violations))


PATH_PAD = -1  # fills short k_paths rows; as an index it picks a last column


def k_paths(net: RiskNetwork, target: str, k: int) -> np.ndarray:
    """All simple directed paths of length 1..k ending at ``target``.

    One row per path: positions in ``sorted(net.nodes)`` from the target
    back to the path start, right-padded with ``PATH_PAD`` to k + 1 columns.
    Rows grow one link at a time; a row that repeats a node (a self-link
    too) is dropped.  Zero-weight links count.  Rows are sorted by (length,
    node sequence from the start).
    """
    if k < 1:
        raise ValueError("path length bound k must be >= 1")
    if target not in net.nodes:
        raise ValueError(f"unknown node {target!r}")
    # into[t, s]: whether the link s -> t exists, by node position
    into = (net.link_table[:-1, :-1] < len(net.links)).T
    grown = np.array([[sorted(net.nodes).index(target)]], dtype=np.intp)
    classes = []
    for length in range(1, k + 1):
        row, source = np.nonzero(into[grown[:, -1]])
        grown = np.column_stack([grown[row], source])
        grown = grown[(grown[:, :-1] != source[:, None]).all(axis=1)]
        # lexsort keys on the last column first: the path start
        grown = grown[np.lexsort(grown.T)]
        classes.append(np.pad(grown, ((0, 0), (0, k - length)), constant_values=PATH_PAD))
    return np.concatenate(classes)


@dataclass(frozen=True)
class CapacityBuild:
    """Normalized capacity over a target's two-step in-neighborhood.

    ``elements`` maps capacity indices to node ids; ``raw_mass`` is the
    pre-normalization total.
    """

    capacity: TwoAdditiveCapacity
    elements: tuple[str, ...]
    raw_mass: float


def build_capacity(net: RiskNetwork, target: str) -> CapacityBuild:
    """Construct the 2-additive capacity used to aggregate risk at ``target``.

    The ground set is the two-step in-neighborhood, the masses are those of
    the paths of length at most two into the target (self-links skipped, as
    in ``k_paths``), normalized to one; a target with no incoming mass has no
    capacity.
    """
    if target not in net.nodes:
        raise ValueError(f"unknown node {target!r}")
    ids = sorted(net.nodes)
    t = ids.index(target)
    # W[a, b]: the weight of the link a -> b by node position, 0.0 if none
    W = np.array([*map(net.links.__getitem__, sorted(net.links)), 0.0])[net.link_table]
    direct = net.link_table[:, t] < len(net.links)
    # in-neighbours and the sources of links into them, the target left out;
    # a self-link on t adds only t's in-neighbours again
    ground = direct | (net.link_table[:, direct] < len(net.links)).any(axis=1)
    ground[t] = False
    E = np.flatnonzero(ground)
    singles = W[E, t]
    # onward[i, j] = w(e_i -> e_j) * w(e_j -> t): the two-step path e_i -> e_j -> t
    onward = W[np.ix_(E, E)] * singles
    np.fill_diagonal(onward, 0.0)
    pairs = onward.T + onward
    total = float(singles.sum() + pairs.sum() / 2.0)
    if total <= 0.0:  # an empty ground set too
        raise NoCapacityError(f"node {target!r} has no incoming mass")
    raw = TwoAdditiveCapacity(singles, pairs, normalized=False)
    return CapacityBuild(raw.normalize(), tuple(ids[e] for e in E.tolist()), total)
