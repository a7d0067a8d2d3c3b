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
in-links and the engine's link columns all read one cached adjacency, the
``link_table`` of a network's or a series' sorted node ids and link keys.

A quarterly series observes one structure on every date, so a
``NetworkSeries`` keeps it once, shared by every snapshot view, and the values
as dates x columns arrays, which the network reader fills from its rows; and
``validate_hierarchy`` checks each structural rule once.
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


def _link_table(node_ids, link_keys) -> np.ndarray:
    """``[s, t]``: the index in ``link_keys`` of the link from node s to node
    t, by position in ``node_ids``, else ``len(link_keys)``, as on the extra
    last row and column that ``PATH_PAD`` picks; read-only, as it is shared."""
    position = {nid: i for i, nid in enumerate(node_ids)}
    table = np.full((len(position) + 1,) * 2, len(link_keys))
    for index, (source, target) in enumerate(link_keys):
        table[position[source], position[target]] = index
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class RiskNetwork:
    """Immutable-by-convention container of nodes and directed weighted links."""

    nodes: dict[str, Node]
    links: dict[tuple[str, str], float]

    @classmethod
    def build(cls, nodes, links) -> "RiskNetwork":
        """Assemble from Node iterables and (source, target, weight) triples.

        Duplicate ids/links and links touching unknown nodes are hard errors;
        hierarchy problems (extra roots, wrong parents...) are left for the
        series' validate_hierarchy so they can be reported rather than raised.
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

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def link_keys(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.links))

    @cached_property
    def link_table(self) -> np.ndarray:
        """Built once, on first use: nodes and links must not change afterwards."""
        return _link_table(self.node_ids, self.link_keys)

    def in_links(self, node_id: str) -> list[tuple[str, float]]:
        """Incoming links sorted by source id, zero-weight and self-links
        included, from the node's ``link_table`` column; a new list, [] if unknown."""
        if node_id not in self.nodes:
            return []
        ids = self.node_ids
        column = self.link_table[:-1, ids.index(node_id)]
        return [(ids[s], self.links[ids[s], node_id])
                for s in np.flatnonzero(column < len(self.links)).tolist()]

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


@dataclass(frozen=True, eq=False)
class NetworkSeries:
    """A snapshot series over one fixed structure, held as arrays.

    The structure is kept once: node ids in sorted order with their levels
    and parents, and the sorted (source, target) link keys.  Per date there
    are the link weights ``W`` (dates x links), and the risk levels ``X`` and
    self exposures (dates x nodes, NaN where a node has none).

    Indexing and iterating build each ``NetworkSnapshot`` anew from the
    arrays, nodes and links in sorted order, sharing the series' structure.
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
        """The series of a non-empty snapshot list, dates in list order."""
        return cls.from_dates((s.date, {nid: (n.level, n.parent_id, n.risk_value, n.self_exposure)
                                        for nid, n in s.network.nodes.items()}, s.network.links)
                              for s in snapshots)

    @classmethod
    def from_dates(cls, entries) -> "NetworkSeries":
        """The series of ``(date, nodes, links)`` entries in list order, where
        ``nodes`` maps ids to (level, parent, risk, exposure), None or NaN for
        no value, and ``links`` maps (source, target) keys to weights.

        Every entry is checked for the first's node ids, levels, parents and
        link keys, and StructuralDriftError names the quarter of the first
        that differs; then each is read into ``W``, ``X`` and ``exposure``.
        """
        entries = list(entries)
        if not entries:
            raise ValueError("a series needs at least one snapshot")
        _, first, first_links = entries[0]
        shape = {nid: node[:2] for nid, node in first.items()}
        for date, nodes, links in entries[1:]:
            if (links.keys() != first_links.keys()
                    or {nid: node[:2] for nid, node in nodes.items()} != shape):
                raise StructuralDriftError(
                    f"snapshot {quarter_label(date)} does not share the series structure")
        node_ids, link_keys = tuple(sorted(first)), tuple(sorted(first_links))
        rows = [list(map(nodes.__getitem__, node_ids)) for _, nodes, _ in entries]
        W = np.array([[*map(links.__getitem__, link_keys)] for _, _, links in entries],
                     dtype=float)
        X = np.array([[node[2] for node in row] for row in rows], dtype=float)
        exposure = np.array([[node[3] for node in row] for row in rows], dtype=float)
        return cls(
            dates=tuple(date for date, _, _ in entries),
            node_ids=node_ids,
            levels=tuple(first[nid][0] for nid in node_ids),
            parents=tuple(first[nid][1] for nid in node_ids),
            link_keys=link_keys,
            W=W, X=X, exposure=exposure,
        )

    @cached_property
    def known(self) -> np.ndarray:
        """Dates x nodes: whether the node carries a risk level."""
        return ~np.isnan(self.X)

    @cached_property
    def link_table(self) -> np.ndarray:
        """The structure's ``_link_table``, as ``RiskNetwork.link_table``."""
        return _link_table(self.node_ids, self.link_keys)

    def root(self) -> str:
        """The id of the one level-0 node."""
        roots = [nid for nid, level in zip(self.node_ids, self.levels) if level == 0]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one level-0 node, found {len(roots)}")
        return roots[0]

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, index: int) -> NetworkSnapshot:
        d = range(len(self.dates))[index]
        nodes = {  # NaN, the one value unequal to itself, marks none
            nid: Node(nid, level, parent, risk if risk == risk else None,
                      exposure if exposure == exposure else None)
            for nid, level, parent, risk, exposure in zip(
                self.node_ids, self.levels, self.parents,
                self.X[d].tolist(), self.exposure[d].tolist(),
            )
        }
        net = RiskNetwork(nodes, dict(zip(self.link_keys, self.W[d].tolist())))
        vars(net).update(node_ids=self.node_ids, link_keys=self.link_keys,
                         link_table=self.link_table)
        return NetworkSnapshot(self.dates[d], net)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.dates)))

    def with_probabilities(self, entities, quarters, probabilities) -> "NetworkSeries":
        """Risk levels of the non-root nodes replaced by an entity x quarter
        grid of ``probabilities``, NaN where there is none; a date stays when
        the grid has some probability on its quarter and one for every
        non-root node."""
        valued = [i for i, level in enumerate(self.levels) if level > 0]
        row = {e: i for i, e in enumerate(entities)}
        column = {q: j for j, q in enumerate(quarters)}
        # quarters x entities; -1, a date or node that it lacks, picks the padding's NaN
        grid = np.pad(np.asarray(probabilities, dtype=float).T, (0, 1), constant_values=np.nan)
        dates = [column.get(date, -1) for date in self.dates]
        levels = grid[np.ix_(dates, [row.get(self.node_ids[i], -1) for i in valued])]
        keep = ~np.isnan(grid).all(axis=1)[dates] & ~np.isnan(levels).any(axis=1)
        if not keep.any():
            raise RiskRankError("no snapshot date is fully covered by the probability series")
        X = self.X[keep]
        X[:, valued] = levels[keep]
        return replace(
            self, dates=tuple(compress(self.dates, keep.tolist())), W=self.W[keep], X=X,
            exposure=self.exposure[keep],
        )


def validate_hierarchy(series: NetworkSeries) -> ValidationReport:
    """Hierarchy violations of a series, each line led by its quarter.

    Every date shares the structure, so its rules are checked once: one
    root, without a parent; every other node's parent known and one level
    up; links only to the parent or within the sibling group, none to
    itself.  Whether a node carries a risk level (only non-roots may) is
    checked per date.  A date's lines are the root count, each node by id
    (level line, then parent line), then each link by key.  Value ranges
    are left to the reader, which refuses them.
    """
    level = dict(zip(series.node_ids, series.levels))
    parent = dict(zip(series.node_ids, series.parents))
    roots = series.levels.count(0)
    # (column of the node whose level decides the line, or None for always, line)
    lines = [(None, f"hierarchy: found {roots} level-0 nodes, expected 1")] if roots != 1 else []
    for col, (nid, lvl, par) in enumerate(zip(series.node_ids, series.levels, series.parents)):
        if lvl == 0:
            lines.append((col, f"hierarchy: root {nid} must not carry a risk value"))
            if par is not None:
                lines.append((None, f"hierarchy: root {nid} must not have a parent"))
            continue
        lines.append((col, f"range: node {nid} lacks a risk value"))
        if par is None:
            lines.append((None, f"hierarchy: node {nid} at level {lvl} has no parent"))
        elif par not in level:
            lines.append((None, f"hierarchy: node {nid} parent {par} unknown"))
        elif level[par] != lvl - 1:
            lines.append((None, f"hierarchy: node {nid} at level {lvl} has parent {par} "
                                f"at level {level[par]}"))
    for source, target in series.link_keys:
        if source == target:
            lines.append((None, f"structure: self-link on {source}; "
                                "self-exposure belongs on the node"))
        elif not (parent[source] == target or (
                parent[source] is not None and parent[source] == parent[target]
                and level[source] == level[target])):
            lines.append((None, f"structure: link {source} -> {target} leaves its sibling group"))
    # dates x nodes: a root that carries a level, or another node without one
    flagged = series.known == (np.array(series.levels) == 0)
    structural = any(col is None for col, _ in lines)
    violations = []
    for d in np.flatnonzero(flagged.any(axis=1) | structural).tolist():
        label, row = quarter_label(series.dates[d]), flagged[d].tolist()
        violations += (f"{label}: {line}" for col, line in lines if col is None or row[col])
    return ValidationReport(tuple(violations))


PATH_PAD = -1  # fills short k_paths rows; as an index it picks a last column


def k_paths(net: RiskNetwork | NetworkSeries, target: str, k: int) -> np.ndarray:
    """All simple directed paths of length 1..k ending at ``target``.

    ``net`` is a network or a series: only its structure is read.  One row
    per path: positions in ``net.node_ids`` from the target back to the path
    start, right-padded with ``PATH_PAD`` to k + 1 columns.  Rows grow one
    link at a time; a row that repeats a node (a self-link too) is dropped.
    Zero-weight links count.  Rows are sorted by (length, node sequence from
    the start).
    """
    if k < 1:
        raise ValueError("path length bound k must be >= 1")
    if target not in net.node_ids:
        raise ValueError(f"unknown node {target!r}")
    # into[t, s]: whether the link s -> t exists, by node position
    into = (net.link_table[:-1, :-1] < len(net.link_keys)).T
    grown = np.array([[net.node_ids.index(target)]], dtype=np.intp)
    classes = []
    for _ in range(k):
        row, source = np.nonzero(into[grown[:, -1]])
        grown = np.column_stack([grown[row], source])
        grown = grown[(grown[:, :-1] != source[:, None]).all(axis=1)]
        # lexsort keys on the last column first: the path start
        grown = grown[np.lexsort(grown.T)]
        classes.append(grown)
    out = np.full((sum(map(len, classes)), k + 1), PATH_PAD, dtype=np.intp)
    start = 0
    for rows in classes:
        out[start:start + len(rows), :rows.shape[1]] = rows
        start += len(rows)
    return out


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
    ids = net.node_ids
    t = ids.index(target)
    # W[a, b]: the weight of the link a -> b by node position, 0.0 if none
    W = np.array([*map(net.links.__getitem__, net.link_keys), 0.0])[net.link_table]
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
