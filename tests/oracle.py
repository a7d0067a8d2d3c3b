"""Reference scoring operators, kept as the test oracle for the engine.

These are the per-snapshot operators the engine replaced.  At k = 2 the root
and node operators evaluate the score in Shapley/interaction form from the
2-additive capacity that ``build_capacity`` assembles,

    score = sum_i (v_i - 0.5 * sum_j I_ij) x_i + sum_{i<j} I_ij x_i x_j,

and the path operator walks ``k_paths`` one hit at a time.  ``oracle_for``
dispatches between them the way the package did: base operators at k = 2,
the path operator otherwise.

``root_node``, ``weight`` and ``risk_of`` are the ``RiskNetwork`` methods
those operators read a snapshot with; no package code used them after the
engine moved to the series' arrays.

``validate_hierarchy`` is the per-snapshot hierarchy check that the
package's series check replaced: it checks one network's structure, its
risk levels and its value ranges, and ``validate`` ran it on every date.
It is the specification of the series check, which must print the same
lines, led by each date's quarter.  Its range rules (a negative level, a
risk value outside [0,1], a negative self exposure or weight) have no
counterpart there, because the reader refuses such values.

``build_capacity`` here is the two-mode capacity builder those operators
used, with its ``CapacityBuild`` and ``default_self_exposure``.  In root
mode its masses are normalized to total one.  Central mode, which only the
Shapley node operator uses, additionally gives the target itself a
self-exposure singleton (interactions with the target stay zero) and leaves
the masses raw for the caller to weight.  Unlike the package's builder, it
takes a self-link on the target into the ground set.

``k_paths`` is the recursive path enumerator that the numpy one replaced:
it walks ``in_links`` backwards from the target and returns one ``PathHit``
(node tuple from the start, weight product) per path, sorted by (length,
node sequence).

``roc_auc`` and ``optimal_threshold`` are the evaluation routines the single
sorted sweep replaced: a descending sweep for AUC, and a full binarize and
recount of the series at every distinct probability for the threshold.
``loss`` and ``usefulness`` are the scalar scorers of one contingency matrix
that the array scoring of the sweep replaced; the threshold oracle uses them.
``label_precrisis`` is the panel labeller that ``label_cells`` replaced, one
vectorised pass per crisis episode over the quarter grid.

``read_nodes_links`` is the network reader that building each date's maps
in its row loops replaced: it collects node and link rows per date and
validates each date through ``RiskNetwork.build``, so duplicates are found
after every row has been read.  ``assert_same_structure`` is the structure
check it called, which sorted every snapshot's nodes and links into one key;
like the package's check, it names a drifting snapshot by its quarter.
``ScanNetwork`` answers ``in_links`` by scanning every link, as the network
did before its by-target index; ``k_paths`` on it walks the scan.
``_rows`` is the row source that reader used: it checks a fixed header when
given one and leaves the cell count of each row to its caller.
``_parse_quarter`` and ``_parse_float`` are the cell parsers it called with
each row's file and line, before the package's row source located its own
problems.

``_Series`` is the engine's container that ``NetworkSeries`` replaced: it
rebuilt the dates x links weights and dates x nodes levels from each
snapshot's dicts on every scoring call.  It is kept as it was, except that
it calls the package's ``k_paths`` as ``path_rows``, because ``k_paths``
here is the recursive enumerator, and that it checks no failures: its
callers score only targets that ``riskrank_kpath`` scores on every date.
``snapshots_with_probabilities`` is the probability override that the
series' column assignment and row filter replaced: it copied every kept
network with new risk values.

``write_nodes_csv`` and ``write_links_csv`` are the network writers that
reading the series' columns replaced: they walk the snapshots they are
given, sorting each one's nodes and links.  ``shapley`` and
``interaction_index`` are the two index loops that the package's one
interaction routine of orders 1 and 2 replaced.

The ``rows_write_*`` functions are the package's eight writers as they were
before they built their lines as text: each sends one list of cells per row
through ``csv.writer`` in ``_write``, and formats each float with ``fmt``
(an f-string with 10 significant digits, ``-`` for None) or ``_cell`` (empty
for NaN).  The network writers above use the same ``_write`` and ``fmt``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from riskrank.capacity import FuzzyMeasure, TwoAdditiveCapacity, ValidationReport
from riskrank.early_warning import CrisisEvents, IndicatorPanel
from riskrank.engine import (
    RiskDecomposition,
    RiskRankConfig,
    _product,
    _running_total,
)
from riskrank.errors import NoCapacityError, RiskRankError, SchemaError, StructuralDriftError
from riskrank.evaluation import ContingencyMatrix, binarize, contingency, error_rates
from riskrank.io import (
    DECOMP_HEADER,
    EVAL_HEADER,
    EVENTS_HEADER,
    LINKS_HEADER,
    NODES_HEADER,
    PROBS_HEADER,
)
from riskrank.network import PATH_PAD, NetworkSeries, NetworkSnapshot, Node, RiskNetwork
from riskrank.network import k_paths as path_rows
from riskrank.quarters import quarter_index, quarter_label


def root_node(net: RiskNetwork) -> Node:
    roots = [n for n in net.nodes.values() if n.level == 0]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one level-0 node, found {len(roots)}")
    return roots[0]


def weight(net: RiskNetwork, source: str, target: str) -> float:
    return net.links.get((source, target), 0.0)


def risk_of(net: RiskNetwork, node_id: str) -> float:
    value = net.nodes[node_id].risk_value
    if value is None:
        raise ValueError(f"node {node_id!r} carries no risk value")
    return value


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


@dataclass(frozen=True)
class CapacityBuild:
    """Capacity over a target's two-step in-neighborhood.

    ``elements`` maps capacity indices to node ids; in central mode the target
    itself is the last element.  ``raw_mass`` is the pre-normalization total.
    """

    capacity: TwoAdditiveCapacity
    elements: tuple[str, ...]
    target: str
    mode: str
    raw_mass: float

    def index_of(self, node_id: str) -> int:
        return self.elements.index(node_id)


def default_self_exposure(net: RiskNetwork, node_id: str) -> float:
    """Fallback self-loop weight: incoming weight total capped at one.

    This keeps the old rule, which counts a self-link on the node as an
    in-link; the engine skips it.  No oracle comparison gives the node a
    self-link, so the two rules never meet.
    """
    node = net.nodes[node_id]
    if node.self_exposure is not None:
        return node.self_exposure
    return min(sum(w for _, w in net.in_links(node_id)), 1.0)


def build_capacity(net: RiskNetwork, target: str, mode: str = "root") -> CapacityBuild:
    """Construct the 2-additive capacity used to aggregate risk at ``target``.

    mode "root": ground set is the two-step in-neighborhood, masses normalized
    to one; a target with no incoming mass has no capacity.  mode "central":
    the target joins the ground set with its self-exposure as singleton mass
    and zero interactions, and the masses are left unnormalized.
    """
    if mode not in ("root", "central"):
        raise ValueError(f"unknown capacity mode {mode!r}")
    if target not in net.nodes:
        raise ValueError(f"unknown node {target!r}")
    direct = dict(net.in_links(target))
    reach2 = set(direct)
    for mid in direct:
        for source, _ in net.in_links(mid):
            if source != target:
                reach2.add(source)
    elements = sorted(reach2)
    if mode == "central":
        elements.append(target)
    n = len(elements)
    if n == 0:
        raise NoCapacityError(f"node {target!r} has no incoming links")
    singles = np.zeros(n)
    pairs = np.zeros((n, n))
    for i, nid in enumerate(elements):
        if nid == target:
            singles[i] = default_self_exposure(net, target)
        else:
            singles[i] = direct.get(nid, 0.0)
    neighbor_count = n - 1 if mode == "central" else n
    for i in range(neighbor_count):
        for j in range(i + 1, neighbor_count):
            a, b = elements[i], elements[j]
            mass = weight(net, b, a) * direct.get(a, 0.0) + weight(net, a, b) * direct.get(b, 0.0)
            pairs[i, j] = pairs[j, i] = mass
    raw = TwoAdditiveCapacity(singles, pairs, normalized=False)
    total = raw.total_mass
    if mode == "root":
        if total <= 0.0:
            raise NoCapacityError(f"node {target!r} has no incoming mass")
        return CapacityBuild(raw.normalize(), tuple(elements), target, mode, total)
    return CapacityBuild(raw, tuple(elements), target, mode, total)


@dataclass(frozen=True)
class PathHit:
    """A simple directed path ending at the target, with its weight product."""

    nodes: tuple[str, ...]
    weight: float

    @property
    def length(self) -> int:
        return len(self.nodes) - 1


def k_paths(net: RiskNetwork, target: str, k: int) -> list[PathHit]:
    """All simple directed paths of length 1..k ending at ``target``.

    Enumeration walks incoming links backwards from the target; nodes never
    repeat.  Zero-weight links are structural and appear with weight-product
    zero.  Results are sorted by (length, node sequence).
    """
    if k < 1:
        raise ValueError("path length bound k must be >= 1")
    if target not in net.nodes:
        raise ValueError(f"unknown node {target!r}")
    hits: list[PathHit] = []

    def extend(path: tuple[str, ...], product: float) -> None:
        if len(path) - 1 >= k:
            return
        for source, weight in net.in_links(path[0]):
            if source in path:
                continue
            grown = (source,) + path
            hits.append(PathHit(grown, product * weight))
            extend(grown, product * weight)

    extend((target,), 1.0)
    hits.sort(key=lambda h: (h.length, h.nodes))
    return hits


def _finish(target: str, individual: float, direct: float, indirect: float,
            clamp: bool) -> RiskDecomposition:
    total_raw = individual + direct + indirect
    total = min(total_raw, 1.0) if clamp else total_raw
    return RiskDecomposition(target, individual, direct, indirect, total_raw, total)


def _pairwise_parts(capacity, x: np.ndarray) -> tuple[float, float]:
    """Direct and indirect sums from Shapley values and interactions."""
    v = capacity.shapley_values()
    inter = capacity.pairs
    direct = float(np.sum((v - 0.5 * inter.sum(axis=1)) * x))
    indirect = 0.5 * float(x @ inter @ x)
    return direct, indirect


def riskrank_root(snapshot: NetworkSnapshot) -> RiskDecomposition:
    """Systemic score at the root; no individual term, normalized capacity."""
    net = snapshot.network
    root = root_node(net)
    build = build_capacity(net, root.id, mode="root")
    x = np.array([risk_of(net, nid) for nid in build.elements])
    direct, indirect = _pairwise_parts(build.capacity, x)
    return _finish(root.id, 0.0, direct, indirect, clamp=True)


def riskrank_node(snapshot: NetworkSnapshot, target: str,
                  cfg: RiskRankConfig = RiskRankConfig()) -> RiskDecomposition:
    """Score for a non-root node, self-loop included per the configured mode."""
    net = snapshot.network
    node = net.nodes.get(target)
    if node is None:
        raise ValueError(f"unknown node {target!r}")
    if node.level == 0:
        raise ValueError("target is the root; use riskrank_root")
    x_c = risk_of(net, target)

    if cfg.central_weight_mode == "unit":
        individual = x_c
        try:
            build = build_capacity(net, target, mode="root")
        except NoCapacityError:
            return _finish(target, individual, 0.0, 0.0, cfg.clamp)
        x = np.array([risk_of(net, nid) for nid in build.elements])
        direct, indirect = _pairwise_parts(build.capacity, x)
        return _finish(target, individual, direct, indirect, cfg.clamp)

    build = build_capacity(net, target, mode="central")
    if build.raw_mass <= 0.0:
        raise NoCapacityError(
            f"node {target!r} has no incoming mass or self exposure"
        )
    capacity = build.capacity.normalize()
    x = np.array([
        x_c if nid == target else risk_of(net, nid) for nid in build.elements
    ])
    v = capacity.shapley_values()
    self_idx = build.index_of(target)
    individual = float(v[self_idx] * x_c)
    x_neighbors = x.copy()
    x_neighbors[self_idx] = 0.0
    v_masked = v.copy()
    v_masked[self_idx] = 0.0
    inter = capacity.pairs
    direct = float(np.sum((v_masked - 0.5 * inter.sum(axis=1)) * x_neighbors))
    indirect = 0.5 * float(x_neighbors @ inter @ x_neighbors)
    return _finish(target, individual, direct, indirect, cfg.clamp)


def riskrank_kpath(snapshot: NetworkSnapshot, target: str,
                   cfg: RiskRankConfig = RiskRankConfig()) -> RiskDecomposition:
    """Path-based generalization: simple paths up to length k carry mass equal
    to the product of their link weights and value equal to the product of the
    risk levels of the nodes they pass through.  k = 2 reproduces the base
    operators exactly; k = 1 keeps direct effects only.
    """
    k = cfg.max_path_length
    net = snapshot.network
    node = net.nodes.get(target)
    if node is None:
        raise ValueError(f"unknown node {target!r}")
    is_root = node.level == 0
    paths = k_paths(net, target, k)
    masses = np.array([p.weight for p in paths]) if paths else np.zeros(0)
    path_mass = float(masses.sum())

    self_mass = 0.0
    if not is_root and cfg.central_weight_mode == "shapley":
        self_mass = default_self_exposure(net, target)
    z = path_mass + self_mass

    if z <= 0.0:
        if is_root:
            raise NoCapacityError(f"node {target!r} has no incoming mass")
        if cfg.central_weight_mode == "shapley":
            raise NoCapacityError(
                f"node {target!r} has no incoming mass or self exposure"
            )
        return _finish(target, risk_of(net, target), 0.0, 0.0, cfg.clamp)

    if is_root:
        individual = 0.0
        clamp = True
    elif cfg.central_weight_mode == "unit":
        # self term bypasses the normalizer: z is the path mass alone
        individual = risk_of(net, target)
        clamp = cfg.clamp
    else:
        individual = (self_mass / z) * risk_of(net, target)
        clamp = cfg.clamp

    direct = 0.0
    indirect = 0.0
    for hit in paths:
        value = hit.weight * math.prod(risk_of(net, nid) for nid in hit.nodes[:-1])
        if hit.length == 1:
            direct += value / z
        else:
            indirect += value / z
    return _finish(target, individual, direct, indirect, clamp)


def oracle_for(snapshot: NetworkSnapshot, target: str,
               cfg: RiskRankConfig = RiskRankConfig()) -> RiskDecomposition:
    """Dispatch to the base operators at k = 2, the path variant otherwise."""
    is_root = target in snapshot.network.nodes and snapshot.network.nodes[target].level == 0
    if cfg.max_path_length == 2:
        return riskrank_root(snapshot) if is_root else riskrank_node(snapshot, target, cfg)
    return riskrank_kpath(snapshot, target, cfg)


def roc_auc(probs, labels) -> float:
    """Area under the ROC curve via a descending threshold sweep."""
    p = np.asarray(probs, dtype=float)
    y = np.asarray(labels)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError("probs and labels must be equal-length vectors")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(-p, kind="stable")
    p_sorted, y_sorted = p[order], y[order]
    tp = np.cumsum(y_sorted == 1)
    fp = np.cumsum(y_sorted == 0)
    # keep one operating point per distinct score (ties move together)
    last_of_group = np.append(p_sorted[1:] != p_sorted[:-1], True)
    tpr = np.concatenate([[0.0], tp[last_of_group] / n_pos])
    fpr = np.concatenate([[0.0], fp[last_of_group] / n_neg])
    return float(np.trapezoid(tpr, fpr))


def loss(cm: ContingencyMatrix, mu_pref: float) -> float:
    """Preference-weighted loss; an undefined rate has prior zero and drops out."""
    if not 0.0 <= mu_pref <= 1.0:
        raise ValueError("preference must lie in [0,1]")
    t1, t2 = error_rates(cm)
    term1 = mu_pref * t1 * cm.p1 if t1 is not None else 0.0
    term2 = (1.0 - mu_pref) * t2 * cm.p2 if t2 is not None else 0.0
    return term1 + term2


def usefulness(cm: ContingencyMatrix, mu_pref: float) -> tuple[float, float]:
    """(U_a, U_r).  When the best unconditional guess already achieves zero
    loss (mu_pref at the boundary), U_r is reported as zero."""
    best_guess = min(mu_pref * cm.p1, (1.0 - mu_pref) * cm.p2)
    u_a = best_guess - loss(cm, mu_pref)
    u_r = u_a / best_guess if best_guess > 0.0 else 0.0
    return u_a, u_r


def optimal_threshold(probs, labels, mu_pref: float, mask=None) -> float:
    """Threshold from the grid of observed probabilities maximizing U_a,
    ties resolved toward the smaller value."""
    p = np.asarray(probs, dtype=float)
    y = np.asarray(labels)
    keep = np.ones(p.shape, dtype=bool) if mask is None else ~np.asarray(mask, dtype=bool)
    p, y = p[keep], y[keep]
    if np.unique(y).size < 2:
        raise ValueError("threshold selection needs both classes present")
    best_tau = None
    best_ua = -np.inf
    for tau in np.unique(p):
        cm = contingency(binarize(p, float(tau)), y)
        u_a, _ = usefulness(cm, mu_pref)
        if u_a > best_ua + 1e-15:
            best_ua, best_tau = u_a, float(tau)
    return best_tau


def label_precrisis(events: CrisisEvents, panel: IndicatorPanel, h1: int, h2: int):
    """Label one within [start - h2, start - h1]; mask crisis quarters.
    Returns the (labels, excluded) entity x quarter grids."""
    if not 1 <= h1 <= h2:
        raise ValueError("horizon must satisfy 1 <= h1 <= h2")
    nq = len(panel.quarters)
    qarr = np.asarray(panel.quarters)
    labels = np.zeros((len(panel.entities), nq), dtype=np.int8)
    excluded = np.zeros((len(panel.entities), nq), dtype=bool)
    for ei, entity in enumerate(panel.entities):
        for event in events.for_entity(entity):
            pre = (qarr >= event.start - h2) & (qarr <= event.start - h1)
            labels[ei, pre] = 1
            inside = (qarr >= event.start) & (qarr <= event.last_quarter)
            excluded[ei, inside] = True
    labels[excluded] = 0
    return labels, excluded


class ScanNetwork(RiskNetwork):
    """A network whose ``in_links`` scans every link on every call."""

    def in_links(self, node_id: str) -> list[tuple[str, float]]:
        """Incoming links sorted by source id (zero-weight links included)."""
        found = [
            (s, w) for (s, t), w in self.links.items() if t == node_id
        ]
        found.sort()
        return found


def _structure_key(net: RiskNetwork):
    node_part = tuple(
        sorted((n.id, n.level, n.parent_id) for n in net.nodes.values())
    )
    return node_part, tuple(sorted(net.links))


def assert_same_structure(snapshots) -> None:
    """Raise StructuralDriftError unless all snapshots share one structure."""
    snaps = list(snapshots)
    if not snaps:
        return
    reference = _structure_key(snaps[0].network)
    for snap in snaps[1:]:
        if _structure_key(snap.network) != reference:
            raise StructuralDriftError(
                f"snapshot {quarter_label(snap.date)} does not share the series structure"
            )


def _parse_quarter(path: Path, line: int, text: str) -> int:
    try:
        return quarter_index(text)
    except ValueError as exc:
        raise SchemaError(path, line, str(exc)) from None


def _parse_float(path: Path, line: int, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(path, line, f"bad {what} {text!r}") from None
    if not math.isfinite(value):
        raise SchemaError(path, line, f"non-finite {what} {text!r}")
    return value


def _rows(path: Path, expected_header: list[str] | None = None):
    """Yield (line_number, row) pairs after checking the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(path, 1, "missing header row") from None
        if expected_header is not None and header != expected_header:
            raise SchemaError(
                path, 1, f"header {header} != expected {expected_header}"
            )
        for row in reader:
            if not row:
                continue
            yield reader.line_num, row, header


def read_nodes_links(nodes_path, links_path) -> list[NetworkSnapshot]:
    """Parse a snapshot series; all dates must share one structure."""
    nodes_path, links_path = Path(nodes_path), Path(links_path)
    per_date_nodes: dict[int, list[Node]] = {}
    for line, row, _ in _rows(nodes_path, NODES_HEADER):
        if len(row) != len(NODES_HEADER):
            raise SchemaError(nodes_path, line, f"expected {len(NODES_HEADER)} columns")
        date = _parse_quarter(nodes_path, line, row[0])
        node_id = row[1].strip()
        if not node_id:
            raise SchemaError(nodes_path, line, "empty node_id")
        try:
            level = int(row[2])
        except ValueError:
            raise SchemaError(nodes_path, line, f"bad level {row[2]!r}") from None
        if level < 0:
            raise SchemaError(nodes_path, line, "level must be >= 0")
        parent = row[3].strip() or None
        risk = None
        if row[4].strip():
            risk = _parse_float(nodes_path, line, row[4], "risk_value")
            if not 0.0 <= risk <= 1.0:
                raise SchemaError(nodes_path, line, f"risk_value {risk} outside [0,1]")
        exposure = None
        if row[5].strip():
            exposure = _parse_float(nodes_path, line, row[5], "self_exposure")
            if exposure < 0.0:
                raise SchemaError(nodes_path, line, "self_exposure must be >= 0")
        per_date_nodes.setdefault(date, []).append(
            Node(node_id, level, parent, risk, exposure)
        )
    if not per_date_nodes:
        raise SchemaError(nodes_path, 2, "no node rows")

    ids_by_date = {date: {n.id for n in nodes} for date, nodes in per_date_nodes.items()}
    per_date_links: dict[int, list[tuple[str, str, float]]] = {}
    for line, row, _ in _rows(links_path, LINKS_HEADER):
        if len(row) != len(LINKS_HEADER):
            raise SchemaError(links_path, line, f"expected {len(LINKS_HEADER)} columns")
        date = _parse_quarter(links_path, line, row[0])
        known = ids_by_date.get(date)
        if known is None:
            raise SchemaError(links_path, line, f"link date {row[0]} has no node rows")
        source, target = row[1].strip(), row[2].strip()
        if source not in known or target not in known:
            raise SchemaError(links_path, line, f"unknown entity in link {source}->{target}")
        weight = _parse_float(links_path, line, row[3], "weight")
        if weight < 0.0:
            raise SchemaError(links_path, line, "weight must be >= 0")
        per_date_links.setdefault(date, []).append((source, target, weight))

    snapshots = []
    for date in sorted(per_date_nodes):
        try:
            net = RiskNetwork.build(per_date_nodes[date], per_date_links.get(date, []))
        except ValueError as exc:
            raise SchemaError(nodes_path, 0, f"date {quarter_label(date)}: {exc}") from None
        snapshots.append(NetworkSnapshot(date, net))
    assert_same_structure(snapshots)
    return snapshots


class _Series:
    """A fixed-structure snapshot series as dates x columns arrays.

    Nodes and links are columns in sorted order; ``weights`` and ``risks``
    end in a column of ones that padded path entries point at.
    """

    def __init__(self, snaps: list[NetworkSnapshot]):
        self.snaps = snaps
        self.network = snaps[0].network
        self.node_ids = sorted(self.network.nodes)
        self.link_keys = sorted(self.network.links)
        self.node_col = {nid: i for i, nid in enumerate(self.node_ids)}
        # a link's column by (source, target) position, else the ones column
        size = len(self.node_ids) + 1  # PATH_PAD picks the extra row and column
        self.link_pos = np.full((size, size), len(self.link_keys))
        for col, (source, dst) in enumerate(self.link_keys):
            self.link_pos[self.node_col[source], self.node_col[dst]] = col
        levels = [
            [snap.network.nodes[nid].risk_value for nid in self.node_ids]
            for snap in snaps
        ]
        self.known = np.array(
            [[x is not None for x in row] for row in levels], dtype=bool
        ).reshape(len(snaps), len(self.node_ids))
        self.risks = np.array(
            [[np.nan if x is None else x for x in row] + [1.0] for row in levels]
        )
        self.weights = np.array(
            [[snap.network.links[key] for key in self.link_keys] + [1.0]
             for snap in snaps]
        )

    def _self_mass(self, target: str) -> np.ndarray:
        """Self exposure per date, else the incoming weight total capped at one."""
        inbound = self.link_pos[:-1, self.node_col[target]]
        inbound = inbound[inbound < len(self.link_keys)]
        fallback = np.minimum(_running_total(self.weights[:, inbound]), 1.0).tolist()
        given = [snap.network.nodes[target].self_exposure for snap in self.snaps]
        return np.array([f if s is None else s for s, f in zip(given, fallback)])

    def score(self, target: str, cfg: RiskRankConfig) -> tuple[np.ndarray, ...]:
        """Individual, direct, indirect, raw and final totals over all dates.

        Checks no failure: callers score only targets that the path operator
        scores on every date.
        """
        is_root = self.network.nodes[target].level == 0
        shapley = not is_root and cfg.central_weight_mode == "shapley"
        rows = path_rows(self.network, target, cfg.max_path_length)
        nodes = rows[:, :0:-1]
        links = self.link_pos[rows[:, 1:], rows[:, :-1]]
        mass = _product(self.weights, links)
        value = mass * _product(self.risks, nodes)
        z = mass.sum(axis=1)
        if shapley:
            self_mass = self._self_mass(target)
            z = z + self_mass
        scored = z > 0.0

        share = value / np.where(scored, z, 1.0)[:, None]
        n_direct = np.count_nonzero((rows[:, 2:] == PATH_PAD).all(axis=1))
        direct = np.where(scored, _running_total(share[:, :n_direct]), 0.0)
        indirect = np.where(scored, _running_total(share[:, n_direct:]), 0.0)
        own_level = self.risks[:, self.node_col[target]]
        if is_root:
            individual = np.zeros(len(self.snaps))
        elif shapley:
            individual = (self_mass / z) * own_level
        else:
            individual = own_level
        total_raw = individual + direct + indirect
        clamp = is_root or cfg.clamp
        total = np.minimum(total_raw, 1.0) if clamp else total_raw
        return individual, direct, indirect, total_raw, total


def snapshots_with_probabilities(snapshots, cells) -> list[NetworkSnapshot]:
    """Override node risk values with ``(entity, quarter, p)`` cells; dates
    missing a probability for any valued node are dropped from the series."""
    by_date: dict[int, dict[str, float]] = {}
    for entity, quarter, p in cells:
        by_date.setdefault(quarter, {})[entity] = p
    out = []
    for snap in snapshots:
        probs = by_date.get(snap.date)
        if probs is None:
            continue
        needed = [nid for nid, node in snap.network.nodes.items() if node.level > 0]
        if any(nid not in probs for nid in needed):
            continue
        out.append(NetworkSnapshot(
            snap.date, snap.network.with_risk_values({nid: probs[nid] for nid in needed})
        ))
    if not out:
        raise RiskRankError("no snapshot date is fully covered by the probability series")
    return out


def write_nodes_csv(path, snapshots) -> None:
    _write(path, NODES_HEADER, (
        [
            quarter_label(snap.date),
            node.id,
            node.level,
            node.parent_id or "",
            fmt(node.risk_value) if node.risk_value is not None else "",
            fmt(node.self_exposure) if node.self_exposure is not None else "",
        ]
        for snap in snapshots
        for _, node in sorted(snap.network.nodes.items())
    ))


def write_links_csv(path, snapshots) -> None:
    _write(path, LINKS_HEADER, (
        [quarter_label(snap.date), source, target, fmt(snap.network.links[(source, target)])]
        for snap in snapshots
        for (source, target) in sorted(snap.network.links)
    ))


def shapley(measure: FuzzyMeasure) -> np.ndarray:
    """Shapley importance vector.

    v_i = sum over K not containing i of
          (n-|K|-1)! |K|! / n! * (mu(K + {i}) - mu(K)).

    Efficiency gives sum(v) = mu(N).
    """
    n = measure.n
    mu = measure.values
    fact = [math.factorial(k) for k in range(n + 1)]
    coef = np.array(
        [fact[n - k - 1] * fact[k] / fact[n] for k in range(n)]
    )
    masks = np.arange(mu.size)
    sizes = np.array([int(m).bit_count() for m in masks])
    v = np.zeros(n)
    for i in range(n):
        bit = 1 << i
        without = masks[masks & bit == 0]
        v[i] = float(np.sum(coef[sizes[without]] * (mu[without | bit] - mu[without])))
    return v


def interaction_index(measure: FuzzyMeasure) -> np.ndarray:
    """Shapley interaction index for every unordered pair, as a symmetric matrix.

    I(i,j) = sum over K avoiding both of
             (n-|K|-2)! |K|! / (n-1)! *
             (mu(K+{i,j}) - mu(K+{i}) - mu(K+{j}) + mu(K)).

    For a 2-additive capacity this recovers the pair Moebius mass exactly.
    """
    n = measure.n
    out = np.zeros((n, n))
    if n < 2:
        return out
    mu = measure.values
    fact = [math.factorial(k) for k in range(n + 1)]
    coef = np.array(
        [fact[n - k - 2] * fact[k] / fact[n - 1] for k in range(n - 1)]
    )
    masks = np.arange(mu.size)
    sizes = np.array([int(m).bit_count() for m in masks])
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            without = masks[(masks & (bi | bj)) == 0]
            delta = (
                mu[without | bi | bj]
                - mu[without | bi]
                - mu[without | bj]
                + mu[without]
            )
            val = float(np.sum(coef[sizes[without]] * delta))
            out[i, j] = out[j, i] = val
    return out


def fmt(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.10g}"


def _cell(value: float) -> str:
    """A float cell; a missing value (NaN) is an empty cell."""
    return "" if value != value else fmt(value)


def _write(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def rows_write_nodes_csv(path, series: NetworkSeries) -> None:
    """Each date's node rows, read from the series' columns."""
    _write(path, NODES_HEADER, (
        [label, node_id, level, parent or "", _cell(risk), _cell(exposure)]
        for label, risks, exposures in zip(
            map(quarter_label, series.dates), series.X, series.exposure)
        for node_id, level, parent, risk, exposure in zip(
            series.node_ids, series.levels, series.parents, risks.tolist(), exposures.tolist())
    ))


def rows_write_links_csv(path, series: NetworkSeries) -> None:
    """Each date's link rows, read from the series' columns; each distinct
    weight is formatted once, keyed by its bits, so -0.0 keeps its sign."""
    texts: dict[int, str] = {}
    _write(path, LINKS_HEADER, (
        [label, source, target, texts.get(b) or texts.setdefault(b, fmt(w))]
        for label, weights in zip(map(quarter_label, series.dates), series.W)
        for (source, target), w, b in zip(
            series.link_keys, weights.tolist(), weights.view(np.int64).tolist())
    ))


def rows_write_indicators(path, panel: IndicatorPanel) -> None:
    """One row per (entity, quarter) with some value, entities then quarters
    in panel order; a missing value (NaN) is an empty cell."""
    _write(path, ["entity", "date", *panel.indicator_names], (
        [entity, quarter_label(quarter), *map(_cell, row)]
        for entity, rows in zip(panel.entities, panel.values.tolist())
        for quarter, row in zip(panel.quarters, rows)
        if any(v == v for v in row)
    ))


def rows_write_events(path, events: CrisisEvents) -> None:
    _write(path, EVENTS_HEADER, (
        [
            event.entity,
            quarter_label(event.start),
            quarter_label(event.end) if event.end is not None else "",
        ]
        for event in events.events
    ))


def rows_write_probabilities(path, result) -> None:
    """Backtest output; masked cells are simply absent."""
    _write(path, PROBS_HEADER, (
        [entity, quarter_label(quarter), fmt(p)]
        for entity, row in zip(result.entities, result.probabilities.tolist())
        for quarter, p in zip(result.quarters, row)
        if p == p
    ))


def rows_write_decompositions(path, rows) -> None:
    def body():
        for row in rows:
            d = row.decomposition
            yield [
                quarter_label(row.date), row.target, fmt(d.individual),
                fmt(d.direct), fmt(d.indirect), fmt(d.total_raw), fmt(d.total),
            ]

    _write(path, DECOMP_HEADER, body())


def rows_write_series_long(path, rows) -> None:
    """Tidy component series for external plotting."""
    _write(path, ["date", "target", "component", "value"], (
        [quarter_label(row.date), row.target, component,
         fmt(getattr(row.decomposition, component))]
        for row in rows
        for component in ("individual", "direct", "indirect", "total")
    ))


def rows_write_eval_reports(path, reports) -> None:
    def body():
        for report in reports:
            for row in report.rows:
                m = row.metrics
                yield [
                    report.model, fmt(row.mu_pref), fmt(row.tau),
                    row.cm.tp, row.cm.tn, row.cm.fp, row.cm.fn,
                    fmt(row.t1), fmt(row.t2), fmt(row.loss),
                    fmt(row.u_a), fmt(row.u_r), fmt(report.auc),
                    fmt(m.precision_signal), fmt(m.recall_signal),
                    fmt(m.precision_tranquil), fmt(m.recall_tranquil),
                    fmt(m.accuracy),
                ]

    _write(path, EVAL_HEADER, body())
