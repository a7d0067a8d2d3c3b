"""Interconnected-risk scores over a snapshot series: totals and their decomposition.

The score for a target aggregates risk levels along the simple directed paths
of length at most k that end at it.  A path p = (n_0 -> ... -> n_{L-1} ->
target) carries the mass m_p, the product of its link weights, and the value
m_p * x_{n_0} * ... * x_{n_{L-1}}, so risk spreads along a chain in
proportion to every node level on it.  With z the total path mass,

    direct   = sum over paths of length 1 of value_p / z,
    indirect = sum over longer paths of value_p / z.

The root carries no risk level of its own and its total is always clamped at
one.  A non-root target adds its own level x_c as the individual term:
"unit" mode gives it weight one outside the normalizer (the total is clamped
at one unless clamping is off), "shapley" mode adds its self exposure s (by
default the incoming weight total capped at one; a self-link is never an
in-link) to z and weights x_c by s / z.

At k = 2 the path masses are the Moebius masses of the 2-additive capacity
``build_capacity`` assembles: a_i = l(i, t) and a_ij = l(j, i) l(i, t) +
l(i, j) l(j, t).  This holds on every network, since both skip self-links;
``test_k2_score_equals_capacity_masses_with_self_links`` checks it on
networks with self-links.  The path sum divided by z is therefore the
Moebius form sum_i a_i x_i + sum_{i<j} a_ij x_i x_j of the normalized
capacity, which with Shapley values v_i = a_i + 0.5 sum_j a_ij and
interactions I_ij = a_ij is the Shapley/interaction form

    sum_i (v_i - 0.5 * sum_j I_ij) x_i + sum_{i<j} I_ij x_i x_j

of the 2-additive Choquet integral with its conjunctive min replaced by the
product.  That capacity and the Choquet machinery stay as the specification.
A target that cannot be scored fails the same way at every k, in the order
of the path operator the tests keep: no mass (at the root, or in "shapley"
mode), then its own missing level, then the first path entry lacking one.
That operator checks values and failures at every k; the Shapley-form
operators check values at k = 2.

A ``NetworkSeries`` holds one structure for all dates, so each target's paths
are enumerated once, on the series itself, as ``k_paths`` rows; no snapshot
view is built.  The scoring tables are items x dates: a reversed row gives
node rows of the transposed risk levels X.T from the path start, and the
series' ``link_table``, shared with ``k_paths``, link rows of the transposed
weights W.T from the target outward; ``PATH_PAD`` picks the ones row both
end in.  A gather of whole rows puts each path's dates next to each other,
and a product starts from its first factor.  Every date is then scored at
once, with products and sums in the order of a loop over the paths, so the
numbers do not depend on how many dates are scored together: z is numpy's
pairwise sum of each date's masses, taken from a dates x paths copy, and
the other totals over paths add in order along the slow axis of a paths x
dates block, except a one-date block, whose path axis numpy would sum
pairwise and which therefore goes through ``cumsum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoCapacityError
from .network import PATH_PAD, NetworkSeries, NetworkSnapshot, k_paths

CENTRAL_WEIGHT_MODES = ("unit", "shapley")


@dataclass(frozen=True)
class RiskDecomposition:
    """Individual / direct / indirect split of one target's score."""

    target: str
    individual: float
    direct: float
    indirect: float
    total_raw: float
    total: float


@dataclass(frozen=True)
class RiskRankConfig:
    """Evaluation knobs: self-weight mode, clamping, and path-length bound."""

    central_weight_mode: str = "unit"
    clamp: bool = True
    max_path_length: int = 2

    def __post_init__(self):
        if self.central_weight_mode not in CENTRAL_WEIGHT_MODES:
            raise ValueError(
                f"central_weight_mode must be one of {CENTRAL_WEIGHT_MODES}"
            )
        if self.max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")


@dataclass(frozen=True)
class SeriesRow:
    date: int
    target: str
    decomposition: RiskDecomposition


class _Failure(Exception):
    """Arguments: a target's first failing date index and the error for it."""


def _no_risk(node_id: str) -> ValueError:
    return ValueError(f"node {node_id!r} carries no risk value")


def _product(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Paths x dates products of ``table``'s rows over each row of ``rows``,
    multiplied left to right starting from the first factor."""
    out = table[rows[:, 0]]
    for j in range(1, rows.shape[1]):
        out *= table[rows[:, j]]
    return out


def _running_total(block: np.ndarray) -> np.ndarray:
    """Column sums of a C-contiguous items x dates block, added top to bottom;
    numpy would add a single column pairwise, so that one goes through cumsum."""
    if block.shape[1] == 1 and len(block):
        return np.cumsum(block, axis=0)[-1]
    return block.sum(axis=0)


class _Scorer:
    """A series' arrays as one ``riskrank_series`` call scores them.

    ``weights`` and ``risks`` are W.T and X.T with a trailing row of ones
    that padded path entries point at.
    """

    def __init__(self, series: NetworkSeries):
        self.series = series
        self.node_col = {nid: i for i, nid in enumerate(series.node_ids)}
        self.link_pos = series.link_table  # k_paths reads it for every target
        ones = np.ones((1, len(series)))
        self.weights = np.vstack([series.W.T, ones])
        self.risks = np.vstack([series.X.T, ones])

    def _self_mass(self, target: str) -> np.ndarray:
        """Self exposure per date, else the in-link weight total capped at one;
        a self-link is skipped."""
        col = self.node_col[target]
        inbound = np.delete(self.link_pos[:-1, col], col)
        inbound = inbound[inbound < len(self.series.link_keys)]
        fallback = np.minimum(_running_total(self.weights[inbound]), 1.0)
        given = self.series.exposure[:, col]
        return np.where(np.isnan(given), fallback, given)

    def score(self, target: str, cfg: RiskRankConfig) -> tuple[np.ndarray, ...]:
        """Individual, direct, indirect, raw and final totals over all dates.

        Raises _Failure for the first date on which the target cannot be
        scored.
        """
        col = self.node_col.get(target)
        if col is None:
            raise _Failure(0, ValueError(f"unknown node {target!r}"))
        is_root = self.series.levels[col] == 0
        shapley = not is_root and cfg.central_weight_mode == "shapley"
        rows = k_paths(self.series, target, cfg.max_path_length)
        nodes = rows[:, :0:-1]
        links = self.link_pos[rows[:, 1:], rows[:, :-1]]
        mass = _product(self.weights, links)
        value = mass * _product(self.risks, nodes)
        self_mass = self._self_mass(target) if shapley else 0.0
        z = np.ascontiguousarray(mass.T).sum(axis=1) + self_mass
        scored = z > 0.0

        # Checks in the order the path operator makes them at every k.
        known = self.series.known
        checks = []
        if is_root or shapley:
            what = "mass" if is_root else "mass or self exposure"
            checks.append((~scored, lambda d: NoCapacityError(
                f"node {target!r} has no incoming {what}")))
        if not is_root:
            checks.append((~known[:, col], lambda d: _no_risk(target)))
        # Path entries in the order the path operator reads their levels.
        on_paths = nodes[nodes != PATH_PAD]
        on_path = np.bincount(on_paths, minlength=known.shape[1]) > 0
        checks.append((scored & (~known[:, on_path]).any(axis=1),
                       lambda d: _no_risk(self.series.node_ids[on_paths[np.argmax(~known[d, on_paths])]])))
        failing = np.logical_or.reduce([mask for mask, _ in checks])
        if failing.any():
            d = int(np.argmax(failing))
            raise _Failure(d, next(error(d) for mask, error in checks if mask[d]))

        share = value / np.where(scored, z, 1.0)
        n_direct = np.count_nonzero((rows[:, 2:] == PATH_PAD).all(axis=1))
        direct = np.where(scored, _running_total(share[:n_direct]), 0.0)
        indirect = np.where(scored, _running_total(share[n_direct:]), 0.0)
        own_level = self.risks[col]
        if is_root:
            individual = np.zeros(len(self.series))
        elif shapley:
            individual = (self_mass / z) * own_level
        else:
            individual = own_level
        total_raw = individual + direct + indirect
        clamp = is_root or cfg.clamp
        total = np.minimum(total_raw, 1.0) if clamp else total_raw
        return individual, direct, indirect, total_raw, total


def riskrank_series(series, targets, cfg: RiskRankConfig = RiskRankConfig()) -> list[SeriesRow]:
    """One decomposition per (date, target) of a NetworkSeries, dates taken
    in order.  A failure is reported for the first failing (date, target) pair.
    """
    targets = list(targets)
    scorer = _Scorer(series)
    scored, failures = [], []
    for j, target in enumerate(targets):
        try:
            scored.append(list(zip(*(part.tolist() for part in scorer.score(target, cfg)))))
        except _Failure as failure:
            date_index, error = failure.args
            failures.append((date_index, j, error))
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]
    return [
        SeriesRow(date, target, RiskDecomposition(target, *per_date[d]))
        for d, date in enumerate(series.dates)
        for target, per_date in zip(targets, scored)
    ]


def riskrank_for(snapshot: NetworkSnapshot, target: str,
                 cfg: RiskRankConfig = RiskRankConfig()) -> RiskDecomposition:
    """Decomposition of one target in one snapshot: a series of one."""
    series = NetworkSeries.from_snapshots([snapshot])
    return riskrank_series(series, [target], cfg)[0].decomposition
